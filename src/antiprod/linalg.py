"""Core matrix and spectrum types shared by all other modules.

Even-dimensional real antisymmetric matrices have purely imaginary spectra
{+/- i a_j} with a_j >= 0; throughout, "singular spectrum" refers to the
nonnegative half (a_1, ..., a_n) sorted ascending.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Relative consecutive gap below which a spectrum counts as degenerate and
#: callers must take the confluent (l'Hopital) evaluation paths.
DEGENERACY_RTOL = 1e-8

#: Relative mismatch allowed between the paired eigenvalues of x^T x.
PAIRING_RTOL = 1e-8

_TAU2_REAL = np.array([[0.0, 1.0], [-1.0, 0.0]])


class DomainError(ValueError):
    """Input outside the domain of an operation."""


class SpectrumPairingError(ValueError):
    """Eigenvalues of x^T x failed to pair up: x is not numerically antisymmetric."""


@dataclass(frozen=True)
class SingularSpectrum:
    """Ascending nonnegative n-vector of singular values."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.ndim != 1 or v.size == 0:
            raise DomainError("spectrum must be a nonempty vector")
        if np.any(v < 0):
            raise DomainError("singular values must be nonnegative")
        if np.any(np.diff(v) < 0):
            raise DomainError("singular values must be sorted ascending")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_values(cls, values) -> "SingularSpectrum":
        """Spectrum of the sorted values; a SingularSpectrum passes as is."""
        if isinstance(values, cls):
            return values
        return cls(np.sort(np.asarray(values, dtype=float)))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def relative_gaps(self) -> np.ndarray:
        """Consecutive gaps (a_(k+1) - a_k) / a_(k+1), with a zero pair
        counting as gap 0; empty for n = 1."""
        v = self.values
        hi = v[1:]
        return (hi - v[:-1]) / np.where(hi == 0.0, 1.0, hi)

    @property
    def degeneracy_gap(self) -> float:
        """Minimum relative consecutive gap; inf for n = 1."""
        gaps = self.relative_gaps
        return float(np.min(gaps)) if gaps.size else np.inf

    @property
    def is_degenerate(self) -> bool:
        return self.degeneracy_gap <= DEGENERACY_RTOL


@dataclass(frozen=True)
class AntisymmetricMatrix:
    """Even-dimensional real matrix x with x^T = -x (exactly)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("entries must be square")
        if m.shape[0] % 2 != 0 or m.shape[0] == 0:
            raise DomainError("dimension must be even and positive")
        if not np.array_equal(m, -m.T):
            raise DomainError("entries must be exactly antisymmetric; "
                              "use AntisymmetricMatrix.from_raw to scrub rounding")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def from_raw(cls, m) -> "AntisymmetricMatrix":
        """Antisymmetrize (m - m^T)/2 to scrub floating-point asymmetry."""
        m = np.asarray(m, dtype=float)
        return cls((m - m.T) / 2.0)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.dim // 2


def vandermonde_sq(a: SingularSpectrum | np.ndarray) -> float:
    """prod_{k<l} (a_l^2 - a_k^2) over the last axis; 1 for n = 1."""
    v = a.values if isinstance(a, SingularSpectrum) else np.asarray(a, dtype=float)
    sq = v * v
    out = 1.0
    for k in range(sq.shape[-1]):
        out = out * np.prod(sq[..., k + 1:] - sq[..., k, None], axis=-1)
    return out if np.ndim(out) else float(out)


def build_canonical(a: SingularSpectrum) -> AntisymmetricMatrix:
    """Block-diagonal matrix with blocks a_j * [[0, 1], [-1, 0]]."""
    n = a.n
    m = np.zeros((2 * n, 2 * n))
    for j, aj in enumerate(a.values):
        m[2 * j: 2 * j + 2, 2 * j: 2 * j + 2] = aj * _TAU2_REAL
    return AntisymmetricMatrix(m)


def singular_spectrum(x: AntisymmetricMatrix) -> SingularSpectrum:
    """Nonnegative values a_j such that the eigenvalues of x are {+/- i a_j}.

    Computed as square roots of the doubly degenerate eigenvalues of the
    symmetric matrix x^T x, deduplicated by pairing sorted eigenvalues.
    """
    m = x.entries
    w = np.linalg.eigvalsh(m.T @ m)
    w = np.clip(w, 0.0, None)
    lo, hi = w[0::2], w[1::2]
    scale = np.maximum(hi, 1e-300)
    if np.any((hi - lo) / np.maximum(scale, np.max(w) * 1e-14) > PAIRING_RTOL * np.sqrt(np.maximum(scale, 1.0))):
        # guard against an input that only looks antisymmetric
        mism = np.max((hi - lo) / np.maximum(scale, 1e-300))
        if mism > PAIRING_RTOL:
            raise SpectrumPairingError(
                f"eigenvalues of x^T x do not pair (relative mismatch {mism:.3e})")
    return SingularSpectrum(np.sqrt((lo + hi) / 2.0))


def spectra_batch(mats: np.ndarray) -> np.ndarray:
    """Singular spectra of a stack of antisymmetric matrices, shape (M, n).

    Vectorized counterpart of :func:`singular_spectrum` without the pairing
    diagnostics; intended for Monte Carlo inner loops.
    """
    w = np.linalg.eigvalsh(mats.transpose(0, 2, 1) @ mats)
    w = np.clip(w, 0.0, None)
    return np.sqrt((w[:, 0::2] + w[:, 1::2]) / 2.0)


def _haar_columns(m: int, k: int, size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Stack of `size` uniform m x k frames with orthonormal columns (the
    first k columns of a Haar O(m) matrix), shape (size, m, k).

    Thin QR factorization of standard Gaussian m x k matrices with the
    R-diagonal fixed positive.
    """
    g = rng.standard_normal((size, m, k))
    q, r = np.linalg.qr(g)
    d = np.sign(np.einsum("sii->si", r))
    d[d == 0.0] = 1.0
    return q * d[:, None, :]


def haar_orthogonal_batch(m: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of `size` Haar O(m) matrices, shape (size, m, m).

    The frames of :func:`_haar_columns` with k = m, followed by a uniform
    +/-1 reflection of the first column so that both components of O(m)
    are hit with probability 1/2 each.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    q = _haar_columns(m, m, size, rng)
    flip = rng.integers(0, 2, size=size) * 2 - 1
    q[:, :, 0] *= flip[:, None]
    return q


#: Haar matrices per block of the Monte Carlo loops; bounds their memory.
_HAAR_BLOCK = 100_000


def _haar_blocks(draws, nsamples: int, rng: np.random.Generator):
    """Yield, for each block of min(_HAAR_BLOCK, remaining) samples until
    nsamples are drawn, the tuple of draw(block, rng) over the callables of
    `draws`, called in order; `partial(haar_orthogonal_batch, m)` draws
    Haar O(m) stacks."""
    if nsamples < 1:
        raise DomainError("nsamples must be >= 1")
    for done in range(0, nsamples, _HAAR_BLOCK):
        block = min(_HAAR_BLOCK, nsamples - done)
        yield tuple(draw(block, rng) for draw in draws)

