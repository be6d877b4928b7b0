"""Core matrix and spectrum types shared by all other modules.

Even-dimensional real antisymmetric matrices have purely imaginary spectra
{+/- i a_j} with a_j >= 0; throughout, "singular spectrum" refers to the
nonnegative half (a_1, ..., a_n) sorted ascending.

The closed forms of the package are alternants det[f_b(u_c)] / Delta(u).
`confluent_alternant` evaluates them on stacks of nodes through one
divided-difference table, whose confluent columns resolve coinciding
nodes; `coincident` is the rule by which entries of a spectrum coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Relative consecutive gap below which a spectrum counts as degenerate and
#: callers must take the confluent (l'Hopital) evaluation paths.
DEGENERACY_RTOL = 1e-8

#: Gap allowed between paired eigenvalues of x^T x, relative to the largest.
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
        if (v < 0).any():
            raise DomainError("singular values must be nonnegative")
        if (v[1:] < v[:-1]).any():
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
    def is_degenerate(self) -> bool:
        return bool(coincident(self.values).any())


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


def sorted_spectra(a, n=None) -> np.ndarray:
    """Spectra a of shape (..., n), each sorted ascending; a SingularSpectrum
    is one spectrum."""
    if isinstance(a, SingularSpectrum):
        a = a.values
    a = np.sort(np.atleast_1d(np.asarray(a, dtype=float)), axis=-1)
    if n is not None and a.shape[-1] != n:
        raise DomainError(f"spectra of length {n} expected, "
                          f"got length {a.shape[-1]}")
    return a


def coincident(v) -> np.ndarray:
    """Flags, shape (..., n - 1), of the consecutive entries of ascending
    nonnegative spectra v (..., n) that coincide: relative gap
    (v_(k+1) - v_k) / v_(k+1) <= DEGENERACY_RTOL, a zero pair counting as
    gap 0.  The rule is scale-invariant, so it holds for v and v^2 alike."""
    v = np.asarray(v, dtype=float)
    hi = v[..., 1:]
    return hi - v[..., :-1] <= DEGENERACY_RTOL * hi


def vandermonde(v):
    """prod_(k<l) (v_l - v_k) over the last axis of v, in the given order;
    1 for n = 1, and a scalar for a single vector."""
    v = np.asarray(v)
    out = 1.0
    for k in range(v.shape[-1]):
        out = out * (v[..., k + 1:] - v[..., k, None]).prod(axis=-1)
    return out


def confluent_alternant(nodes, same, taylor, dd1=None):
    """det[f_b(u_c)] / prod_(k<l) (u_l - u_k) for each stack entry of nodes.

    nodes has shape (..., n), each row sorted ascending; same, shape
    (..., n - 1), flags the consecutive nodes that coincide, and each run
    of them is replaced by its mean.  taylor(u, m) returns f_b^(m)(u)/m!
    for nodes u of shape (..., k) as an array (..., n, k) over the rows b
    (m = 0 gives the values); dd1(u, v), in the same layout, is an optional
    cancellation-free first difference f_b[u, v] of distinct nodes.  The
    leading axes of nodes and of the taylor values broadcast.

    The determinant is that of the top edges of the Newton
    divided-difference tables, det[f_b[u_0, ..., u_c]], in which a
    difference across coinciding nodes is the Taylor coefficient: the
    confluent columns.  The ratio is symmetric in the nodes, so any order
    that keeps coinciding nodes adjacent serves.  Returns an array of
    shape (...), a scalar for a single row of nodes.
    """
    u = np.asarray(nodes)
    n = u.shape[-1]
    # runs of exactly equal nodes need no snap
    if (same & (u[..., 1:] != u[..., :-1])).any():
        label = np.zeros(same.shape[:-1] + (n,), dtype=int)
        label[..., 1:] = np.cumsum(~same, axis=-1)
        member = label[..., :, None] == label[..., None, :]
        u = (member * u[..., None, :]).sum(axis=-1) / member.sum(axis=-1)
    col = taylor(u, 0)
    edge = [col[..., 0]]
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(1, n):
            lo, hi = u[..., :n - m], u[..., m:]
            if m == 1 and dd1 is not None:
                col = dd1(lo, hi)
            else:
                col = (col[..., 1:] - col[..., :-1]) / (hi - lo)[..., None, :]
            eq = hi == lo
            if eq.any():
                col = np.where(eq[..., None, :], taylor(lo, m), col)
            edge.append(col[..., 0])
    return np.linalg.det(np.stack(edge, axis=-1))


def derivative_terms(rule, start, m: int) -> dict:
    """{key: coefficient} of the m-th derivative of the term start.

    A term is a key with a coefficient; rule(*key) lists the (key, factor)
    pairs whose sum is the derivative of that term.  The taylor inputs of
    `confluent_alternant` expand f^(m) this way.
    """
    terms = {start: 1.0}
    for _ in range(m):
        new = {}
        for key, c in terms.items():
            for nkey, f in rule(*key):
                new[nkey] = new.get(nkey, 0.0) + f * c
        terms = new
    return terms


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
    symmetric matrix x^T x, deduplicated by pairing sorted eigenvalues;
    eigvalsh is accurate on the scale of the largest one, so pairs further
    apart than PAIRING_RTOL times it raise SpectrumPairingError.
    """
    m = x.entries
    w = np.linalg.eigvalsh(m.T @ m)
    w = np.clip(w, 0.0, None)
    lo, hi = w[0::2], w[1::2]
    mism = np.max(hi - lo)
    if mism > PAIRING_RTOL * w[-1]:
        raise SpectrumPairingError(
            f"eigenvalues of x^T x do not pair (mismatch {mism / w[-1]:.3e} "
            "of the largest)")
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

