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

_TAU2_REAL = np.array([[0.0, 1.0], [-1.0, 0.0]])


class DomainError(ValueError):
    """Input outside the domain of an operation."""


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
        return cls(antisymmetrized(np.asarray(m, dtype=float)))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.dim // 2


def transposed(a):
    """A contiguous copy of the transpose of each matrix of a stack a
    (..., p, q), shape (..., q, p).

    Every stacked product of the package by a transpose multiplies by this
    copy.  numpy's stacked matmul multiplies a transposed view more slowly
    than a contiguous operand: a Gram a^T a 1.1-3x at sizes 2-8, and
    `sandwich` of a 2-D base 1.6x at size 2 (0.35 -> 0.22 ms per 4 096
    matrices, one BLAS thread), while the copy costs it about 7 % at size
    4 and 25 % at sizes 6-8 more than it saves (size 8: 2.6 -> 3.4 ms).
    The products agree bit for bit either way.
    """
    return np.ascontiguousarray(np.swapaxes(a, -1, -2))


def times_shared(a, m):
    """a @ m for a stack a (..., p, q), leading axes broadcast.

    Where m has no per-sample axis, that is, its axes that meet a's stack
    axes are all 1 or absent (a 2-D m, or m of shape (2, 1, q, r) against
    a (S, p, q)), the product is one GEMM per leading matrix of m over
    a.reshape(-1, q): one BLAS call in place of one per sample.  It agrees
    with the stacked product to rounding (bit for bit with OpenBLAS 0.3 at
    sizes 2-8).  On 4 096 k x k matrices and one BLAS thread, k m takes
    0.02, 0.04, 0.10 and 0.33 ms at k = 2, 4, 6, 8 in place of 0.13, 0.17,
    0.20 and 0.30 ms.  A per-sample m takes the stacked product.
    """
    outer = max(m.ndim - a.ndim, 0)
    if any(d != 1 for d in m.shape[outer:-2]):
        return a @ m
    lead = m.shape[:outer]
    out = a.reshape(-1, a.shape[-1]) @ m.reshape(lead + m.shape[-2:])
    return out.reshape(lead + a.shape[:-1] + m.shape[-1:])


def sandwich(k, m):
    """k m k^T for each matrix k of a stack, leading axes broadcast; k m is
    one GEMM (`times_shared`) when m has no per-sample axis, as a 2-D
    base."""
    return times_shared(k, m) @ transposed(k)


def antisymmetrized(y):
    """(y - y^T) / 2 for each matrix of a stack: scrubs rounding asymmetry."""
    return (y - np.swapaxes(y, -1, -2)) / 2.0


def sorted_spectra(a, n=None) -> np.ndarray:
    """Spectra a of shape (..., n), each sorted ascending; a SingularSpectrum
    or a scalar is one spectrum."""
    if isinstance(a, SingularSpectrum):
        a = a.values
    a = np.asarray(a, dtype=float)
    a = np.sort(a if a.ndim else a[None], axis=-1)
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
    the float 1.0 for n = 1, which broadcasts against any stack, and a
    scalar for a single vector.  At n = 2 it is the closed form
    v_1 - v_0."""
    v = np.asarray(v)
    if v.shape[-1] == 2:
        return v[..., 1] - v[..., 0]
    out = 1.0
    for k in range(v.shape[-1] - 1):
        out = out * np.multiply.reduce(v[..., k + 1:] - v[..., k, None],
                                       axis=-1)
    return out


def det(m):
    """Determinant of each matrix of a stack m (..., k, k), leading axes
    broadcast as in np.linalg.det, and a scalar for a single matrix.

    1 x 1 and 2 x 2 matrices are closed forms (m00 m11 - m01 m10 at
    k = 2), which skip LAPACK's per-matrix LU; every other k is
    np.linalg.det.  The package computes every determinant here.
    """
    m = np.asarray(m)
    if m.shape[-2:] == (1, 1):
        return m[..., 0, 0].copy()[()]      # a scalar for one matrix
    if m.shape[-2:] == (2, 2):
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return np.linalg.det(m)


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
    return det(np.stack(edge, axis=-1))


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
    """Nonnegative values a_j such that the eigenvalues of x are {+/- i a_j};
    the one-matrix case of :func:`spectra_batch`."""
    return SingularSpectrum(spectra_batch(x.entries[None])[0])


def spectra_batch(mats: np.ndarray) -> np.ndarray:
    """Singular spectra of a stack of antisymmetric matrices (M, 2n, 2n),
    shape (M, n), ascending per row.

    At n <= 2 the spectra are closed forms.  At n = 1 the value is |y_01|.
    At n = 2, so(4) = su(2) + su(2) splits y into the 3-vectors
    u = (y01 + y23, y02 - y13, y03 + y12) and
    v = (y01 - y23, y02 + y13, y03 - y12) with |u| = a_1 + a_2 and
    |v| = |a_1 - a_2|, so a_max = (|u| + |v|) / 2 carries no cancellation,
    and a_min = |Pf y| / a_max with Pf y = y01 y23 - y02 y13 + y03 y12,
    clamped to at most a_max (0 for a zero matrix).  The Pfaffian is taken
    of y scaled by the power of two nearest a_max, so it neither overflows
    nor underflows.  a_max is accurate to a few ulps and a_min to a few ulps
    times the cancellation in Pf y, far better than the eps * a_max^2
    absolute accuracy of the eigenvalues of y^T y.  At n >= 3 they are
    square roots of the doubly degenerate eigenvalues of y^T y, each pair
    averaged.  At every n, a matrix holding NaN or inf, or one whose
    spectrum (at n >= 3, y^T y) overflows, raises DomainError.
    """
    n = mats.shape[-1] // 2
    if n == 1:
        a = np.abs(mats[:, 0, 1:])
    elif n == 2:
        y01, y02, y03 = mats[:, 0, 1], mats[:, 0, 2], mats[:, 0, 3]
        y12, y13, y23 = mats[:, 1, 2], mats[:, 1, 3], mats[:, 2, 3]
        u = np.hypot(np.hypot(y01 + y23, y02 - y13), y03 + y12)
        v = np.hypot(np.hypot(y01 - y23, y02 + y13), y03 - y12)
        a_max = (u + v) / 2.0
        # a_max = m 2^e with 1/2 <= m < 1; y 2^-e is exact, so its
        # Pfaffian neither overflows nor underflows and rounds as Pf y does
        m, e = np.frexp(a_max)
        m = np.where(m > 0, m, 1.0)
        s01, s02, s03, s12, s13, s23 = (
            np.ldexp(y, -e) for y in (y01, y02, y03, y12, y13, y23))
        pf = np.abs(s01 * s23 - s02 * s13 + s03 * s12)
        a = np.stack([np.ldexp(np.minimum(pf / m, m), e), a_max], axis=-1)
    else:
        w = np.linalg.eigvalsh(_finite(transposed(mats) @ mats))
        w = np.clip(w, 0.0, None)
        a = np.sqrt((w[:, 0::2] + w[:, 1::2]) / 2.0)
    return _finite(a)


def _finite(a: np.ndarray) -> np.ndarray:
    """a itself; DomainError if it holds NaN or inf."""
    if not np.isfinite(a).all():
        raise DomainError("spectra are not finite: a matrix holds NaN or "
                          "inf, or its spectrum overflows")
    return a


#: L(p)[i, j] = _QUAT_SIGNS[0, i, j] p[i ^ j] is the matrix of x -> p x on
#: quaternions x = (x_0, x_1, x_2, x_3) = x_0 + x_1 i + x_2 j + x_3 k, and
#: R(q)[i, j] = _QUAT_SIGNS[1, i, j] q[i ^ j] that of x -> x q.
_QUAT_INDEX = np.bitwise_xor.outer(np.arange(4), np.arange(4))
_QUAT_SIGNS = np.array([[[1, -1, -1, -1], [1, 1, -1, 1],
                         [1, 1, 1, -1], [1, -1, 1, 1]],
                        [[1, -1, -1, -1], [1, 1, 1, -1],
                         [1, -1, 1, 1], [1, 1, -1, 1]]], dtype=float)

def haar_orthogonal_batch(m: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of `size` Haar O(m) matrices, shape (size, m, m).

    At m = 4, SO(4) = (S^3 x S^3) / {+/-1}: for independent uniform unit
    quaternions p and q, the rotation x -> p x q of the quaternions is Haar
    on SO(4) (Mebius 2005, "A matrix-based proof of the quaternion
    representation theorem for four-dimensional rotations").  p and q are
    normalized standard Gaussian 4-vectors, drawn as one (size, 2, 4) array,
    and the matrix is L(p) R(q) of the left and right multiplications, one
    stacked product: no QR.  At every other m, QR
    factorization of standard Gaussian m x m matrices with the R-diagonal
    fixed positive.  Either is followed by a uniform +/-1 reflection of the
    first column so that both components of O(m) are hit with probability
    1/2 each.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    if m == 4:
        g = rng.standard_normal((size, 2, 4))
        g /= np.sqrt(np.einsum("sij,sij->si", g, g))[..., None]
        lr = np.take(g, _QUAT_INDEX, axis=-1)
        lr *= _QUAT_SIGNS
        q = lr[:, 0] @ lr[:, 1]
    else:
        q, r = np.linalg.qr(rng.standard_normal((size, m, m)))
        d = np.sign(np.einsum("sii->si", r))
        d[d == 0.0] = 1.0
        q = q * d[:, None, :]
    flip = rng.integers(0, 2, size=size) * 2 - 1
    q[:, :, 0] *= flip[:, None]
    return q


#: Samples per block of every Monte Carlo stream (`_mc_blocks`).  At
#: 4 096 a (block, 8, 8) stack is 2 MB, so each block's temporaries stay
#: small enough to be reused between blocks rather than mapped and faulted
#: in anew, and memory does not grow with the sample count.
MC_BLOCK = 4096


def _mc_blocks(draws, nsamples: int, rng: np.random.Generator):
    """For each block of min(MC_BLOCK, remaining) samples until nsamples
    are drawn, the tuple of draw(block, rng) over the callables of `draws`,
    called in order; `partial(haar_orthogonal_batch, m)` draws Haar O(m)
    stacks.  The product samplers and every Monte Carlo estimator of the
    package draw through here, so a result depends on its seed, its
    sample count and MC_BLOCK only.
    DomainError at once if nsamples < 1."""
    if nsamples < 1:
        raise DomainError(f"nsamples must be >= 1, got {nsamples}")
    return (tuple(draw(min(MC_BLOCK, nsamples - lo), rng) for draw in draws)
            for lo in range(0, nsamples, MC_BLOCK))


def _mc_stack(draw, nsamples: int, shape, rng: np.random.Generator):
    """The draw(block, rng) of each block of `_mc_blocks`, stacked into one
    preallocated array of shape (nsamples, *shape)."""
    blocks = _mc_blocks((draw,), nsamples, rng)
    out = np.empty((nsamples, *shape))
    lo = 0
    for (x,) in blocks:
        out[lo:lo + len(x)] = x
        lo += len(x)
    return out
