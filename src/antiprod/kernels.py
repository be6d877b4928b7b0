"""Bi-orthogonal systems and determinantal correlation kernels.

The singular-value densities of ensembles.py are determinantal; this module
constructs the underlying bi-orthonormal pairs {p_j, q_j} and evaluates the
correlation kernel both as the finite series sum_j p_j(y') q_j(y) and
through its contour-integral representations.  One broadcasting evaluator,
BiorthSystem.kernel, serves the diagonal, both series kernels and the
single-contour form of kernel_fixed on whole grids of (y', y); the
double-contour kernel broadcasts as well,
from a memoised frame of the nodes, weights and Cauchy matrix of each base
and contour.  Contour integrals over
circles are discretized by the trapezoid rule, which is spectrally accurate
for the meromorphic-in-z^2 integrands that occur here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .linalg import DomainError, SingularSpectrum, det
from .mellin import WeightFunction, mellin_convolve
from .ensembles import PolynomialEnsembleSpec, fixed_base_weights

__all__ = [
    "BiorthSystem", "ContourSpec", "ContourError",
    "chi_poly", "gram_biorth", "biorth_fixed",
    "kernel_poly", "kernel_fixed", "kernel_fixed_contour",
    "correlation_Rk",
]

#: Imaginary residue above which a contour evaluation is rejected.
IMAG_TOL = 1e-9

#: Bimoment condition number above which a Gram construction is rejected.
COND_MAX = 1e12


class ContourError(ArithmeticError):
    """Contour discretization failed its convergence or reality check."""


@dataclass(frozen=True)
class ContourSpec:
    """Discretized circles for the kernel contour integrals.

    radius is the z-circle around the origin (None picks 0.5 min_j a_j from
    context); n_nodes must be a power of two >= 64.  rho and
    nodes_per_circle configure the union-of-circles contour around the
    poles a_j used by the double-contour kernel.
    """

    radius: float | None = None
    n_nodes: int = 256
    rho: float | None = None
    nodes_per_circle: int = 256

    def __post_init__(self):
        for m in (self.n_nodes, self.nodes_per_circle):
            if m < 64 or m & (m - 1) != 0:
                raise DomainError("node counts must be powers of two >= 64")
        if self.radius is not None and self.radius <= 0:
            raise DomainError("contour radius must be positive")
        if self.rho is not None and self.rho <= 0:
            raise DomainError("pole-circle radius must be positive")


@dataclass(frozen=True)
class BiorthSystem:
    """Bi-orthonormal pairs {p_j, q_j} with int p_j q_k = delta_jk.

    ptilde_coeffs[j, i] is the coefficient of u^(2i) in the even polynomial
    p_j; qtilde holds the dual functions as WeightFunction objects with
    exact Mellin handles.  gram_offdiag records the largest off-diagonal
    Gram magnitude seen at construction (None if not measured).
    """

    n: int
    ptilde_coeffs: np.ndarray
    qtilde: tuple
    factor: WeightFunction | None = None
    label: str = "biorth"
    gram_offdiag: float | None = None

    def _p_coeffs(self, factor) -> np.ndarray:
        """Coefficients of the p_j: the chi-contour transform under factor
        divides coefficient i of ptilde_j by M A(2i + 1); without a factor
        p_j = ptilde_j."""
        if factor is None:
            return self.ptilde_coeffs
        minv = np.array([1.0 / float(np.real(factor.mellin(2 * i + 1)))
                         for i in range(self.n)])
        return self.ptilde_coeffs * minv[None, :]

    def p(self, yprime, factor=None, circle=None) -> np.ndarray:
        """p_j(y') for j = 0, ..., n-1, shape (n,) + y'.shape.

        p_j is the chi transform of ptilde_j under factor (default the
        attached one): the residue series sum_i ptilde_ji y'^(2i) /
        M A(2i + 1), or, with circle = (radius, n_nodes), the trapezoid
        average of chi(z) ptilde_j(y'/z) over that z-circle.
        """
        yprime = np.asarray(yprime, dtype=float)
        factor = self.factor if factor is None else factor
        if circle is None:
            # float_power squares through libm pow, as the scalar y ** 2 of
            # Python does, so a grid and a point agree bit for bit (y * y
            # can differ)
            u = np.float_power(yprime, 2)
            return npoly.polyval(u, self._p_coeffs(factor).T)
        radius, n_nodes = circle
        z = radius * _unit_circle(n_nodes)
        u = (yprime[..., None] / z) ** 2
        vals = np.mean(chi_poly(factor, z, 0, self.n - 1)
                       * npoly.polyval(u, self.ptilde_coeffs.T), axis=-1)
        return _real_part(vals, "z-contour")

    def kernel(self, yprime, y, q=None, factor=None, circle=None):
        """K_n(y', y) = sum_j p_j(y') q_j(y), broadcasting y' against y.

        q holds the values q_j(y) (default the duals qtilde_j at y); factor
        and circle choose the p_j as in p.  A float for scalar y', y.
        """
        y = np.asarray(y, dtype=float)
        if q is None:
            q = [w.density(y) for w in self.qtilde]
        out = 0.0
        for pj, qj in zip(self.p(yprime, factor, circle), q):
            out = out + pj * qj
        return out if np.ndim(out) else float(out)

    def diagonal(self, y):
        """Kernel diagonal K_n(y, y) = sum_j p_j(y) q_j(y), vectorized over y.

        K_n(y, y) / n is the density of one pooled spectrum entry of the
        determinantal ensemble (Borodin, Nucl. Phys. B 536, 1999).
        """
        return self.kernel(y, y)

    def gram_matrix(self) -> np.ndarray:
        """int p_j(y) q_k(y) dy from the exact Mellin handles of qtilde."""
        pc = self._p_coeffs(self.factor)
        G = np.empty((self.n, self.n))
        for j in range(self.n):
            for k in range(self.n):
                G[j, k] = sum(
                    pc[j, i]
                    * float(np.real(self.qtilde[k].mellin(2 * i + 1)))
                    for i in range(self.n))
        return G


def chi_poly(factor: WeightFunction, z, m1: int = 0, m2: int = 0):
    """chi_{m1,m2}(z) = sum_{j=m1}^{m2} z^(2j) / M A(2j + 1).

    Terms with infinite Mellin value are dropped (their reciprocal is 0).
    """
    if m1 > m2:
        raise DomainError("need m1 <= m2")
    coeffs = np.zeros(m2 + 1, dtype=complex)
    for j in range(m1, m2 + 1):
        m = factor.mellin(2 * j + 1)
        if np.isfinite(m) and m != 0:
            coeffs[j] = 1.0 / m
    z = np.asarray(z)
    val = npoly.polyval(z * z, coeffs)
    return val if np.ndim(val) else complex(val)


def _combo_weight(coeffs: np.ndarray, weights: tuple, label: str) -> WeightFunction:
    """Linear combination of weights as one WeightFunction with exact Mellin."""
    active = [(float(c), w) for c, w in zip(coeffs, weights) if c != 0.0]
    lo = min(w.support[0] for _, w in active)
    hi = max(w.support[1] for _, w in active)

    def density(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for c, w in active:
            out = out + c * w.density(y)
        return out if out.ndim else float(out)

    def mellin(s):
        return sum(c * w.mellin(s) for c, w in active)

    return WeightFunction(density=density, mellin=mellin,
                          support=(lo, hi), label=label)


def gram_biorth(base: PolynomialEnsembleSpec) -> BiorthSystem:
    """Bi-orthonormal system of a polynomial ensemble from its bimoments.

    p_j is even of degree 2j (Gram-Schmidt order), and the duals q_j are
    re-expressed in the matching basis of the base weights.
    """
    n = base.n
    B = np.real(base.bimoments)
    cond = float(np.linalg.cond(B))
    if cond > COND_MAX:
        raise DomainError(
            f"bimoment matrix condition number {cond:.2e} exceeds {COND_MAX:g}")
    D = np.zeros((n, n))
    for j in range(n):
        sub = B[: j + 1, : j + 1].T
        e = np.zeros(j + 1)
        e[j] = 1.0
        D[j, : j + 1] = np.linalg.solve(sub, e)
    C = np.linalg.inv(D @ B).T
    qtilde = tuple(
        _combo_weight(C[j], base.weights, label=f"q[{j}]") for j in range(n))
    sys = BiorthSystem(n=n, ptilde_coeffs=D, qtilde=qtilde,
                       label=f"gram:{base.label}")
    off = float(np.max(np.abs(sys.gram_matrix() - np.eye(n))))
    return replace(sys, gram_offdiag=off)


def _fixed_lagrange_coeffs(atv: np.ndarray) -> np.ndarray:
    """Row j: coefficients in u^2 of prod_{i != j}(a_i^2 - u^2)/(a_i^2 - a_j^2)."""
    sq = atv * atv
    D = np.zeros((sq.size, sq.size))
    for j, sj in enumerate(sq):
        poly, denom = np.array([1.0]), 1.0
        for si in np.delete(sq, j):
            poly = npoly.polymul(poly, [si, -1.0])
            denom *= si - sj
        D[j, : poly.size] = poly / denom
    return D


def biorth_fixed(atilde, factor: WeightFunction) -> BiorthSystem:
    """Bi-orthonormal system of the fixed-base product ensemble.

    p_j(y') = contour average of chi(z) prod_{i!=j}(a_i^2 - (y'/z)^2) /
    (a_i^2 - a_j^2), reduced here to its exact residue form; q_j(y) =
    (1/a_j) A(y / a_j).
    """
    at = SingularSpectrum.from_values(atilde)
    if at.is_degenerate:
        raise DomainError("fixed-base kernel requires a non-degenerate base")
    n = at.n
    qtilde = fixed_base_weights(at, factor)     # rejects a base value <= 0
    D = _fixed_lagrange_coeffs(at.values)
    sys = BiorthSystem(n=n, ptilde_coeffs=D, qtilde=qtilde,
                       factor=factor, label="fixed")
    off = float(np.max(np.abs(sys.gram_matrix() - np.eye(n))))
    return replace(sys, gram_offdiag=off)


def _unit_circle(m: int) -> np.ndarray:
    """The m trapezoid nodes exp(2 pi i k / m) on the unit circle."""
    return np.exp(1j * (2.0 * np.pi * np.arange(m) / m))


def _real_part(val, what: str):
    imag = np.abs(val.imag)
    if np.any(imag > IMAG_TOL * np.maximum(np.abs(val.real), 1.0)):
        raise ContourError(
            f"{what}: imaginary residue {np.max(imag):.3e} above {IMAG_TOL:g}")
    return val.real


def _circle(method: str, contour: ContourSpec | None, radius: float):
    """(radius, n_nodes) of the z-circle for method 'contour', None for
    'series'; radius is the default when contour leaves it open."""
    if method == "series":
        return None
    if method != "contour":
        raise DomainError(f"unknown kernel method {method!r}")
    contour = ContourSpec() if contour is None else contour
    if contour.radius is not None:
        radius = contour.radius
    return radius, contour.n_nodes


def kernel_poly(yprime, y, base: BiorthSystem, factor: WeightFunction):
    """Correlation kernel of one factor applied to a polynomial-ensemble base.

    K_n(y', y) = sum_j p_j(y') q_j(y) with p_j the chi transform of the
    base polynomial ptilde_j, summed by its residues, and q_j the Mellin
    convolution of the factor density with the base dual qtilde_j.  y' and
    y broadcast against each other (y positive); the result has their
    broadcast shape, a float for scalars.
    """
    q = [mellin_convolve(factor, w, y) for w in base.qtilde]
    return base.kernel(yprime, y, q=q, factor=factor)


def kernel_fixed(yprime, y, atilde, factor: WeightFunction,
                 contour: ContourSpec | None = None,
                 method: str = "contour",
                 system: BiorthSystem | None = None):
    """Correlation kernel of the fixed-base product ensemble.

    Sum-over-j form with the Lagrange-type polynomials in (y'/z)^2; the
    z-contour encircles only the origin, default radius 0.5 min_j a_j.
    y' and y broadcast against each other; the result has their broadcast
    shape, a float for scalars.
    """
    at = SingularSpectrum.from_values(atilde)
    sys = system if system is not None else biorth_fixed(at, factor)
    circle = _circle(method, contour, 0.5 * float(at.values[0]))
    return sys.kernel(yprime, y, factor=factor, circle=circle)


#: Contour frames kept by the double-contour memo.  A frame of an n-entry
#: base holds n_nodes x n nodes_per_circle complex entries: 2 MB at n = 2
#: and the default node counts.
FRAME_MEMO = 8


class _ContourFrame(NamedTuple):
    """The point-free part of the double-contour kernel of one base: the
    z'-nodes zp with num = prod_i (a_i^2 - zp^2), the pole-circle nodes z
    (circle after circle) with trapezoid weights wts = (2 rho / nz) w /
    prod_i (a_i^2 - z^2), and the Cauchy matrix 1 / (zp^2 - z^2) of shape
    (zp.size, z.size); all read-only."""
    n: int
    zp: np.ndarray
    num: np.ndarray
    z: np.ndarray
    wts: np.ndarray
    cauchy: np.ndarray


@lru_cache(maxsize=FRAME_MEMO)
def _contour_frame(values: tuple, contour: ContourSpec) -> _ContourFrame:
    """The frame of the ascending base values under contour; raises
    DomainError for a degenerate base and ContourError when the circles
    collide (lru_cache keeps no exception, so every call raises again)."""
    at = SingularSpectrum(np.array(values))
    if at.is_degenerate:
        raise DomainError("fixed-base kernel requires a non-degenerate base")
    av = at.values
    # smallest spacing among the pole set {+/- a_j}: consecutive gaps and
    # the distance 2 a_min across the origin
    gaps = [2.0 * av[0]] + list(np.diff(av))
    rho = contour.rho if contour.rho is not None else 0.25 * min(gaps)
    rprime = contour.radius if contour.radius is not None \
        else 0.5 * (av[0] - rho)
    if rprime <= 0 or rprime + rho >= av[0]:
        raise ContourError("z'-circle collides with the pole circles")
    nz = contour.nodes_per_circle
    w = _unit_circle(nz)
    sq = av * av
    zp = rprime * _unit_circle(contour.n_nodes)
    z = (av[:, None] + rho * w[None, :]).ravel()
    num = np.prod(sq[None, :] - (zp ** 2)[:, None], axis=1)
    den = np.prod(sq[None, :] - (z ** 2)[:, None], axis=1)
    wts = (2.0 * rho / nz) * np.tile(w, at.n) / den
    cauchy = 1.0 / ((zp ** 2)[:, None] - (z ** 2)[None, :])
    for arr in (zp, num, z, wts, cauchy):
        arr.setflags(write=False)
    return _ContourFrame(at.n, zp, num, z, wts, cauchy)


def kernel_fixed_contour(yprime, y, atilde, factor: WeightFunction,
                         contour: ContourSpec | None = None):
    """Double-contour form of the fixed-base kernel.

    K_n(y', y) = (1/2 pi i) contour dz'/z' (1/pi i) contour dz
                 chi(y'/z') A(y/z) / (z'^2 - z^2)
                 * prod_i (a_i^2 - z'^2)/(a_i^2 - z^2),
    with z' on a circle around the origin and z on a union of small circles
    that encircle only the poles at a_1, ..., a_n.  Requires the factor
    density to be holomorphic near y / a_j; one that takes real arguments
    only (convolved_weight) raises DomainError.

    The nodes, weights and Cauchy matrix of the base and contour come from
    an LRU memo of FRAME_MEMO frames (2 MB each at n = 2).  Per call A is
    evaluated on y's own points and chi on y''s own points, each y is
    contracted with the Cauchy matrix in one matrix-vector product and each
    (y', y) pair over the z'-nodes in one dot product, so a grid
    y'[:, None], y[None, :] costs memory in proportion to its own points,
    never to its broadcast shape times the nodes.  y' and y broadcast
    against each other; the result has their broadcast shape, a float for
    scalars, and equals per-point calls bit for bit.
    """
    frame = _contour_frame(
        tuple(SingularSpectrum.from_values(atilde).values.tolist()),
        ContourSpec() if contour is None else contour)
    yprime = np.asarray(yprime, dtype=float)
    y = np.asarray(y, dtype=float)
    g = factor.density(y[..., None] / frame.z) * frame.wts
    inner = np.matmul(frame.cauchy, g[..., None])[..., 0]
    h = chi_poly(factor, yprime[..., None] / frame.zp, 0, frame.n - 1) \
        * frame.num
    # n_nodes is a power of two, so the trapezoid mean divides exactly
    val = np.matmul(h[..., None, :], inner[..., :, None])[..., 0, 0] \
        / frame.zp.size
    val = _real_part(val, "double contour")
    return val if val.ndim else float(val)


def correlation_Rk(points, kernel) -> float:
    """R_k(y_1, ..., y_k) = det[K(y_l, y_m)] for a kernel handle K(y', y).

    points has shape (k,).  K must broadcast y' against y, as kernel_fixed
    and kernel_poly do: the k x k matrix is one call K(y[:, None],
    y[None, :]).
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    return float(det(kernel(pts[:, None], pts[None, :])))
