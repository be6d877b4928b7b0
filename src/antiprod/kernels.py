"""Bi-orthogonal systems and determinantal correlation kernels.

The singular-value densities of ensembles.py are determinantal; this module
constructs the underlying bi-orthonormal pairs {p_j, q_j} and evaluates the
correlation kernel both as the finite series sum_j p_j(y') q_j(y) and
through its contour-integral representations.  Every system has one
construction: its q_j are weights (the base weights in gram_biorth, the
columns of ensembles.fixed_base_weights in biorth_fixed), and ptilde is the
inverse of their Gram matrix of odd Mellin moments, read from one
mellin_table; the p_j are the chi transforms of the ptilde_j under the
system's own factor.  One broadcasting evaluator, BiorthSystem.kernel,
serves the diagonal, both series kernels and the single-contour form of
kernel_fixed on whole grids of (y', y); the double-contour kernel
broadcasts as well, from a memoised frame of the nodes, weights and Cauchy
matrix of each base.  Contour integrals over circles are discretized by the
trapezoid rule with N_NODES nodes per circle, which is spectrally accurate
for the meromorphic-in-z^2 integrands that occur here.  The z-circle of
kernel_fixed is the unit circle: there the term z^(2i) (y'/z)^(2k) of
chi(z) ptilde_j(y'/z) is the k-th residue term times a ratio of chi
coefficients, at any base and y', so the mean cancels about as much as
the residue sum.  The double contour puts a circle of radius rho_j, a
quarter of the gap from a_j to its nearest neighbour among the poles
+/- a_i, around each a_j, so a wide base keeps every circle above the ulp
of its pole, and its z'-circle has radius 0.5 (a_min - rho) with rho
that of a_min, inside every pole circle: no two circles meet.  Every
fixed-base route reads its base from ensembles._fixed_base.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .linalg import DomainError
from .mellin import WeightFunction, mellin_convolve
from .ensembles import (PolynomialEnsembleSpec, _fixed_base, _odd_moments,
                        fixed_base_weights)

__all__ = [
    "BiorthSystem", "ContourError",
    "chi_poly", "gram_biorth", "biorth_fixed",
    "kernel_poly", "kernel_fixed", "kernel_fixed_contour",
]

#: Imaginary residue above which a contour evaluation is rejected.
IMAG_TOL = 1e-9

#: Condition number of the row-scaled bimoment matrix above which
#: gram_biorth rejects a system.
COND_MAX = 1e12

#: Trapezoid nodes on each contour circle; a power of two, so that the
#: trapezoid mean divides exactly.
N_NODES = 256


class ContourError(ArithmeticError):
    """Contour discretization failed its convergence or reality check."""


@dataclass(frozen=True)
class BiorthSystem:
    """Bi-orthonormal pairs {p_j, q_j} with int p_j q_k = delta_jk.

    ptilde_coeffs[j, i] is the coefficient of u^(2i) in the even polynomial
    ptilde_j, whose chi transform under factor (itself without one) is p_j;
    qtilde holds the duals as WeightFunction objects with exact Mellin
    handles.  gram_offdiag records the largest off-diagonal Gram magnitude
    seen at construction (None if not measured); base holds the ascending
    fixed base of a biorth_fixed system (None for a polynomial ensemble).
    """

    n: int
    ptilde_coeffs: np.ndarray
    qtilde: tuple
    factor: WeightFunction | None = None
    gram_offdiag: float | None = None
    base: tuple | None = None

    @cached_property
    def _p_coeffs(self) -> np.ndarray:
        """Coefficients of the p_j: the chi-contour transform under the
        factor divides coefficient i of ptilde_j by M A(2i + 1); without a
        factor p_j = ptilde_j."""
        if self.factor is None:
            return self.ptilde_coeffs
        minv = 1 / _odd_moments((self.factor,), self.n)
        return self.ptilde_coeffs * minv.T

    def p(self, yprime, radius=None) -> np.ndarray:
        """p_j(y') for j = 0, ..., n-1, shape (n,) + y'.shape.

        p_j is the chi transform of ptilde_j under the factor: the residue
        series sum_i ptilde_ji y'^(2i) / M A(2i + 1), or, given a radius,
        the N_NODES-point trapezoid average of chi(z) ptilde_j(y'/z) over
        the z-circle of that radius.
        """
        yprime = np.asarray(yprime, dtype=float)
        if radius is None:
            # float_power squares through libm pow, as the scalar y ** 2 of
            # Python does, so a grid and a point agree bit for bit (y * y
            # can differ)
            return npoly.polyval(np.float_power(yprime, 2), self._p_coeffs.T)
        z = radius * _unit_circle(N_NODES)
        u = (yprime[..., None] / z) ** 2
        vals = np.mean(chi_poly(self.factor, z, self.n)
                       * npoly.polyval(u, self.ptilde_coeffs.T), axis=-1)
        return _real_part(vals, "z-contour")

    def kernel(self, yprime, y, q=None, radius=None):
        """K_n(y', y) = sum_j p_j(y') q_j(y), broadcasting y' against y.

        q holds the values q_j(y) (default the duals qtilde_j at y); radius
        chooses the p_j as in p.  A float for scalar y', y.
        """
        y = np.asarray(y, dtype=float)
        if q is None:
            q = [w.density(y) for w in self.qtilde]
        out = sum(pj * qj for pj, qj in zip(self.p(yprime, radius), q))
        return out if np.ndim(out) else float(out)

    def diagonal(self, y):
        """Kernel diagonal K_n(y, y) = sum_j p_j(y) q_j(y), vectorized over y.

        K_n(y, y) / n is the density of one pooled spectrum entry of the
        determinantal ensemble (Borodin, Nucl. Phys. B 536, 1999).
        """
        return self.kernel(y, y)

    def gram_matrix(self) -> np.ndarray:
        """int p_j(y) q_k(y) dy from the exact Mellin handles of qtilde."""
        return self._p_coeffs @ _odd_moments(self.qtilde, self.n)


def chi_poly(factor: WeightFunction, z, n: int):
    """chi_n(z) = sum_{j=0}^{n-1} z^(2j) / M A(2j + 1)."""
    if n < 1:
        raise DomainError("need n >= 1")
    z = np.asarray(z)
    val = npoly.polyval(z * z, 1 / _odd_moments((factor,), n)[:, 0])
    return val if np.ndim(val) else complex(val)


def _biorth(qtilde: tuple, factor: WeightFunction | None, G=None,
            base: tuple | None = None) -> BiorthSystem:
    """The system with duals qtilde and ptilde = inv(G), G[i, k] = int p_i q_k
    at ptilde = 1: M q_k(2i + 1), divided by M A(2i + 1) under a factor
    (computed here unless the caller has it).  Powers of two bring each row
    of G to [0.5, 1) before the inverse, with or without a factor: exact,
    and the rows otherwise grow like Gamma(2i + 1).  Scaled, the kernel of
    `gram_biorth` at n = 4 keeps 2e-16 of max |K| where the unscaled
    inverse loses 2e-14, and that of `biorth_fixed` at base 1, ..., 8
    keeps 1.2e-15 where it lost 7.5e-12."""
    n = len(qtilde)
    sys = BiorthSystem(n=n, ptilde_coeffs=np.eye(n), qtilde=qtilde,
                       factor=factor, base=base)
    if G is None:
        G = sys.gram_matrix()
    r = _row_powers(G)
    sys = replace(sys, ptilde_coeffs=np.linalg.inv(G * r[:, None]) * r)
    off = float(np.max(np.abs(sys.gram_matrix() - np.eye(n))))
    return replace(sys, gram_offdiag=off)


def gram_biorth(base: PolynomialEnsembleSpec) -> BiorthSystem:
    """Bi-orthonormal system of a polynomial ensemble from its bimoments:
    the duals q_j are the base weights and ptilde = inv(B), B[i, k] = M
    w_k(2i + 1), since any dual pair spanning the same spaces gives the
    same kernel (Borodin, Nucl. Phys. B 536, 1999).  B is G of `_biorth`,
    built once; the condition number of B with its rows scaled as
    `_biorth` inverts it is gated: above COND_MAX raises DomainError."""
    B = base.bimoments
    cond = float(np.linalg.cond(B * _row_powers(B)[:, None]))
    if cond > COND_MAX:
        raise DomainError(f"row-scaled bimoment matrix condition number "
                          f"{cond:.2e} exceeds {COND_MAX:g}")
    return _biorth(base.weights, None, B)


def _row_powers(G) -> np.ndarray:
    """The powers of two that bring the largest |entry| of each row of G
    into [0.5, 1)."""
    return np.ldexp(1.0, -np.frexp(np.max(np.abs(G), axis=1))[1])


def biorth_fixed(atilde, factor: WeightFunction) -> BiorthSystem:
    """Bi-orthonormal system of the fixed-base product ensemble at any base
    (a value <= 0 raises DomainError): q_j are the columns of
    fixed_base_weights, and ptilde = inv(V)^T with V[j, i] = M q_j(2i + 1)
    / M A(2i + 1), which is (2i + 1)^c t_r^(2i) at the column (D^c A)(y /
    t_r) / t_r: the Lagrange polynomials in u^2 at a distinct base.  The
    system's base is atilde, sorted."""
    weights = fixed_base_weights(atilde, factor)
    return _biorth(weights, factor, base=_base_values(atilde))


def _base_values(atilde) -> tuple:
    """The ascending values of the base atilde on its own scale, read from
    its ensembles._fixed_base record, which divides them by a power of two
    (exact unless that makes a value subnormal)."""
    rec = _fixed_base(atilde)
    return tuple(np.ldexp(rec.values, rec.exp).tolist())


def _unit_circle(m: int) -> np.ndarray:
    """The m trapezoid nodes exp(2 pi i k / m) on the unit circle."""
    return np.exp(1j * (2.0 * np.pi * np.arange(m) / m))


def _real_part(val, what: str):
    if not np.isfinite(val).all():
        raise ContourError(f"{what}: value not finite")
    imag = np.abs(val.imag)
    if np.any(imag > IMAG_TOL * np.maximum(np.abs(val.real), 1.0)):
        raise ContourError(
            f"{what}: imaginary residue {np.max(imag):.3e} above {IMAG_TOL:g}")
    return val.real


def kernel_poly(yprime, y, base: BiorthSystem, factor: WeightFunction):
    """Correlation kernel of one factor applied to a polynomial-ensemble base.

    K_n(y', y) = sum_j p_j(y') q_j(y) with p_j the chi transform under the
    factor of the base polynomial ptilde_j, summed by its residues, and q_j
    the Mellin convolution of the factor density with the base dual
    qtilde_j.  y' and y broadcast against each other (y positive); the
    result has their broadcast shape, a float for scalars.
    """
    q = [mellin_convolve(factor, w, y) for w in base.qtilde]
    return replace(base, factor=factor).kernel(yprime, y, q=q)


def kernel_fixed(yprime, y, atilde, factor: WeightFunction,
                 method: str = "contour",
                 system: BiorthSystem | None = None):
    """Correlation kernel of the fixed-base product ensemble.

    Sum-over-j form with the polynomials ptilde_j of biorth_fixed in
    (y'/z)^2: method "contour" averages them over the unit z-circle, around
    their one pole z = 0, and "series" sums their residues.  A system
    passed in must be biorth_fixed's for this base and factor object, or
    DomainError is raised.
    y' and y broadcast against each other; the result has their broadcast
    shape, a float for scalars.
    """
    if method not in ("series", "contour"):
        raise DomainError(f"unknown kernel method {method!r}")
    base = _base_values(atilde)
    if system is not None:
        if system.factor is not factor:
            raise DomainError("system was built for another factor")
        if system.base != base:
            raise DomainError("system was built for another base")
    sys = system if system is not None else biorth_fixed(base, factor)
    radius = 1.0 if method == "contour" else None
    return sys.kernel(yprime, y, radius=radius)


#: Contour frames kept by the double-contour memo.  A frame of an n-entry
#: base holds N_NODES x n N_NODES complex entries: 2 MB at n = 2.
FRAME_MEMO = 8


class _ContourFrame(NamedTuple):
    """The point-free part of the double-contour kernel of one base: the
    z'-nodes zp with num = prod_i (a_i^2 - zp^2), the pole-circle nodes z
    (circle after circle) with trapezoid weights wts = (2 rho_j / N_NODES)
    w / prod_i (a_i^2 - z^2) on the circle of a_j, and the Cauchy matrix
    1 / (zp^2 - z^2) of shape (zp.size, z.size); all read-only."""
    n: int
    zp: np.ndarray
    num: np.ndarray
    z: np.ndarray
    wts: np.ndarray
    cauchy: np.ndarray


@lru_cache(maxsize=FRAME_MEMO)
def _contour_frame(values: tuple) -> _ContourFrame:
    """The frame of the ascending base values; raises DomainError for a
    base whose record has coinciding values (lru_cache keeps no exception,
    so every call raises again)."""
    n = len(values)
    if _fixed_base(values).t.size < n:
        raise DomainError("fixed-base kernel requires a non-degenerate base")
    av = np.array(values)
    # each pole's nearest neighbour in the pole set {+/- a_j}: its
    # consecutive gaps, and for a_min the distance 2 a_min across the
    # origin
    gaps = np.diff(np.r_[-av[0], av, np.inf])
    rho = 0.25 * np.minimum(gaps[:-1], gaps[1:])
    w = _unit_circle(N_NODES)
    sq = av * av
    zp = 0.5 * (av[0] - rho[0]) * w
    z = (av[:, None] + rho[:, None] * w[None, :]).ravel()
    num = np.prod(sq[None, :] - (zp ** 2)[:, None], axis=1)
    den = np.prod(sq[None, :] - (z ** 2)[:, None], axis=1)
    wts = np.repeat(2.0 * rho / N_NODES, N_NODES) * np.tile(w, n) / den
    cauchy = 1.0 / ((zp ** 2)[:, None] - (z ** 2)[None, :])
    for arr in (zp, num, z, wts, cauchy):
        arr.setflags(write=False)
    return _ContourFrame(n, zp, num, z, wts, cauchy)


def kernel_fixed_contour(yprime, y, atilde, factor: WeightFunction):
    """Double-contour form of the fixed-base kernel.

    K_n(y', y) = (1/2 pi i) contour dz'/z' (1/pi i) contour dz
                 chi(y'/z') A(y/z) / (z'^2 - z^2)
                 * prod_i (a_i^2 - z'^2)/(a_i^2 - z^2),
    with z' on a circle around the origin and z on a union of small circles
    that encircle only the poles at a_1, ..., a_n.  Requires the factor
    density to be holomorphic near y / a_j; one that takes real arguments
    only (convolved_weight) raises DomainError.

    The nodes, weights and Cauchy matrix of the base come from
    an LRU memo of FRAME_MEMO frames (2 MB each at n = 2).  Per call A is
    evaluated on y's own points and chi on y''s own points, each y is
    contracted with the Cauchy matrix in one matrix-vector product and each
    (y', y) pair over the z'-nodes in one dot product, so a grid
    y'[:, None], y[None, :] costs memory in proportion to its own points,
    never to its broadcast shape times the nodes.  y' and y broadcast
    against each other; the result has their broadcast shape, a float for
    scalars, and equals per-point calls bit for bit.
    """
    frame = _contour_frame(_base_values(atilde))
    yprime = np.asarray(yprime, dtype=float)
    y = np.asarray(y, dtype=float)
    g = factor.density(y[..., None] / frame.z) * frame.wts
    inner = np.matmul(frame.cauchy, g[..., None])[..., 0]
    h = chi_poly(factor, yprime[..., None] / frame.zp, frame.n) * frame.num
    # N_NODES is a power of two, so the trapezoid mean divides exactly
    val = np.matmul(h[..., None, :], inner[..., :, None])[..., 0, 0] \
        / frame.zp.size
    val = _real_part(val, "double contour")
    return val if val.ndim else float(val)

