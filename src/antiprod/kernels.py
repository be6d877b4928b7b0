"""Bi-orthogonal systems and determinantal correlation kernels.

The singular-value densities of ensembles.py are determinantal; this module
constructs the underlying bi-orthonormal pairs {p_j, q_j} and evaluates the
correlation kernel both as the finite series sum_j p_j(y') q_j(y) and
through its contour-integral representations.  Contour integrals over
circles are discretized by the trapezoid rule, which is spectrally accurate
for the meromorphic-in-z^2 integrands that occur here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .linalg import DomainError, SingularSpectrum
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

    def _p_coeffs(self) -> np.ndarray:
        """Coefficients of the final p_j: the chi-contour transform divides
        coefficient i of ptilde_j by M A(2i + 1) when a factor is attached."""
        if self.factor is None:
            return self.ptilde_coeffs
        minv = np.array([1.0 / float(np.real(self.factor.mellin(2 * i + 1)))
                         for i in range(self.n)])
        return self.ptilde_coeffs * minv[None, :]

    def p(self, j: int, y):
        """p_j(y), an even polynomial of degree <= 2(n-1)."""
        u = np.asarray(y, dtype=float) ** 2
        val = npoly.polyval(u, self._p_coeffs()[j])
        return val if np.ndim(val) else float(val)

    def q(self, j: int, y):
        return self.qtilde[j].density(y)

    def diagonal(self, y):
        """Kernel diagonal K_n(y, y) = sum_j p_j(y) q_j(y), vectorized over y.

        K_n(y, y) / n is the density of one pooled spectrum entry of the
        determinantal ensemble (Borodin, Nucl. Phys. B 536, 1999).
        """
        y = np.asarray(y, dtype=float)
        # float_power squares through libm pow, as the scalar y' ** 2 of
        # kernel_fixed does, so both agree bit for bit (y * y can differ)
        u = np.float_power(y, 2)
        pc = self._p_coeffs()
        out = 0.0
        for j in range(self.n):
            out = out + npoly.polyval(u, pc[j]) * self.q(j, y)
        return out

    def gram_matrix(self) -> np.ndarray:
        """int p_j(y) q_k(y) dy from the exact Mellin handles of qtilde."""
        pc = self._p_coeffs()
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


def gram_biorth(base: PolynomialEnsembleSpec,
                mode: str = "triangular") -> BiorthSystem:
    """Bi-orthonormal system of a polynomial ensemble from its bimoments.

    mode 'triangular' builds p_j even of degree 2j (Gram-Schmidt order) and
    re-expresses the duals q_j in the matching basis; mode 'dual_weights'
    keeps q_j = w_(j+1) raw and puts the full inverse-bimoment coefficients
    into the p_j.  Both modes give the same kernel.
    """
    n = base.n
    B = np.real(base.bimoments)
    cond = float(np.linalg.cond(B))
    if cond > COND_MAX:
        raise DomainError(
            f"bimoment matrix condition number {cond:.2e} exceeds {COND_MAX:g}")
    if mode == "dual_weights":
        D = np.linalg.inv(B)
        C = np.eye(n)
    elif mode == "triangular":
        D = np.zeros((n, n))
        for j in range(n):
            sub = B[: j + 1, : j + 1].T
            e = np.zeros(j + 1)
            e[j] = 1.0
            D[j, : j + 1] = np.linalg.solve(sub, e)
        C = np.linalg.inv(D @ B).T
    else:
        raise DomainError(f"unknown gram_biorth mode {mode!r}")
    qtilde = tuple(
        _combo_weight(C[j], base.weights, label=f"q[{j}]") for j in range(n))
    sys = BiorthSystem(n=n, ptilde_coeffs=D, qtilde=qtilde,
                       label=f"{mode}:{base.label}")
    G = sys.gram_matrix()
    off = float(np.max(np.abs(G - np.eye(n))))
    return BiorthSystem(n=n, ptilde_coeffs=D, qtilde=qtilde,
                        label=sys.label, gram_offdiag=off)


def _fixed_lagrange_coeffs(atv: np.ndarray) -> np.ndarray:
    """Row j: coefficients in u^2 of prod_{i != j}(a_i^2 - u^2)/(a_i^2 - a_j^2)."""
    n = atv.size
    sq = atv * atv
    D = np.empty((n, n))
    for j in range(n):
        poly = np.array([1.0])
        denom = 1.0
        for i in range(n):
            if i == j:
                continue
            poly = npoly.polymul(poly, [sq[i], -1.0])
            denom *= sq[i] - sq[j]
        row = np.zeros(n)
        row[: poly.size] = poly / denom
        D[j] = row
    return D


def biorth_fixed(atilde, factor: WeightFunction) -> BiorthSystem:
    """Bi-orthonormal system of the fixed-base product ensemble.

    p_j(y') = contour average of chi(z) prod_{i!=j}(a_i^2 - (y'/z)^2) /
    (a_i^2 - a_j^2), reduced here to its exact residue form; q_j(y) =
    (1/a_j) A(y / a_j).
    """
    at = atilde if isinstance(atilde, SingularSpectrum) \
        else SingularSpectrum.from_values(atilde)
    if at.is_degenerate:
        raise DomainError("fixed-base kernel requires a non-degenerate base")
    n = at.n
    qtilde = fixed_base_weights(at, factor)     # rejects a base value <= 0
    D = _fixed_lagrange_coeffs(at.values)
    sys = BiorthSystem(n=n, ptilde_coeffs=D, qtilde=qtilde,
                       factor=factor, label="fixed")
    off = float(np.max(np.abs(sys.gram_matrix() - np.eye(n))))
    return BiorthSystem(n=n, ptilde_coeffs=D, qtilde=qtilde,
                        factor=factor, label="fixed", gram_offdiag=off)


def _circle_average(f, radius: float, n_nodes: int):
    """(1/2 pi i) contour integral dz/z f(z) = mean of f over the circle."""
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    z = radius * np.exp(1j * theta)
    return np.mean(f(z))


def _real_part(val: complex, what: str) -> float:
    if abs(val.imag) > IMAG_TOL * max(abs(val.real), 1.0):
        raise ContourError(
            f"{what}: imaginary residue {val.imag:.3e} above {IMAG_TOL:g}")
    return float(val.real)


def _contour_p(sys: BiorthSystem, factor: WeightFunction, j: int,
               yprime: float, radius: float, n_nodes: int) -> float:
    """p_j(y') as the trapezoid z-circle average of chi(z) ptilde_j(y'/z)."""
    n = sys.n

    def f(z):
        u = (yprime / z) ** 2
        return chi_poly(factor, z, 0, n - 1) \
            * npoly.polyval(u, sys.ptilde_coeffs[j])

    val = _circle_average(f, radius, n_nodes)
    return _real_part(complex(val), "z-contour")


def _series_p(sys: BiorthSystem, factor: WeightFunction, j: int,
              yprime: float) -> float:
    minv = np.array([1.0 / float(np.real(factor.mellin(2 * i + 1)))
                     for i in range(sys.n)])
    return float(npoly.polyval(yprime ** 2, sys.ptilde_coeffs[j] * minv))


def _p(sys, factor, j, yprime, radius, contour, method) -> float:
    if method == "contour":
        return _contour_p(sys, factor, j, yprime, radius, contour.n_nodes)
    if method == "series":
        return _series_p(sys, factor, j, yprime)
    raise DomainError(f"unknown kernel method {method!r}")


def kernel_poly(yprime: float, y: float, base: BiorthSystem,
                factor: WeightFunction,
                contour: ContourSpec | None = None,
                method: str = "contour") -> float:
    """Correlation kernel of one factor applied to a polynomial-ensemble base.

    K_n(y', y) = sum_j p_j(y') q_j(y) with p_j the chi-contour transform of
    the base polynomial ptilde_j and q_j the Mellin convolution of the
    factor density with the base dual qtilde_j.  method 'contour' evaluates
    the z-integral by trapezoid circle average, 'series' by its residues.
    """
    if contour is None:
        contour = ContourSpec()
    radius = contour.radius if contour.radius is not None else 1.0
    out = 0.0
    for j in range(base.n):
        out += _p(base, factor, j, yprime, radius, contour, method) \
            * mellin_convolve(factor, base.qtilde[j], y)
    return out


def kernel_fixed(yprime: float, y: float, atilde, factor: WeightFunction,
                 contour: ContourSpec | None = None,
                 method: str = "contour",
                 system: BiorthSystem | None = None) -> float:
    """Correlation kernel of the fixed-base product ensemble.

    Sum-over-j form with the Lagrange-type polynomials in (y'/z)^2; the
    z-contour encircles only the origin, default radius 0.5 min_j a_j.
    """
    at = atilde if isinstance(atilde, SingularSpectrum) \
        else SingularSpectrum.from_values(atilde)
    sys = system if system is not None else biorth_fixed(at, factor)
    if contour is None:
        contour = ContourSpec()
    radius = contour.radius if contour.radius is not None \
        else 0.5 * float(at.values[0])
    out = 0.0
    for j in range(sys.n):
        out += _p(sys, factor, j, yprime, radius, contour, method) \
            * sys.qtilde[j].density(y)
    return out


def kernel_fixed_contour(yprime: float, y: float, atilde,
                         factor: WeightFunction,
                         contour: ContourSpec | None = None) -> float:
    """Double-contour form of the fixed-base kernel.

    K_n(y', y) = (1/2 pi i) contour dz'/z' (1/pi i) contour dz
                 chi(y'/z') A(y/z) / (z'^2 - z^2)
                 * prod_i (a_i^2 - z'^2)/(a_i^2 - z^2),
    with z' on a circle around the origin and z on a union of small circles
    that encircle only the poles at a_1, ..., a_n.  Requires the factor
    density to be holomorphic near y / a_j.
    """
    at = atilde if isinstance(atilde, SingularSpectrum) \
        else SingularSpectrum.from_values(atilde)
    if at.is_degenerate:
        raise DomainError("fixed-base kernel requires a non-degenerate base")
    av = at.values
    n = at.n
    if contour is None:
        contour = ContourSpec()
    # smallest spacing among the pole set {+/- a_j}: consecutive gaps and
    # the distance 2 a_min across the origin
    gaps = [2.0 * av[0]] + list(np.diff(av))
    rho = contour.rho if contour.rho is not None else 0.25 * min(gaps)
    rprime = contour.radius if contour.radius is not None \
        else 0.5 * (av[0] - rho)
    if rprime <= 0 or rprime + rho >= av[0]:
        raise ContourError("z'-circle collides with the pole circles")
    nz = contour.nodes_per_circle
    theta = 2.0 * np.pi * np.arange(nz) / nz
    zpole = av[:, None] + rho * np.exp(1j * theta)[None, :]
    phi = 2.0 * np.pi * np.arange(contour.n_nodes) / contour.n_nodes
    zp = rprime * np.exp(1j * phi)
    sq = av * av
    chi_vals = chi_poly(factor, yprime / zp, 0, n - 1)
    num = np.prod(sq[None, :] - (zp ** 2)[:, None], axis=1)
    a_vals = factor.density(y / zpole)
    den = np.prod(sq[None, None, :] - (zpole ** 2)[..., None], axis=-1)
    frac = 1.0 / ((zp ** 2)[:, None, None] - (zpole ** 2)[None, :, :])
    integrand = (chi_vals * num)[:, None, None] \
        * (a_vals / den * np.exp(1j * theta)[None, :])[None, :, :] * frac
    inner = (2.0 * rho / nz) * np.sum(integrand, axis=(1, 2))
    val = np.mean(inner)
    return _real_part(complex(val), "double contour")


def correlation_Rk(points, kernel) -> float:
    """R_k(y_1, ..., y_k) = det[K(y_l, y_m)] for a kernel handle K(y', y)."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    k = pts.size
    M = np.empty((k, k))
    for l in range(k):
        for m in range(k):
            M[l, m] = kernel(pts[l], pts[m])
    return float(np.linalg.det(M))
