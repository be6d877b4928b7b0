"""Analytic joint singular-value densities.

Every ensemble here is a polynomial ensemble: one squared-variable
Vandermonde times a determinant of weight functions.  The module provides
the generic evaluator, the fixed-base and fully degenerate closed forms of
the factor-times-matrix product, the weight recursion for products of many
factors, and the corank-2 projection density that drives the dimension
recursion of the spherical module.

All densities are symmetric in the spectrum entries and integrate to 1
over the full unordered box; the density of the ascending spectrum is n!
times the value returned here.  Evaluators accept unsorted input.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from scipy import special

from .linalg import (DEGENERACY_RTOL, DomainError, SingularSpectrum,
                     vandermonde_sq)
from .mellin import (ConvolvedDensity, FactorizingWeight, WeightFunction)

__all__ = [
    "PolynomialEnsembleSpec", "FixedBaseSpec",
    "fixed_base_weights", "muttalib_borodin_weights", "degenerate_weights",
    "jpdf_fixed", "jpdf_degenerate", "jpdf_fact_poly",
    "product_weights", "convolve_ensemble", "corank2_jpdf",
]


@dataclass(frozen=True)
class PolynomialEnsembleSpec:
    """n weights plus the normalization C_n[w] from their Mellin bimoments.

    1 / C_n[w] = n! det[M w_c(2b - 1)], evaluated with the exact Mellin
    handles of the weights.
    """

    n: int
    weights: tuple
    label: str = "poly"

    def __post_init__(self):
        if len(self.weights) != self.n:
            raise DomainError("need exactly n weights")

    @property
    def bimoments(self) -> np.ndarray:
        """B[b, c] = M w_(c+1)(2b + 1) for b, c = 0, ..., n-1."""
        B = np.empty((self.n, self.n), dtype=complex)
        for b in range(self.n):
            for c in range(self.n):
                B[b, c] = self.weights[c].mellin(2 * b + 1)
        if np.max(np.abs(B.imag)) < 1e-12 * np.max(np.abs(B.real)):
            return B.real.copy()
        return B

    @property
    def norm_constant(self) -> float:
        inv = float(special.gamma(self.n + 1)) \
            * float(np.linalg.det(self.bimoments).real)
        if inv == 0.0:
            raise DomainError("weights are linearly dependent")
        return 1.0 / inv

    @property
    def support(self) -> tuple:
        lo = min(w.support[0] for w in self.weights)
        hi = max(w.support[1] for w in self.weights)
        return (lo, hi)

    def density(self, a) -> float:
        """C_n[w] Delta_n(a^2) det[w_b(a_c)]."""
        a = np.sort(np.asarray(a, dtype=float))
        if a.size != self.n:
            raise DomainError("spectrum length does not match ensemble size")
        W = np.empty((self.n, self.n))
        for b in range(self.n):
            W[b, :] = self.weights[b](a)
        val = self.norm_constant * vandermonde_sq(a) * float(np.linalg.det(W))
        return max(val, 0.0)


@dataclass(frozen=True)
class FixedBaseSpec:
    """Strictly positive, non-degenerate base spectrum a-tilde."""

    atilde: SingularSpectrum

    def __post_init__(self):
        at = self.atilde if isinstance(self.atilde, SingularSpectrum) \
            else SingularSpectrum.from_values(self.atilde)
        if np.any(at.values <= 0):
            raise DomainError("fixed base must be invertible (all a > 0)")
        object.__setattr__(self, "atilde", at)

    @property
    def n(self) -> int:
        return self.atilde.n

    @property
    def is_degenerate(self) -> bool:
        return self.atilde.is_degenerate


def _as_fixed(atilde) -> FixedBaseSpec:
    if isinstance(atilde, FixedBaseSpec):
        return atilde
    return FixedBaseSpec(atilde)


def _log_mellin_norm(factor: FactorizingWeight, n: int) -> float:
    """log prod_j M A(2j - 1) for j = 1..n (positive for a density)."""
    out = 0.0
    for j in range(1, n + 1):
        out += np.log(float(np.real(factor.mellin(2 * j - 1.0))))
    return out


def fixed_base_weights(atilde, factor: FactorizingWeight) -> tuple:
    """Weights w_c(a) = (1/atilde_c) A(a / atilde_c) of the fixed-base
    polynomial ensemble, with exact Mellin atilde_c^(s-1) M A(s)."""
    spec = _as_fixed(atilde)
    weights = []
    for ac in spec.atilde.values:
        ac = float(ac)

        def density(a, ac=ac):
            return factor.density(np.asarray(a) / ac) / ac

        def mellin(s, ac=ac):
            return ac ** (complex(s) - 1.0) * factor.mellin(s)

        lo, hi = factor.support
        weights.append(WeightFunction(
            density=density, mellin=mellin,
            support=(lo * ac, hi * ac), label=f"fixed[{ac:g}]"))
    return tuple(weights)


def degenerate_weights(factor: FactorizingWeight, n: int) -> tuple:
    """Weights w_c = (-a d/da)^(c-1) A with exact Mellin s^(c-1) M A(s)."""
    weights = []
    for c in range(1, n + 1):

        def density(a, m=c - 1):
            return factor.neg_xdx_pow(np.asarray(a, dtype=float), m)

        def mellin(s, m=c - 1):
            return complex(s) ** m * factor.mellin(s)

        weights.append(WeightFunction(
            density=density, mellin=mellin,
            support=factor.support, label=f"deg[{c}]"))
    return tuple(weights)


def muttalib_borodin_weights(nu: float, mu: float, n: int) -> tuple:
    """Weights w_b(x) = x^(2 nu + b - 1) (1 - x)^(2 mu + n + 1) on (0, 1).

    The associated polynomial ensemble is the theta = 2 Jacobi
    Muttalib-Borodin ensemble.
    """
    expo = 2.0 * mu + n + 1.0
    weights = []
    for b in range(1, n + 1):
        pw = 2.0 * nu + b - 1.0

        def density(x, pw=pw):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            ok = (x > 0) & (x < 1)
            out[ok] = np.exp(pw * np.log(x[ok]) + expo * np.log1p(-x[ok]))
            return out if out.ndim else float(out)

        def mellin(s, pw=pw):
            s = complex(s)
            return np.exp(special.loggamma(s + pw)
                          + special.loggamma(expo + 1.0)
                          - special.loggamma(s + pw + expo + 1.0))

        weights.append(WeightFunction(
            density=density, mellin=mellin, support=(0.0, 1.0),
            label=f"mb[{b}]"))
    return tuple(weights)


def _confluent_fixed_det(a: np.ndarray, atv: np.ndarray,
                         factor: FactorizingWeight) -> float:
    """det[(1/t_c) A(a_b / t_c)] / Delta_n(t^2) with coinciding t entries.

    Columns in the variable u = t^2 are replaced by divided differences;
    derivatives with respect to u are assembled from closed-form density
    derivatives through d/du = (1/(2t)) d/dt.
    """
    from .spherical import _hermite_divdiff, _snap_clusters
    n = a.size
    u_nodes, _ = _snap_clusters(atv ** 2, DEGENERACY_RTOL)
    M = np.empty((n, n))
    for b in range(n):
        ab = a[b]

        def value(u, ab=ab):
            t = np.sqrt(u)
            return float(factor.density(ab / t)) / t

        def taylor(u, m, ab=ab):
            # expand d^m/du^m of t^(-1) A(ab/t) over terms t^(-p) A^(k)(ab/t)
            terms = {(1, 0): 1.0}
            for _ in range(m):
                new = {}
                for (p, k), c in terms.items():
                    # d/du = (1/2) t^(-1) d/dt;
                    # d/dt [t^(-p) A^(k)(ab/t)] =
                    #   -p t^(-p-1) A^(k) - ab t^(-p-2) A^(k+1)
                    new[(p + 2, k)] = new.get((p + 2, k), 0.0) - 0.5 * p * c
                    new[(p + 3, k + 1)] = new.get((p + 3, k + 1), 0.0) \
                        - 0.5 * ab * c
                terms = new
            t = np.sqrt(u)
            out = 0.0
            for (p, k), c in terms.items():
                out += c * t ** (-p) * float(factor.density_deriv(ab / t, k))
            return out / float(factorial(m))

        M[b, :] = _hermite_divdiff(list(u_nodes), value, taylor, None)
    return float(np.linalg.det(M))


def jpdf_fixed(a, atilde, factor: FactorizingWeight) -> float:
    """Density of the spectrum of g x g^T for fixed x with spectrum atilde.

    p(a | at) = [1 / (n! prod_j M A(2j-1))] Delta(a^2)/Delta(at^2)
                * det[(1/at_c) A(a_b / at_c)].

    A partially degenerate atilde routes through confluent columns, a fully
    degenerate one through the scaled degenerate-limit density.
    """
    spec = _as_fixed(atilde)
    n = spec.n
    a = np.sort(np.asarray(a, dtype=float))
    if a.size != n:
        raise DomainError("spectrum length does not match base size")
    atv = spec.atilde.values
    gaps = atv[1:] / atv[:-1] - 1.0 if n > 1 else np.array([np.inf])
    if n > 1 and np.all(gaps <= DEGENERACY_RTOL):
        lam = float(np.mean(atv))
        return jpdf_degenerate(a / lam, factor) / lam ** n
    logc = -special.gammaln(n + 1) - _log_mellin_norm(factor, n)
    if spec.is_degenerate:
        det = _confluent_fixed_det(a, atv, factor)
        val = np.exp(logc) * vandermonde_sq(a) * det
    else:
        W = factor.density(a[:, None] / atv[None, :]) / atv[None, :]
        det = float(np.linalg.det(W))
        val = np.exp(logc) * vandermonde_sq(a) / vandermonde_sq(atv) * det
    return max(float(val), 0.0)


def jpdf_degenerate(a, factor: FactorizingWeight) -> float:
    """Limit atilde -> (1,...,1) of the fixed-base density.

    p(a) = [1 / (2^(n(n-1)/2) n! prod_j M A(2j-1))] Delta(a^2)
           * det[(-a_b d/da_b)^(c-1) A(a_b)].
    """
    a = np.sort(np.asarray(a, dtype=float))
    n = a.size
    if factor.smoothness < n - 1:
        raise DomainError("factor density is not smooth enough")
    logc = -(n * (n - 1) / 2.0) * np.log(2.0) - special.gammaln(n + 1) \
        - _log_mellin_norm(factor, n)
    W = np.empty((n, n))
    for c in range(n):
        W[:, c] = factor.neg_xdx_pow(a, c)
    val = np.exp(logc) * vandermonde_sq(a) * float(np.linalg.det(W))
    return max(float(val), 0.0)


def convolve_ensemble(base: PolynomialEnsembleSpec,
                      factor: FactorizingWeight) -> PolynomialEnsembleSpec:
    """Polynomial ensemble of the product: weights A (*) w_b with exact
    Mellin products."""
    weights = []
    for w in base.weights:
        conv = ConvolvedDensity(factor, w)

        def mellin(s, fa=factor, wb=w):
            return fa.mellin(s) * wb.mellin(s)

        weights.append(WeightFunction(
            density=conv, mellin=mellin, support=conv.support,
            label=f"{factor.kind}(*){w.label}"))
    return PolynomialEnsembleSpec(n=base.n, weights=tuple(weights),
                                  label=f"{factor.kind}(*){base.label}")


def product_weights(base, factors) -> PolynomialEnsembleSpec:
    """Iterated convolution of an ordered factor list onto a base ensemble.

    base may be a PolynomialEnsembleSpec or a tuple of weights.  The Mellin
    evaluators of the result are exact products of the factor Mellins with
    the base Mellins; only the densities need quadrature.
    """
    if not isinstance(base, PolynomialEnsembleSpec):
        base = PolynomialEnsembleSpec(n=len(base), weights=tuple(base))
    spec = base
    for factor in factors:
        spec = convolve_ensemble(spec, factor)
    return spec


#: The last (base, factor, convolved ensemble) of jpdf_fact_poly.  Holding
#: the pair keeps it alive, so matching it by identity is safe.
_FACT_CACHE: list = []


def jpdf_fact_poly(a, base: PolynomialEnsembleSpec,
                   factor: FactorizingWeight) -> float:
    """Density of the product of one factor with a polynomial-ensemble base.

    p(a) = [C_n[w] / prod_j M A(2j-1)] Delta(a^2) det[(A (*) w_b)(a_c)].
    The convolved weights of the last (base, factor) pair are cached.
    """
    if not any(b is base and f is factor for b, f, _ in _FACT_CACHE):
        _FACT_CACHE[:] = [(base, factor, convolve_ensemble(base, factor))]
    return _FACT_CACHE[0][2].density(a)


def corank2_jpdf(x, a) -> float:
    """Spectral density of the corank-2 projection of k (i a (x) tau_2) k^T.

    p(x | a) = [(2n-2)!/(n-1)!] Delta_(n-1)(x^2)/Delta_n(a^2)
               * det[row of ones; (a_k - x_j) Theta(a_k - x_j)].
    Leading axes of x (shape (..., n - 1)) are a batch of spectra.
    """
    a = SingularSpectrum.from_values(a) if not isinstance(a, SingularSpectrum) else a
    n = a.n
    if n < 2:
        raise DomainError("projection density needs n >= 2")
    if a.is_degenerate:
        raise DomainError("projection density requires distinct a")
    x = np.sort(np.atleast_1d(np.asarray(x, dtype=float)), axis=-1)
    if x.shape[-1] != n - 1:
        raise DomainError("projected spectrum must have length n - 1")
    av = a.values
    D = np.empty(x.shape[:-1] + (n, n))
    D[..., 0, :] = 1.0
    diff = av - x[..., :, None]
    D[..., 1:, :] = np.where(diff > 0.0, diff, 0.0)
    pref = float(factorial(2 * n - 2)) / float(factorial(n - 1))
    val = pref * vandermonde_sq(x) / vandermonde_sq(av) * np.linalg.det(D)
    val = np.where(np.any(x < 0, axis=-1), 0.0, np.maximum(val, 0.0))
    return val if val.ndim else float(val)
