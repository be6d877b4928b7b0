"""Analytic joint singular-value densities.

Every ensemble here is a polynomial ensemble: one squared-variable
Vandermonde times a determinant of weight functions.  The module provides
the generic evaluator, the fixed-base and fully degenerate closed forms of
the factor-times-matrix product, the weight recursion for products of many
factors, and the corank-2 projection density that drives the dimension
recursion of the spherical module.

All densities are symmetric in the spectrum entries and integrate to 1
over the full unordered box; the density of the ascending spectrum is n!
times the value returned here.  Evaluators take spectra of shape (..., n)
in any entry order, a stack of them at once, and return a float for a
single spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from scipy import special

from .linalg import (DomainError, SingularSpectrum, coincident,
                     confluent_alternant, derivative_terms, sorted_spectra,
                     vandermonde)
from .mellin import ConvolvedDensity, WeightFunction

__all__ = [
    "PolynomialEnsembleSpec", "FixedBaseSpec",
    "fixed_base_weights", "muttalib_borodin_weights", "degenerate_weights",
    "jpdf_fixed", "jpdf_degenerate",
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
        B = np.array([[w.mellin(2 * b + 1) for w in self.weights]
                      for b in range(self.n)], dtype=complex)
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

    def density(self, a):
        """C_n[w] Delta_n(a^2) det[w_b(a_c)] for spectra a of shape (..., n);
        a float for a single spectrum."""
        a = sorted_spectra(a, self.n)
        W = np.stack([w(a) for w in self.weights], axis=-2)
        return _clamped(self.norm_constant * vandermonde(a * a)
                        * np.linalg.det(W))


def _clamped(val):
    """A density stack clamped at 0; a float for a single value."""
    val = np.maximum(val, 0.0)
    return val if val.ndim else float(val)


@dataclass(frozen=True)
class FixedBaseSpec:
    """Strictly positive, non-degenerate base spectrum a-tilde."""

    atilde: SingularSpectrum

    def __post_init__(self):
        at = SingularSpectrum.from_values(self.atilde)
        if np.any(at.values <= 0):
            raise DomainError("fixed base must be invertible (all a > 0)")
        object.__setattr__(self, "atilde", at)

    @property
    def n(self) -> int:
        return self.atilde.n


def _as_fixed(atilde) -> FixedBaseSpec:
    if isinstance(atilde, FixedBaseSpec):
        return atilde
    return FixedBaseSpec(atilde)


def _log_mellin_norm(factor: WeightFunction, n: int) -> float:
    """log prod_j M A(2j - 1) for j = 1..n (positive for a density)."""
    return sum(np.log(float(np.real(factor.mellin(2 * j - 1.0))))
               for j in range(1, n + 1))


def fixed_base_weights(atilde, factor: WeightFunction) -> tuple:
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


def degenerate_weights(factor: WeightFunction, n: int) -> tuple:
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


def _confluent_fixed_det(a: np.ndarray, atv: np.ndarray, same: np.ndarray,
                         factor: WeightFunction) -> np.ndarray:
    """det[(1/t_c) A(a_b / t_c)] / Delta_n(t^2) with the coinciding t
    entries that same flags, for spectra a of shape (..., n).

    The nodes are u = t^2; derivatives with respect to u are assembled
    from closed-form density derivatives through d/du = (1/(2t)) d/dt.
    """
    a = a[..., :, None]

    def taylor(u, m):
        t = np.sqrt(u)
        if m == 0:
            return factor.density(a / t) / t
        # expand d^m/du^m of t^(-1) A(a/t) over terms t^(-p) A^(k)(a/t):
        # d/du = (1/2) t^(-1) d/dt and d/dt [t^(-p) A^(k)(a/t)] =
        # -p t^(-p-1) A^(k) - a t^(-p-2) A^(k+1)
        terms = derivative_terms(lambda p, k: (((p + 2, k), -0.5 * p),
                                               ((p + 3, k + 1), -0.5 * a)),
                                 (1, 0), m)
        out = 0.0
        for (p, k), c in terms.items():
            out = out + c * t ** (-p) * factor.density_deriv(a / t, k)
        return out / float(factorial(m))

    return confluent_alternant(atv * atv, same, taylor)


def jpdf_fixed(a, atilde, factor: WeightFunction):
    """Density of the spectrum of g x g^T for fixed x with spectrum atilde.

    p(a | at) = [1 / (n! prod_j M A(2j-1))] Delta(a^2)/Delta(at^2)
                * det[(1/at_c) A(a_b / at_c)].

    a has shape (..., n), a stack of spectra in any entry order; the result
    has shape a.shape[:-1], and is a float for a single spectrum.  A
    partially degenerate atilde routes through confluent columns, a fully
    degenerate one through the scaled degenerate-limit density.
    """
    spec = _as_fixed(atilde)
    n = spec.n
    a = sorted_spectra(a, n)
    atv = spec.atilde.values
    same = coincident(atv)
    if same.size and same.all():
        lam = float(np.mean(atv))
        return jpdf_degenerate(a / lam, factor) / lam ** n
    logc = -special.gammaln(n + 1) - _log_mellin_norm(factor, n)
    if same.any():
        det = _confluent_fixed_det(a, atv, same, factor)
        val = np.exp(logc) * vandermonde(a * a) * det
    else:
        W = factor.density(a[..., :, None] / atv) / atv
        det = np.linalg.det(W)
        val = np.exp(logc) * vandermonde(a * a) / vandermonde(atv * atv) * det
    return _clamped(val)


def jpdf_degenerate(a, factor: WeightFunction):
    """Limit atilde -> (1,...,1) of the fixed-base density.

    p(a) = [1 / (2^(n(n-1)/2) n! prod_j M A(2j-1))] Delta(a^2)
           * det[(-a_b d/da_b)^(c-1) A(a_b)].

    a has shape (..., n), a stack of spectra in any entry order; the result
    has shape a.shape[:-1], and is a float for a single spectrum.  For
    n >= 2 the factor needs closed-form derivatives; one without them
    raises DomainError.
    """
    a = sorted_spectra(a)
    n = a.shape[-1]
    logc = -(n * (n - 1) / 2.0) * np.log(2.0) - special.gammaln(n + 1) \
        - _log_mellin_norm(factor, n)
    W = np.stack([factor.neg_xdx_pow(a, c) for c in range(n)], axis=-1)
    return _clamped(np.exp(logc) * vandermonde(a * a) * np.linalg.det(W))


def convolve_ensemble(base: PolynomialEnsembleSpec,
                      factor: WeightFunction) -> PolynomialEnsembleSpec:
    """Polynomial ensemble of the product: weights A (*) w_b with exact
    Mellin products."""
    weights = []
    for w in base.weights:
        conv = ConvolvedDensity(factor, w)
        weights.append(WeightFunction(
            density=conv, mellin=conv.mellin, support=conv.support,
            label=f"{factor.label}(*){w.label}"))
    return PolynomialEnsembleSpec(n=base.n, weights=tuple(weights),
                                  label=f"{factor.label}(*){base.label}")


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


def corank2_jpdf(x, a):
    """Spectral density of the corank-2 projection of k (i a (x) tau_2) k^T.

    p(x | a) = [(2n-2)!/(n-1)!] Delta_(n-1)(x^2)/Delta_n(a^2)
               * det[row of ones; (a_k - x_j) Theta(a_k - x_j)].
    Leading axes of x (shape (..., n - 1)) are a batch of spectra.
    """
    a = SingularSpectrum.from_values(a)
    n = a.n
    if n < 2:
        raise DomainError("projection density needs n >= 2")
    if a.is_degenerate:
        raise DomainError("projection density requires distinct a")
    x = sorted_spectra(x, n - 1)
    av = a.values
    D = np.empty(x.shape[:-1] + (n, n))
    D[..., 0, :] = 1.0
    diff = av - x[..., :, None]
    D[..., 1:, :] = np.where(diff > 0.0, diff, 0.0)
    pref = float(factorial(2 * n - 2)) / float(factorial(n - 1))
    val = pref * vandermonde(x * x) / vandermonde(av * av) * np.linalg.det(D)
    return _clamped(np.where(np.any(x < 0, axis=-1), 0.0, val))
