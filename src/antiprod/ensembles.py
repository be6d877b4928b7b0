"""Analytic joint singular-value densities.

Every ensemble here is a polynomial ensemble: one squared-variable
Vandermonde times a determinant of weight functions.  The module provides
the generic evaluator, the fixed-base and fully degenerate closed forms of
the factor-times-matrix product, a factor convolved onto a polynomial
ensemble, and the corank-2 projection density that drives the dimension
recursion of the spherical module.

All densities are symmetric in the spectrum entries and integrate to 1
over the full unordered box; the density of the ascending spectrum is n!
times the value returned here.  Evaluators take spectra of shape (..., n)
in any entry order, a stack of them at once, and return a float for a
single spectrum; a NaN or inf density raises DomainError.

LRU memos of at most MEMO entries keep what depends on the base or the
factor alone: per tuple of base values one record of the sorted values
divided by the 2^e with max / 2^e in [0.5, 1), their coincidences and
Delta of their squares; per (weight, n) log prod_j M A(2j - 1) and the
log normalization of the degenerate-limit density.  The
densities evaluate on it at spectra divided by 2^e and scale back by a
power of 2^e: exact, and finite at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial
from typing import NamedTuple

import numpy as np
from scipy import special

from .linalg import (DomainError, SingularSpectrum, coincident,
                     confluent_alternant, derivative_terms, det,
                     sorted_spectra, vandermonde)
from .mellin import WeightFunction, convolved_weight

__all__ = [
    "PolynomialEnsembleSpec",
    "fixed_base_weights", "muttalib_borodin_weights",
    "jpdf_fixed", "jpdf_degenerate",
    "convolve_ensemble", "corank2_jpdf",
]


@dataclass(frozen=True)
class PolynomialEnsembleSpec:
    """n weights plus the normalization C_n[w] from their Mellin bimoments.

    1 / C_n[w] = n! det[M w_c(2b - 1)], evaluated with the exact Mellin
    handles of the weights.
    """

    n: int
    weights: tuple

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

    @cached_property
    def norm_constant(self) -> float:
        inv = float(special.gamma(self.n + 1)) \
            * float(det(self.bimoments).real)
        if inv == 0.0:
            raise DomainError("weights are linearly dependent")
        return 1.0 / inv

    def density(self, a):
        """C_n[w] Delta_n(a^2) det[w_b(a_c)] for spectra a of shape (..., n);
        a float for a single spectrum."""
        a = sorted_spectra(a, self.n)
        W = np.stack([w(a) for w in self.weights], axis=-2)
        return _clamped(self.norm_constant * vandermonde(a * a)
                        * det(W), "PolynomialEnsembleSpec.density")


def _clamped(val, name: str):
    """A density stack clamped at 0, a float for one value; NaN or inf
    raises DomainError naming the density."""
    if not np.isfinite(val).all():
        raise DomainError(f"{name}: density is not finite")
    val = np.maximum(val, 0.0)
    return val if val.ndim else float(val)


#: Entries kept by each memo of base records and factor norms.
MEMO = 128


class _FixedBase(NamedTuple):
    """A base / 2^exp: read-only ascending values, flags of coinciding
    neighbours, route "distinct", "partial" or "full", Delta(values^2)."""
    values: np.ndarray
    exp: int
    same: np.ndarray
    route: str
    vdm: float


def _fixed_base(atilde) -> _FixedBase:
    """The record of the base atilde, in any entry order, divided by the
    power of two that brings its maximum into [0.5, 1).  Raises
    DomainError unless atilde is a nonempty vector of finite values > 0."""
    if isinstance(atilde, SingularSpectrum):
        atilde = atilde.values
    v = np.asarray(atilde, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DomainError("base must be a nonempty vector")
    return _base_record(tuple(v.tolist()))


@lru_cache(maxsize=MEMO)
def _base_record(values: tuple) -> _FixedBase:
    v = np.sort(values)
    if not (np.isfinite(v).all() and v[0] > 0):
        raise DomainError("base must be finite and invertible (all a > 0)")
    exp = int(np.frexp(v[-1])[1])
    v = np.ldexp(v, -exp)
    same = coincident(v)
    v.setflags(write=False)
    same.setflags(write=False)
    route = "distinct" if not same.any() else \
        "full" if same.all() else "partial"
    return _FixedBase(v, exp, same, route, float(vandermonde(v * v)))


@lru_cache(maxsize=MEMO)
def _log_mellin_norm(factor: WeightFunction, n: int) -> float:
    """log prod_j M A(2j - 1) for j = 1..n (positive for a density)."""
    return sum(np.log(float(np.real(factor.mellin(2 * j - 1.0))))
               for j in range(1, n + 1))


@lru_cache(maxsize=MEMO)
def _log_degenerate_norm(factor: WeightFunction, n: int) -> float:
    """log of 1 / (2^(n(n-1)/2) n! prod_(j<n) j! prod_j M A(2j - 1)); the
    log of prod_(j<n) j! is exactly 0.0 at n <= 2."""
    superfactorial = np.prod([float(factorial(j)) for j in range(n)])
    return -(n * (n - 1) / 2.0) * np.log(2.0) - special.gammaln(n + 1) \
        - _log_mellin_norm(factor, n) - np.log(superfactorial)


def fixed_base_weights(atilde, factor: WeightFunction) -> tuple:
    """Weights w_c(a) = (1/atilde_c) A(a / atilde_c) of the fixed-base
    polynomial ensemble, with exact Mellin atilde_c^(s-1) M A(s)."""
    base = _fixed_base(atilde)
    weights = []
    for ac in np.ldexp(base.values, base.exp).tolist():

        def density(a, ac=ac):
            return factor.density(np.asarray(a) / ac) / ac

        def mellin(s, ac=ac):
            return ac ** (np.asarray(s, complex) - 1.0) * factor.mellin(s)

        lo, hi = factor.support
        weights.append(WeightFunction(density=density, mellin=mellin,
                                      support=(lo * ac, hi * ac),
                                      edge=factor.edge))
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
            s = np.asarray(s, dtype=complex)
            return np.exp(special.loggamma(s + pw)
                          + special.loggamma(expo + 1.0)
                          - special.loggamma(s + pw + expo + 1.0))

        weights.append(WeightFunction(density=density, mellin=mellin,
                                      support=(0.0, 1.0), edge=-pw))
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
    atv, e, same, route, vdm = _fixed_base(atilde)
    n = atv.size
    a = np.ldexp(sorted_spectra(a, n), -e)
    if route == "full":
        lam = float(np.mean(atv))
        val = jpdf_degenerate(a / lam, factor) / lam ** n
    else:
        logc = -special.gammaln(n + 1) - _log_mellin_norm(factor, n)
        if route == "partial":
            val = np.exp(logc) * vandermonde(a * a) \
                * _confluent_fixed_det(a, atv, same, factor)
        else:
            W = factor.density(a[..., :, None] / atv) / atv
            val = np.exp(logc) * vandermonde(a * a) / vdm * det(W)
    return _clamped(np.ldexp(val, -n * e), "jpdf_fixed")


def jpdf_degenerate(a, factor: WeightFunction):
    """Limit atilde -> (1,...,1) of the fixed-base density.

    p(a) = [1 / (2^(n(n-1)/2) n! prod_(j<n) j! prod_j M A(2j-1))]
           * Delta(a^2) det[(-a_b d/da_b)^(c-1) A(a_b)].

    The confluent columns of the limit are (1/(c-1)!) d^(c-1)/du^(c-1)
    of t^(-1) A(a/t) at u = t^2 = 1, which equal
    (-a d/da)^(c-1) A(a) / (2^(c-1) (c-1)!) up to earlier columns.

    a has shape (..., n), a stack of spectra in any entry order; the result
    has shape a.shape[:-1], and is a float for a single spectrum.  For
    n >= 2 the factor needs closed-form derivatives; one without them
    raises DomainError.
    """
    a = sorted_spectra(a)
    n = a.shape[-1]
    logc = _log_degenerate_norm(factor, n)
    W = np.stack([factor.neg_xdx_pow(a, c) for c in range(n)], axis=-1)
    return _clamped(np.exp(logc) * vandermonde(a * a) * det(W),
                    "jpdf_degenerate")


def convolve_ensemble(base: PolynomialEnsembleSpec,
                      factor: WeightFunction) -> PolynomialEnsembleSpec:
    """Polynomial ensemble of the product: weights A (*) w_b with exact
    Mellin products."""
    return PolynomialEnsembleSpec(
        n=base.n, weights=tuple(convolved_weight(factor, w)
                                for w in base.weights))


def corank2_jpdf(x, a):
    """Spectral density of the corank-2 projection of k (i a (x) tau_2) k^T.

    p(x | a) = [(2n-2)!/(n-1)!] Delta_(n-1)(x^2)/Delta_n(a^2)
               * det[row of ones; (a_k - x_j) Theta(a_k - x_j)].
    Leading axes of x (shape (..., n - 1)) are a batch of spectra.  The
    density is homogeneous of degree -(n - 1) in (x, a).
    """
    av, e, _, route, vdm = _fixed_base(a)
    n = av.size
    if n < 2:
        raise DomainError("projection density needs n >= 2")
    if route != "distinct":
        raise DomainError("projection density requires distinct a")
    x = np.ldexp(sorted_spectra(x, n - 1), -e)
    D = np.empty(x.shape[:-1] + (n, n))
    D[..., 0, :] = 1.0
    diff = av - x[..., :, None]
    D[..., 1:, :] = np.where(diff > 0.0, diff, 0.0)
    pref = float(factorial(2 * n - 2)) / float(factorial(n - 1))
    val = pref * vandermonde(x * x) / vdm * det(D)
    return _clamped(np.ldexp(np.where(np.any(x < 0, axis=-1), 0.0, val),
                             -(n - 1) * e), "corank2_jpdf")
