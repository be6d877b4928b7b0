"""Analytic joint singular-value densities.

Every ensemble here is a polynomial ensemble: one squared-variable
Vandermonde times a determinant of weight functions.  The module provides
the generic evaluator, the fixed-base density of the factor-times-matrix
product at any base, a factor convolved onto a polynomial ensemble, and
the corank-2 projection density that drives the dimension recursion of
the spherical module.

The fixed base has one column rule: a run of k coinciding base values t
(one run of n at the base of ones, runs of one at a distinct base) gives
the columns (D^c A)(a / t) / t, c < k, D = -x d/dx, with Mellin
transforms t^(s-1) s^c M A(s) (Kieburg & Koesters, RMTA 5 (2016)).
Every D^c A is read from the factor's one jet, WeightFunction.neg_xdx,
closed-form for the catalogued factors; a factor without one (a fold)
takes distinct bases only.  jpdf_fixed, jpdf_degenerate,
fixed_base_weights and kernels.biorth_fixed read the runs from one base
record.

All densities are symmetric in the spectrum entries and integrate to 1
over the full unordered box; the density of the ascending spectrum is n!
times the value returned here.  Evaluators take spectra of shape (..., n)
in any entry order, a stack of them at once, and return a float for a
single spectrum; a NaN or inf density raises DomainError.

LRU memos of at most MEMO entries keep what depends on the base or the
factor alone: per tuple of base values one record of the sorted values
divided by the 2^e with max / 2^e in [0.5, 1), their runs and den,
which stands for Delta of their squares; per (weight, n), a
weight keyed by all its fields and so by its Mellin handle, the final
float 1 / (n! prod_j M A(2j - 1)).  After the first call per base and
(weight, n), a call evaluates neither n! nor a Mellin transform.  The
densities evaluate on the base record at spectra divided by 2^e and scale
back by a power of 2^e: exact, and finite at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, inf, isfinite, ldexp
from typing import NamedTuple

import numpy as np
from scipy import special

from .linalg import (DomainError, SingularSpectrum, coincident, det,
                     sorted_spectra, vandermonde)
from .mellin import MEMO, WeightFunction, convolved_weight, mellin_table

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
        """B[b, c] = M w_(c+1)(2b + 1), b, c < n, from one mellin_table."""
        return _odd_moments(self.weights, self.n)

    @cached_property
    def norm_constant(self) -> float:
        inv = float(special.gamma(self.n + 1)) * float(det(self.bimoments))
        if inv == 0.0:
            raise DomainError("weights are linearly dependent")
        return 1.0 / inv

    def density(self, a):
        """C_n[w] Delta_n(a^2) det[w_b(a_c)] for spectra a of shape (..., n);
        a float for a single spectrum."""
        a = sorted_spectra(a, self.n)
        W = np.stack([w(a) for w in self.weights], axis=-2)
        return _det_density(a, det(W), self.norm_constant, 1.0, 0,
                            "PolynomialEnsembleSpec.density")


def _odd_moments(weights, n: int) -> np.ndarray:
    """M[i, k] = M w_k(2i + 1), i < n: one mellin_table, real for weights
    on the half line; a value that is not finite raises DomainError."""
    return mellin_table(weights, 2.0 * np.arange(n) + 1.0).real


def _det_density(a, d, norm, den, e: int, name: str):
    """norm Delta(a^2) / den * d at spectra a / 2^e of shape (..., m), times
    2^(-m e) and clamped at 0, a float for one spectrum.  d = 0 enters
    Delta(a^2) as zeros, so a huge entry (a row of zeros) reads 0 and an
    infinite one NaN; NaN or inf raises DomainError naming name.  One
    spectrum (a 0-d d) takes the same operations in Python floats."""
    m = a.shape[-1]
    if np.ndim(d):
        a = a * (d != 0.0)[..., None]
        val = np.ldexp(norm * vandermonde(a * a) / den * d, -m * e)
        if np.isfinite(val).all():
            return np.maximum(val, 0.0)
    else:
        d = float(d)
        if d == 0.0:
            a = a * 0.0
        try:
            val = ldexp(norm * float(vandermonde(a * a)) / den * d, -m * e)
        except OverflowError:
            val = inf
        if isfinite(val):
            return max(0.0, val)    # 0.0 at -0.0, as np.maximum gives
    raise DomainError(f"{name}: density is not finite")


class _FixedBase(NamedTuple):
    """A base / 2^exp: read-only ascending values, the runs of coinciding
    values snapped to their means t, the (run r, order c, t_r) of each
    column, c < k_r with k_r the size of run r, and den = prod_(i<j in
    different runs) (u_j - u_i) prod_r prod_(c<k_r) c! (2 u_r)^c, u = t^2,
    which is Delta(values^2) at a distinct base."""
    values: np.ndarray
    exp: int
    t: np.ndarray
    cols: tuple
    den: float


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
    start = np.flatnonzero(np.r_[True, ~coincident(v)])
    k = np.diff(np.r_[start, v.size])
    t = np.add.reduceat(v, start) / k
    run = np.repeat(np.arange(t.size), k)
    order = np.arange(v.size) - start[run]
    tc = t[run]
    u = tc * tc
    den = 1.0
    for i in range(v.size - 1):
        # linalg.vandermonde's order, with the pairs inside a run left out
        d = u[i + 1:] - u[i]
        den = den * np.multiply.reduce(np.where(d == 0.0, 1.0, d))
    for c, uc in zip(order.tolist(), u):
        den = den * float(factorial(c)) * (2.0 * uc) ** c
    for arr in (v, t, run, order, tc):
        arr.setflags(write=False)
    return _FixedBase(v, exp, t, (run, order, tc), float(den))


@lru_cache(maxsize=MEMO)
def _fixed_norm(factor: WeightFunction, n: int) -> float:
    """1 / (n! prod_j M A(2j - 1)), the constant of jpdf_fixed, through
    its log."""
    log_mellin = sum(np.log(_odd_moments((factor,), n)[:, 0]).tolist())
    return float(np.exp(-special.gammaln(n + 1) - log_mellin))


def fixed_base_weights(atilde, factor: WeightFunction) -> tuple:
    """Weights of the fixed-base polynomial ensemble, one per column (r, c)
    of the base record: w(a) = (D^c A)(a / t_r) / t_r with D = -x d/dx,
    which is (1/t_r) A(a / t_r) at c = 0, and exact Mellin transform
    t_r^(s-1) s^c M A(s)."""
    base = _fixed_base(atilde)
    _, order, tc = base.cols
    lo, hi = factor.support
    weights = []
    for tr, c in zip(np.ldexp(tc, base.exp).tolist(), order.tolist()):

        def density(a, tr=tr, c=c):
            x = np.asarray(a) / tr
            return (factor.density(x) if c == 0
                    else factor.neg_xdx(x, c)[..., c]) / tr

        def mellin(s, tr=tr, c=c):
            s = np.asarray(s, complex)
            return tr ** (s - 1.0) * s ** c * factor.mellin(s)

        weights.append(WeightFunction(density=density, mellin=mellin,
                                      support=(lo * tr, hi * tr),
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


def _fixed_density(a, base: _FixedBase, factor: WeightFunction, name: str):
    """jpdf_fixed of the spectra a, each sorted ascending, on the base
    record, naming name in errors: _fixed_norm Delta(a^2) det W / den on
    the base's scale, W[b, (r, c)] = (D^c A)(a_b / t_r) / t_r from the
    factor's one (-a d/da) jet, or from the density alone at a distinct
    base."""
    n, e, t = a.shape[-1], base.exp, base.t
    a = np.ldexp(a, -e)
    x = a[..., :, None] / t
    if t.size == n:
        W = factor.density(x) / t
    else:
        run, order, tc = base.cols
        cols = factor.neg_xdx(x, max(order.tolist()))
        # one run (the base of ones) reads its columns as a slice
        W = (cols[..., 0, :] if t.size == 1 else cols[..., run, order]) / tc
    return _det_density(a, det(W), _fixed_norm(factor, n), base.den, e,
                        name)


def jpdf_fixed(a, atilde, factor: WeightFunction):
    """Density of the spectrum of g x g^T for fixed x with spectrum atilde.

    p(a | at) = [1 / (n! prod_j M A(2j-1))] Delta(a^2)/Delta(at^2)
                * det[(1/at_c) A(a_b / at_c)].

    A run of k coinciding base values t takes the confluent limit: columns
    (D^c A)(a_b / t) / t for c < k, D = -x d/dx, and Delta(at^2) becomes
    the record's den, which carries prod_(c<k) c! (2 t^2)^c.  a has shape
    (..., n), a stack of spectra in any entry order; the result has shape
    a.shape[:-1], and is a float for a single spectrum.
    """
    base = _fixed_base(atilde)
    return _fixed_density(sorted_spectra(a, base.values.size), base, factor,
                          "jpdf_fixed")


def jpdf_degenerate(a, factor: WeightFunction):
    """Limit atilde -> (1,...,1) of the fixed-base density.

    p(a) = [1 / (2^(n(n-1)/2) n! prod_(j<n) j! prod_j M A(2j-1))]
           * Delta(a^2) det[(-a_b d/da_b)^(c-1) A(a_b)],

    which is jpdf_fixed on the memoized record of the base of ones.  a has
    shape (..., n), a stack of spectra in any entry order; the result has
    shape a.shape[:-1], and is a float for a single spectrum.  For n >= 2
    the columns come from the factor's one (-a d/da) jet; a factor
    without one raises DomainError.
    """
    a = sorted_spectra(a)
    return _fixed_density(a, _base_record((1.0,) * a.shape[-1]), factor,
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
    av, e, t, _, den = _fixed_base(a)
    n = av.size
    if n < 2:
        raise DomainError("projection density needs n >= 2")
    if t.size < n:
        raise DomainError("projection density requires distinct a")
    x = np.ldexp(sorted_spectra(x, n - 1), -e)
    D = np.empty(x.shape[:-1] + (n, n))
    D[..., 0, :] = 1.0
    diff = av - x[..., :, None]
    D[..., 1:, :] = np.where(diff > 0.0, diff, 0.0)
    pref = float(factorial(2 * n - 2)) / float(factorial(n - 1))
    # a negative entry, or one above the base (a row of zeros), reads 0
    d = np.where(np.any(x < 0, axis=-1), 0.0, det(D))
    return _det_density(x, d, pref, den, e, "corank2_jpdf")
