"""Univariate Mellin transforms, multiplicative convolution, and the
determinant-modulus weight catalogue.

A 2x2 factor ensemble acts on spectral densities through the density of
sqrt(det z z^T), called A(a) here.  All catalogued densities are normalized
so that their Mellin transform at s = 1 equals 1, i.e. they are probability
densities of the determinant modulus.  The Mellin transform diagonalizes the
multiplicative convolution, M[f (*) h] = Mf * Mh, which is what makes the
closed forms downstream possible.

A factor enters a product only through A and M A, so A is the same kind of
object as the base weights w_c and the convolved weights A (*) w_c: each is
one WeightFunction, a density on the half line with its Mellin handle, its
support and the left edge of its Mellin strip.  convolved_weight(f, h) is
that weight for f (*) h, with handle M f M h and a density tabulated once
in log y by one FFT of that handle (by mellin_convolve on a bounded
support), so the factors of a product X_2 X_1 fold into the one factor
A_2 (*) A_1, which every fixed-base formula takes unchanged.  The
catalogued A are built once per parameter set (an LRU memo of MEMO
entries) and carry a closed-form jet of the columns (D^c A)(a), D =
-a d/da, c = 0, ..., m, with Mellin transforms s^c M A(s): the confluent
fixed-base columns themselves, each A times a polynomial (and a power of
1 - a for Jacobi), every order from one padded coefficient table, one
Horner pass and one exp, with no negative power of a.  A weight without
one raises DomainError when a column c >= 1 is asked for.  Where every
argument lies inside its open support, a catalogued density or jet is
evaluated without masks.  Every moment matrix, norm and transform reads
its Mellin values from one mellin_table, which raises outside a strip.

Numeric integrals of the package go through quad: Gauss-Legendre panels
evaluated on whole arrays of nodes, an error estimate from a lower-order
rule on the same panels, and bisection of the panels that miss their share
of the error gate, QUAD_RTOL times the integral of |f|.  quad_cumulative
tabulates running integrals on a fixed grid under the same gate.
mellin_numeric and mellin_convolve integrate in the log variable; a
quadrature that cannot meet the gate raises QuadratureError.  The window
of mellin_numeric on a weight w >= 0 starts where its exact handle bounds
the mass cut off below, int_0^x w(a) a^(Re s - 1) da <= x^(Re s - s')
M w(s') for edge < s' < Re s, at eps times int |integrand|; a plain
callable keeps the support it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npp
from scipy import special

from .linalg import DomainError

__all__ = [
    "WeightFunction", "QuadratureError", "mellin_table", "quad",
    "quad_cumulative", "mellin_numeric", "mellin_convolve",
    "convolved_weight", "ginibre_weight", "jacobi_weight",
]

#: Entries kept by each memo of weights, base records and factor norms.
MEMO = 128

#: Argument beyond which an exponentially decaying density is treated as zero.
TAIL_CUT = 800.0

#: Gauss-Legendre order of the panel rule, and the lower order whose sum on
#: the same panel gives the error estimate.
GL_ORDER, GL_LOW = 32, 16
#: Panels per interval before any bisection.
GL_PANELS = 8
#: Error gate of every quadrature, relative to the integral of |f|.
QUAD_RTOL = 1e-10
#: Panels per interval beyond which a quadrature stops bisecting.
QUAD_LIMIT = 400
#: Points and step in Im s of the fold table's FFT on the line Re s = c;
#: its step in log y is 2 pi / (FOLD_N FOLD_DT).
FOLD_N, FOLD_DT = 4096, 0.05

_HIGH, _LOW = (np.polynomial.legendre.leggauss(k) for k in (GL_ORDER, GL_LOW))
_GL_NODES = np.concatenate([_HIGH[0], _LOW[0]])


class QuadratureError(ArithmeticError):
    """Quadrature missed its error gate or met a NaN or inf integrand."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


@dataclass(frozen=True)
class WeightFunction:
    """Weight w on the positive half line with a Mellin evaluator.

    Parameters
    ----------
    density : callable
        w(a).  The catalogued determinant-modulus densities are normalized
        so that M w(1) = 1 and also accept complex arguments (the analytic
        continuation used by the double-contour kernel).
    mellin : callable
        s -> M w(s), exact where a closed form exists, otherwise quadrature
        of the density.
    support : (lo, hi)
    edge : float
        Left end of the Mellin strip, Re s > edge: w(a) ~ a^(-edge) at 0.
    jet : callable, optional
        (a, m) -> the columns (D^c w)(a), D = -a d/da, for c = 0, ..., m
        as one new array of shape a.shape + (m + 1,), where closed forms
        exist; column c has the Mellin transform s^c M w(s), and column 0
        equals the density bit for bit.
    """

    density: Callable
    mellin: Callable
    support: tuple
    edge: float
    jet: Callable = None

    def __call__(self, a):
        return self.density(a)

    @property
    def tail(self) -> float:
        """Support end, with TAIL_CUT in place of inf."""
        hi = self.support[1]
        return hi if np.isfinite(hi) else TAIL_CUT

    def neg_xdx(self, a, m: int):
        """((-a d/da)^c w)(a) for c = 0, ..., m, shape a.shape + (m + 1,):
        the confluent columns, read from the jet, or the density alone at
        m = 0 for a weight without one, which raises DomainError at
        m >= 1."""
        if self.jet is not None:
            return self.jet(a, m)
        if m:
            raise DomainError("weight has no closed-form (-a d/da) jet")
        return np.asarray(self.density(a))[..., None]


def mellin_table(weights, s) -> np.ndarray:
    """M w(s) of each weight, one handle call per weight: complex, of shape
    np.shape(s) + (len(weights),); a value that is not finite (s outside a
    strip, or at a pole) raises DomainError."""
    table = np.stack([np.asarray(w.mellin(s), complex) for w in weights], -1)
    if not np.isfinite(table).all():
        raise DomainError("Mellin transform is not finite at s")
    return table


def _log_beta(x, y):
    return special.loggamma(x) + special.loggamma(y) - special.loggamma(x + y)


def _horner(x, c):
    """sum_i c_i x^i by Horner's rule from c[-1], which meets x first in
    its first product: a table of one coefficient row returns that row."""
    out = c[-1]
    for ci in c[-2::-1]:
        out = ci + out * x
    return out


def _jet_table(step, m: int):
    """The coefficients of P_0 = 1, ..., P_m, P_(c+1) = step(P_c, c), as
    the columns of one array padded with zeros at the top: one _horner
    pass evaluates every order, and leading zeros leave each result
    unchanged bit for bit."""
    polys = [npp.Polynomial([1.0])]
    for c in range(m):
        polys.append(step(polys[-1], c))
    C = np.zeros((max(p.coef.size for p in polys), m + 1))
    for c, p in enumerate(polys):
        C[:p.coef.size, c] = p.coef
    return C


def _on_support(f, support, at0, a):
    """f(a) at real arguments a inside the open support: f runs on a as
    it is when every argument lies inside, otherwise through masks, which
    read 0 outside the support, NaN at NaN, and at0 at a = 0 when at0 is
    not None.  Both routes do the same arithmetic inside the support, so
    their values agree bit for bit."""
    lo, hi = support
    if a.size and lo < np.minimum.reduce(a, axis=None) \
            and np.maximum.reduce(a, axis=None) < hi:
        return f(a)
    ok = (a > lo) & (a < hi)
    out = np.where(ok, f(np.where(ok, a, 0.5)),
                   np.where(np.isnan(a), np.nan, 0.0))
    return out if at0 is None else np.where(a == 0, at0, out)


def _as_float(a):
    """a as a float64 array, a itself when it is one."""
    return a if a.dtype == np.float64 else a.astype(float)


@lru_cache(maxsize=MEMO)
def ginibre_weight(nu: float) -> WeightFunction:
    """Determinant-modulus density of the induced real Ginibre factor.

    A(a) = a^(2 nu) e^(-a) / Gamma(1 + 2 nu) on (0, inf), with exact Mellin
    transform Gamma(s + 2 nu) / Gamma(1 + 2 nu).  Its jet is D^c A =
    A Q_c, D = -a d/da, with Q_0 = 1 and Q_(c+1) = (a - 2 nu) Q_c - a Q_c'.
    A and its jet read 0 outside the support and at +inf, NaN at NaN; the
    jet reads 0 where it underflows, at any order.
    """
    if nu <= -0.5:
        raise DomainError("ginibre weight requires nu > -1/2")
    two_nu = 2.0 * nu
    lognorm = special.loggamma(1.0 + two_nu)
    support = (0.0, np.inf)
    # A(0) = 1 / Gamma(1), finite only at 2 nu = 0
    w0 = np.exp(-lognorm) if two_nu == 0.0 else None
    # the same values as 0-d arrays, which numpy takes as operands without
    # the conversion it makes of a Python float on every call
    r_two_nu, r_lognorm = np.array(two_nu), np.array(lognorm)

    def real(t):
        return np.exp(r_two_nu * np.log(t) - t - r_lognorm)

    def density(a):
        a = np.asarray(a)
        if a.dtype.kind == "c":
            return a ** two_nu * np.exp(-a - lognorm)
        out = _on_support(real, support, w0, _as_float(a))
        return out if out.ndim else float(out)

    def mellin(s):
        s = np.asarray(s, dtype=complex)
        val = np.exp(special.loggamma(s + two_nu) - lognorm)
        return val if val.ndim else complex(val)

    x = npp.Polynomial([0.0, 1.0])

    @cache
    def table(m):
        """The padded coefficients of Q_0, ..., Q_m, at 2 nu = 0 the values
        (D^c A)(0) = (-2 nu)^c A(0), and the support of the jet: beyond its
        end every a^(2 nu + m) e^(-a) / Gamma(1 + 2 nu) is below e^(-800),
        0 in floats, where Q_c could overflow and meet it as inf * 0."""
        C = _jet_table(lambda q, c: (x - two_nu) * q - x * q.deriv(), m)
        at0 = None if w0 is None else np.r_[w0, np.zeros(m)]
        # at a >= 1, top log a <= a / 2 + top (log 2 top - 1)
        top = max(two_nu + m, 1.0)
        end = 2.0 * (800.0 - lognorm + top * (np.log(2.0 * top) - 1.0))
        return C, at0, (0.0, end)

    def jet(a, m):
        C, at0, jet_support = table(m)
        return _on_support(lambda t: _horner(t, C) * real(t), jet_support,
                           at0, np.asarray(a, dtype=float)[..., None])

    return WeightFunction(density=density, mellin=mellin, support=support,
                          edge=-two_nu, jet=jet)


@lru_cache(maxsize=MEMO)
def jacobi_weight(nu: float, mu: float, n: int) -> WeightFunction:
    """Determinant-modulus density of the induced real Jacobi factor.

    A(a) = a^(2 nu) (1 - a)^(2 (mu + n)) / B(1 + 2 nu, 2 mu + 2 n + 1) on
    (0, 1), with exact Mellin transform a ratio of Beta functions.  Its
    jet is D^c A = a^(2 nu) (1 - a)^(beta - c) R_c / B, D = -a d/da, beta
    = 2 (mu + n), with R_0 = 1 and R_(c+1) = -2 nu (1 - a) R_c + (beta - c)
    a R_c - a (1 - a) R_c'.  A and its jet read 0 outside the support, NaN
    at NaN.
    """
    if nu <= -0.5:
        raise DomainError("jacobi weight requires nu > -1/2")
    if mu <= -n - 0.5:
        raise DomainError("jacobi weight requires mu > -n - 1/2")
    two_nu = 2.0 * nu
    beta = 2.0 * (mu + n)
    lognorm = _log_beta(1.0 + two_nu, beta + 1.0)
    support = (0.0, 1.0)
    # A(0) = 1 / B, finite only at 2 nu = 0
    w0 = np.exp(-lognorm) if two_nu == 0.0 else None
    # 0-d arrays, as in ginibre_weight
    r_two_nu, r_beta, r_lognorm = map(np.array, (two_nu, beta, lognorm))

    def real(t):
        return np.exp(r_two_nu * np.log(t) + r_beta * np.log1p(-t)
                      - r_lognorm)

    def density(a):
        a = np.asarray(a)
        if a.dtype.kind == "c":
            return a ** two_nu * (1.0 - a) ** beta * np.exp(-lognorm)
        out = _on_support(real, support, w0, _as_float(a))
        return out if out.ndim else float(out)

    def mellin(s):
        s = np.asarray(s, dtype=complex)
        val = np.exp(_log_beta(s + two_nu, beta + 1.0) - lognorm)
        return val if val.ndim else complex(val)

    x, one_m_x = npp.Polynomial([0.0, 1.0]), npp.Polynomial([1.0, -1.0])

    @cache
    def table(m):
        """Exponents beta - c, the padded coefficients of R_0, ..., R_m, and
        at 2 nu = 0 the values (D^c A)(0) = (-2 nu)^c A(0)."""
        C = _jet_table(lambda r, c: -two_nu * one_m_x * r + (beta - c) * x * r
                       - x * one_m_x * r.deriv(), m)
        at0 = None if w0 is None else np.r_[w0, np.zeros(m)]
        return beta - np.arange(m + 1.0), C, at0

    def jet(a, m):
        f, C, at0 = table(m)
        return _on_support(
            lambda t: _horner(t, C) * np.exp(r_two_nu * np.log(t)
                                             + f * np.log1p(-t) - r_lognorm),
            support, at0, np.asarray(a, dtype=float)[..., None])

    return WeightFunction(density=density, mellin=mellin, support=support,
                          edge=-two_nu, jet=jet)


def _gl_panels(f, a, b):
    """(value, error) of f over each panel [a, b]: the GL_ORDER-point
    Gauss-Legendre sum and its distance from the GL_LOW-point sum.  f maps
    nodes of shape a.shape + (GL_ORDER + GL_LOW,) to values."""
    half = (b - a) / 2.0
    fx = f((a + half)[..., None] + half[..., None] * _GL_NODES)
    if not np.all(np.isfinite(fx)):
        raise QuadratureError("integrand is not finite on a panel",
                              value=np.nan, error=np.inf)
    value = half * (fx[..., :GL_ORDER] @ _HIGH[1])
    return value, np.abs(value - half * (fx[..., GL_ORDER:] @ _LOW[1]))


def quad(f, lo, hi, *args):
    """(value, error) of int_lo^hi f(x, *args) dx for each interval.

    lo, hi and args broadcast to one shape; f gets nodes x of shape
    (panels, nodes) and each arg per panel, of shape (panels, 1).  An
    interval starts as GL_PANELS panels; its error is the sum of the panel
    errors plus the QUADPACK round-off bound 50 eps sum |panel value|, and
    its gate QUAD_RTOL sum |panel value|, which holds an integrand that
    changes sign to its size.  While the error exceeds the gate, the worst
    panels that miss their width's share of it are bisected, up to
    QUAD_LIMIT panels per interval; an interval left above the gate raises
    QuadratureError.
    """
    shape = np.broadcast(lo, hi, *args).shape
    lo, hi, *args = [np.broadcast_to(p, shape).ravel()
                     for p in (lo, hi, *args)]
    m = lo.size
    edges = lo[:, None] + (hi - lo)[:, None] * np.linspace(0, 1, GL_PANELS + 1)
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    own = np.repeat(np.arange(m), GL_PANELS)

    def panels(a, b, own):
        return _gl_panels(lambda x: f(x, *[p[own, None] for p in args]), a, b)

    v, e = panels(a, b, own)
    while True:
        value = np.zeros(m, dtype=v.dtype)
        np.add.at(value, own, v)
        size = np.bincount(own, np.abs(v), m)
        error = np.bincount(own, e, m) + 50.0 * np.finfo(float).eps * size
        gate = np.maximum(QUAD_RTOL * size, np.finfo(float).tiny)
        fail = error > gate
        cand = np.flatnonzero(fail[own])
        k = own[cand]  # a failing interval has a positive width
        cand = cand[e[cand] > gate[k] * (b - a)[cand] / (hi - lo)[k]]
        # bisect the worst panels of each interval, as many as keep it
        # within QUAD_LIMIT panels
        cand = cand[np.lexsort((-e[cand], own[cand]))]
        k = own[cand]
        rank = np.arange(cand.size) - np.searchsorted(k, k)
        cand = np.sort(cand[rank < QUAD_LIMIT - np.bincount(own)[k]])
        if not cand.size:
            break
        mid = (a[cand] + b[cand]) / 2.0
        na = np.concatenate([a[cand], mid])
        nb = np.concatenate([mid, b[cand]])
        nown = np.tile(own[cand], 2)
        nv, ne = panels(na, nb, nown)
        a, b, own, v, e = (np.concatenate([np.delete(old, cand), new])
                           for old, new in ((a, na), (b, nb), (own, nown),
                                            (v, nv), (e, ne)))
    if fail.any():
        raise QuadratureError(
            f"quadrature error above the {QUAD_RTOL:g} relative gate",
            value=value.reshape(shape), error=error.reshape(shape))
    return value.reshape(shape)[()], error.reshape(shape)[()]


def quad_cumulative(f, x):
    """int_x[0]^x[i] f for each point of the grid x, one panel per cell,
    gated as quad but never bisected: a kink of f belongs on a grid point."""
    v, e = _gl_panels(f, x[:-1], x[1:])
    size = np.sum(np.abs(v))
    error = np.sum(e) + 50.0 * np.finfo(float).eps * size
    cum = np.concatenate([[0.0], np.cumsum(v)])
    if error > max(QUAD_RTOL * size, np.finfo(float).tiny):
        raise QuadratureError("cumulative quadrature error above the gate",
                              value=cum, error=error)
    return cum


def mellin_numeric(f, s, support=None) -> complex:
    """M f(s) = int_0^inf f(a) a^(s-1) da by quad in t = log a, which
    resolves algebraic behaviour at a = 0; a half line ends at TAIL_CUT.

    f is a WeightFunction, or a plain callable with an explicit support,
    which is integrated over exactly that support from max(lo, 1e-280).
    A WeightFunction w is assumed >= 0, and its window starts where its
    exact handle bounds the mass cut off: for edge < s' < Re s,

        int_0^x w(a) a^(Re s - 1) da <= x^(Re s - s') M w(s'),

    so at s' = (edge + Re s) / 2 the start x = (eps M w(Re s) / M
    w(s'))^(1 / (Re s - s')) cuts at most eps M w(Re s), eps times the
    integral of |integrand| that the gate of quad is relative to; the
    support's own lower end, or the least normal double, if higher (below
    it a^(2 nu) of a catalogued weight can overflow).  Re s <= edge, where
    M w(s) diverges, raises DomainError."""
    s = complex(s)
    if support is None:
        lo, hi = f.support
        sigma = s.real
        if not sigma > f.edge:
            raise DomainError("Mellin transform needs Re s above the edge")
        sp = (f.edge + sigma) / 2.0
        log_x = np.log(np.finfo(float).eps * abs(f.mellin(sigma))
                       / abs(f.mellin(sp))) / (sigma - sp)
        t_lo = max(np.log(max(lo, np.finfo(float).tiny)), log_x)
    else:
        lo, hi = support
        t_lo = np.log(max(lo, 1e-280))
    val, _ = quad(lambda t: f(np.exp(t)) * np.exp(s * t), t_lo,
                  np.log(hi if np.isfinite(hi) else TAIL_CUT))
    return complex(val)


def mellin_convolve(f: WeightFunction, h: WeightFunction, y):
    """(f (*) h)(y) = int f(t) h(y/t) dt/t by quad in log t, on a window per
    y cut to both supports and tails; y may be an array."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise DomainError("convolution argument must be positive")
    fd, hd, h_lo = f.density, h.density, h.support[0]
    # the tail never exceeds the support end, so it also cuts at it
    t_lo = np.log(np.maximum(max(f.support[0], 1e-280), y / h.tail))
    t_hi = np.log(np.minimum(f.tail, y / h_lo if h_lo > 0 else np.inf))
    val, _ = quad(lambda tau, yy: fd(np.exp(tau)) * hd(yy / np.exp(tau)),
                  t_lo, np.maximum(t_lo, t_hi), y)
    return float(val) if val.ndim == 0 else val


def convolved_weight(f: WeightFunction, h: WeightFunction) -> WeightFunction:
    """f (*) h as one weight: exact Mellin M f M h, the product of the
    supports, the larger strip edge, and a density read from one table on
    u_0 + j du, u = log y, du = 2 pi / (FOLD_N FOLD_DT), by the 8-point
    Lagrange rule, one-sided at the table's ends.  An unbounded support
    makes the table one FFT, f(e^u) e^(cu) = (1/2 pi) int M(c + it) e^(-itu)
    dt by the trapezoid rule at t = k FOLD_DT on Re s = c = edge + 1/2, kept
    where it stands above its rounding and wrapped tail; a bounded one ends
    it there, FOLD_N / 2 steps of mellin_convolve.  The density is 0 outside
    the support and above the table; below it, at complex arguments (the
    double-contour kernel) and on a non-finite FFT it raises DomainError.
    """
    support = (f.support[0] * h.support[0], f.support[1] * h.support[1])
    edge, du = max(f.edge, h.edge), 2.0 * np.pi / (FOLD_N * FOLD_DT)

    def mellin(s):
        return f.mellin(s) * h.mellin(s)

    @cache
    def table():
        if np.isfinite(support[1]):
            u = np.log(support[1]) + du * np.arange(-FOLD_N // 2, 1)
            return u[0], mellin_convolve(f, h, np.exp(u))
        c, u = edge + 0.5, du * np.arange(-FOLD_N // 2, FOLD_N // 2)
        t = FOLD_DT * np.arange(FOLD_N // 2 + 1)
        m = mellin(c + 1j * t) * FOLD_DT / (2 * np.pi)
        g = np.fft.fftshift(np.fft.hfft(m, FOLD_N))
        # the left tail decays as e^((c - edge) u) and wraps onto the top
        j = np.flatnonzero(np.abs(g) > abs(g[0]) * np.exp((u - u[-1]) / 2)
                           + FOLD_N * np.finfo(float).eps * np.abs(m).sum())
        if not np.isfinite(g).all():
            raise DomainError("the Mellin product is not finite on Re s = c")
        return u[j[0]], (g * np.exp(-c * u))[j[0]:j[-1] + 1]

    def density(y):
        if np.iscomplexobj(y):
            raise DomainError("a convolved density takes real arguments only")
        u0, vals = table()
        y = np.asarray(y, dtype=float)
        x = (np.log(np.where(y > 0, y, np.inf)) - u0) / du
        if np.any(x < 0):
            raise DomainError("argument below the convolved density's table")
        on = (x <= vals.size - 1) & (y < support[1])
        x = np.where(on, x, 0.0)
        i = np.clip(np.floor(x).astype(int) - 3, 0, vals.size - 8)
        out = np.where(on, sum(vals[i + m] * np.prod(
            [(x - i - k) / (m - k) for k in range(8) if k != m], axis=0)
            for m in range(8)), 0.0)
        return out if out.ndim else float(out)

    return WeightFunction(density=density, mellin=mellin, support=support,
                          edge=edge)
