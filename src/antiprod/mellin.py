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
support and a label.  convolved_weight(f, h) is that weight for f (*) h,
so the factors of a product X_2 X_1 fold into the one factor A_2 (*) A_1,
which every fixed-base formula takes unchanged.  The catalogued A also
carry closed-form derivatives, which the degenerate-limit densities need;
a weight without them raises DomainError when a derivative is asked for.

Numeric integrals of the package go through quad: Gauss-Legendre panels
evaluated on whole arrays of nodes, an error estimate from a lower-order
rule on the same panels, and bisection of the panels that miss their share
of the error gate, QUAD_RTOL times the integral of |f|.  quad_cumulative
tabulates running integrals on a fixed grid under the same gate.
mellin_numeric and mellin_convolve integrate in the log variable; a
quadrature that cannot meet the gate raises QuadratureError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npp
from scipy import special

from .linalg import DomainError

__all__ = [
    "WeightFunction", "QuadratureError", "quad",
    "quad_cumulative", "mellin_numeric", "mellin_convolve",
    "convolved_weight", "ginibre_weight", "jacobi_weight",
]

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
#: Grid points per decade of a tabulated convolved density.
CONV_PER_DECADE = 512

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
    label : str
        Name used in ensemble labels; the catalogue sets "ginibre" or
        "jacobi".
    deriv : callable, optional
        (a, k) -> w^(k)(a) for k >= 1, where closed forms exist.
    """

    density: Callable
    mellin: Callable
    support: tuple
    label: str = "w"
    deriv: Callable = None

    def __call__(self, a):
        return self.density(a)

    @property
    def tail(self) -> float:
        """Support end, with TAIL_CUT in place of inf."""
        hi = self.support[1]
        return hi if np.isfinite(hi) else TAIL_CUT

    def density_deriv(self, a, k: int):
        """k-th derivative of the density; the catalogued weights give 0
        wherever their density is 0 by support."""
        if k == 0:
            return self.density(a)
        if self.deriv is None:
            raise DomainError(
                f"{self.label} weight has no closed-form derivatives")
        return self.deriv(a, k)

    def neg_xdx_pow(self, a, m: int):
        """((-a d/da)^m w)(a), the degenerate-limit column operator."""
        if m == 0:
            return self.density(a)
        a = np.asarray(a, dtype=float)
        out = 0.0
        for k, ck in enumerate(_neg_xdx_coeffs(m)):
            if ck:
                out = out + ck * a ** k * self.density_deriv(a, k)
        return out


@cache
def _neg_xdx_coeffs(m: int) -> tuple:
    """c_k with (-a d/da)^m w = sum_k c_k a^k w^(k): (-a d/da) maps
    a^k w^(k) -> -k a^k w^(k) - a^(k+1) w^(k+1)."""
    c = [1.0]
    for _ in range(m):
        c = [-k * ck - cl for k, (ck, cl)
             in enumerate(zip(c + [0.0], [0.0] + c))]
    return tuple(c)


def _log_beta(x, y):
    return special.loggamma(x) + special.loggamma(y) - special.loggamma(x + y)


def _horner(x, c):
    """sum_i c_i x^i, operation for operation as npp.polyval does it."""
    out = c[-1] + x * 0
    for ci in c[-2::-1]:
        out = ci + out * x
    return out


def _deriv_polys(step):
    """Polynomials P_(k+1) = step(P_k, k) from P_0 = 1, each cached on
    first use as (j, c) with P_k(a) = a^j _horner(a, c): the lowest power
    a^j is split off so that the caller folds it into its exponential, and
    a tiny a meets no 0 * inf.  A zero P_k (a polynomial density
    differentiated past its degree) is cached as (k, [0])."""
    polys, table = [npp.Polynomial([1.0])], [(0, (1.0,))]

    def split(k):
        while len(table) <= k:
            polys.append(step(polys[-1], len(polys) - 1))
            coef = polys[-1].coef.tolist()
            j = next((i for i, v in enumerate(coef) if v), None)
            table.append((len(table), coef) if j is None else (j, coef[j:]))
        return table[k]

    return split


def ginibre_weight(nu: float) -> WeightFunction:
    """Determinant-modulus density of the induced real Ginibre factor.

    A(a) = a^(2 nu) e^(-a) / Gamma(1 + 2 nu) on (0, inf), with exact Mellin
    transform Gamma(s + 2 nu) / Gamma(1 + 2 nu).
    """
    if nu <= -0.5:
        raise DomainError("ginibre weight requires nu > -1/2")
    two_nu = 2.0 * nu
    lognorm = special.loggamma(1.0 + two_nu)

    def density(a):
        a = np.asarray(a)
        if np.iscomplexobj(a):
            return a ** two_nu * np.exp(-a - lognorm)
        a = a.astype(float, copy=False)
        pos = a > 0
        t = np.where(pos, a, 1.0)
        out = np.where(pos, np.exp(two_nu * np.log(t) - t - lognorm), 0.0)
        if two_nu == 0.0:
            out = np.where(a == 0, np.exp(-lognorm), out)
        return out if out.ndim else float(out)

    def mellin(s):
        s = np.asarray(s, dtype=complex)
        val = np.exp(special.loggamma(s + two_nu) - lognorm)
        return val if val.ndim else complex(val)

    # derivative of a^(2nu) e^(-a): polynomial recursion in front of
    # a^(2nu - k) e^(-a)
    x = npp.Polynomial([0.0, 1.0])
    polys = _deriv_polys(lambda q, j: (two_nu - j) * q + x * q.deriv() - x * q)

    def deriv(a, k):
        j, c = polys(k)
        a = np.asarray(a, dtype=float)
        pos = a > 0
        t = np.where(pos, a, 1.0)
        out = np.where(pos, _horner(t, c) * np.exp(
            (two_nu - k + j) * np.log(t) - t - lognorm), 0.0)
        if two_nu == 0.0:
            out = np.where(a == 0, (-1.0) ** k * np.exp(-lognorm), out)
        return out

    return WeightFunction(density=density, mellin=mellin,
                          support=(0.0, np.inf), label="ginibre", deriv=deriv)


def jacobi_weight(nu: float, mu: float, n: int) -> WeightFunction:
    """Determinant-modulus density of the induced real Jacobi factor.

    A(a) = a^(2 nu) (1 - a)^(2 (mu + n)) / B(1 + 2 nu, 2 mu + 2 n + 1) on
    (0, 1), with exact Mellin transform a ratio of Beta functions.
    """
    if nu <= -0.5:
        raise DomainError("jacobi weight requires nu > -1/2")
    if mu <= -n - 0.5:
        raise DomainError("jacobi weight requires mu > -n - 1/2")
    two_nu = 2.0 * nu
    beta = 2.0 * (mu + n)
    lognorm = _log_beta(1.0 + two_nu, beta + 1.0)

    def density(a):
        a = np.asarray(a)
        if np.iscomplexobj(a):
            return a ** two_nu * (1.0 - a) ** beta * np.exp(-lognorm)
        a = a.astype(float, copy=False)
        ok = (a > 0) & (a < 1)
        t = np.where(ok, a, 0.5)
        out = np.where(ok, np.exp(two_nu * np.log(t) + beta * np.log1p(-t)
                                  - lognorm), 0.0)
        if two_nu == 0.0:
            out = np.where(a == 0, np.exp(-lognorm), out)
        return out if out.ndim else float(out)

    def mellin(s):
        s = np.asarray(s, dtype=complex)
        val = np.exp(_log_beta(s + two_nu, beta + 1.0) - lognorm)
        return val if val.ndim else complex(val)

    # polynomial recursion in front of a^(2nu - k) (1 - a)^(beta - k)
    x, one_m_x = npp.Polynomial([0.0, 1.0]), npp.Polynomial([1.0, -1.0])
    polys = _deriv_polys(lambda r, j: (two_nu - j) * one_m_x * r
                         - (beta - j) * x * r + x * one_m_x * r.deriv())

    def deriv(a, k):
        j, c = polys(k)
        a = np.asarray(a, dtype=float)
        ok = (a > 0) & (a < 1)
        t = np.where(ok, a, 0.5)
        out = np.where(ok, _horner(t, c) * np.exp(
            (two_nu - k + j) * np.log(t) + (beta - k) * np.log1p(-t)
            - lognorm), 0.0)
        if two_nu == 0.0:
            # the a -> 0+ limit of d^k/da^k (1 - a)^beta / B
            out = np.where(a == 0, (-1.0) ** k * special.poch(beta - k + 1.0, k)
                           * np.exp(-lognorm), out)
        return out

    return WeightFunction(density=density, mellin=mellin,
                          support=(0.0, 1.0), label="jacobi", deriv=deriv)


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

    f is a WeightFunction, or a plain callable with an explicit support."""
    lo, hi = f.support if support is None else support
    s = complex(s)
    val, _ = quad(lambda t: f(np.exp(t)) * np.exp(s * t),
                  np.log(max(lo, 1e-280)),
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


def convolved_weight(f: WeightFunction, h: WeightFunction,
                     y_lo: float = 1e-7) -> WeightFunction:
    """f (*) h as one weight, with exact Mellin M f(s) M h(s), the product
    of the supports and the label "f(*)h".

    The density is mellin_convolve tabulated on the first call, on a
    geometric grid of CONV_PER_DECADE points per decade from y_lo to
    f.tail h.tail, and interpolated by a cubic spline in log y.  Below the
    grid it follows the power law through the first grid points; outside
    the support it is 0.  It takes real arguments only: the double-contour
    kernel, which continues a density to complex ones, raises DomainError.
    """
    y_hi = f.tail * h.tail
    support = (f.support[0] * h.support[0], f.support[1] * h.support[1])

    @cache
    def table():
        from scipy.interpolate import CubicSpline
        ndec = np.log10(y_hi / y_lo)
        ny = int(np.ceil(ndec * CONV_PER_DECADE)) + 1
        logy = np.linspace(np.log(y_lo), np.log(y_hi), ny)
        vals = np.maximum(mellin_convolve(f, h, np.exp(logy)), 0.0)
        # power-law continuation below the grid
        i0 = np.argmax(vals > 0)
        i1 = i0 + 8
        law = None
        if vals[i0] > 0 and i1 < ny and vals[i1] > 0:
            slope = (np.log(vals[i1]) - np.log(vals[i0])) \
                / (logy[i1] - logy[i0])
            law = (slope, logy[i0], vals[i0])
        return logy[0], logy[-1], CubicSpline(logy, vals), law

    def density(y):
        if np.iscomplexobj(y):
            raise DomainError("a convolved density has no analytic "
                              "continuation to complex arguments")
        first, last, spline, law = table()
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        inside = (y > 0) & (y < support[1])
        logy = np.where(y > 0, np.log(np.maximum(y, 1e-300)), 0.0)
        on_grid = inside & (logy >= first) & (logy <= last)
        out[on_grid] = np.maximum(spline(logy[on_grid]), 0.0)
        below = inside & (logy < first)
        if np.any(below) and law is not None:
            slope, l0, v0 = law
            out[below] = v0 * np.exp(slope * (logy[below] - l0))
        return out if out.ndim else float(out)

    def mellin(s):
        return f.mellin(s) * h.mellin(s)

    return WeightFunction(density=density, mellin=mellin, support=support,
                          label=f"{f.label}(*){h.label}")
