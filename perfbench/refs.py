"""Reference values computed outside antiprod: 50-digit mpmath evaluations
of the paper's closed forms and the exact laws of the sampled determinants.

The determinant law comes from Bartlett's decomposition.  For the induced
Ginibre factor, det(M^T M) with M a 2(n+nu) x 2n Gaussian is a product of
independent chi-square variables with 2(n+nu) - i degrees of freedom,
i < 2n.  For the induced Jacobi factor, M is a 2N x 2n block of a Haar
O(K1) matrix and det(M^T M) is a product of independent
Beta((2N - i)/2, (K1 - 2N)/2) variables.  For a product y = g x g^T one
has prod_j a_j^2 = det(y) = det(M^T M) prod_j atilde_j^2.
"""

from __future__ import annotations

import itertools

import mpmath as mp
import numpy as np
from scipy import special

DPS = 50


def det_law(params: dict) -> dict:
    """Mean of det(M^T M) and mean and variance of log det(M^T M)."""
    n = int(params["n"])
    i = np.arange(2 * n)
    if params["factor"] == "ginibre":
        k = 2.0 * (n + float(params["nu"])) - i
        return {"mean": float(np.prod(k)),
                "log_mean": float(np.sum(special.digamma(k / 2.0) + np.log(2.0))),
                "log_var": float(np.sum(special.polygamma(1, k / 2.0)))}
    N, K1 = int(params["N"]), int(params["K1"])
    alpha = (2.0 * N - i) / 2.0
    beta = (K1 - 2.0 * N) / 2.0
    return {"mean": float(np.prod((2.0 * N - i) / (K1 - i))),
            "log_mean": float(np.sum(special.digamma(alpha)
                                     - special.digamma(alpha + beta))),
            "log_var": float(np.sum(special.polygamma(1, alpha)
                                    - special.polygamma(1, alpha + beta)))}


def weight_mp(kind: str, nu: float, mu: float = 0.0, n: int = 1):
    """(A, M A) of a catalogued determinant-modulus weight, in mpmath."""
    two_nu = 2 * mp.mpf(nu)
    if kind == "ginibre":
        norm = mp.gamma(1 + two_nu)

        def dens(x):
            return x ** two_nu * mp.exp(-x) / norm if x > 0 else mp.mpf(0)

        def mellin(s):
            return mp.gamma(s + two_nu) / norm
        return dens, mellin
    beta = 2 * (mp.mpf(mu) + n)
    norm = mp.beta(1 + two_nu, beta + 1)

    def dens(x):
        return x ** two_nu * (1 - x) ** beta / norm if 0 < x < 1 else mp.mpf(0)

    def mellin(s):
        return mp.beta(s + two_nu, beta + 1) / norm
    return dens, mellin


def _det(M):
    """Leibniz determinant of a small list-of-rows matrix; exact for the
    singular matrices that pivoting LU rejects."""
    n = len(M)
    total = mp.mpf(0)
    for perm in itertools.permutations(range(n)):
        inv = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = mp.mpf(-1) ** inv
        for i, p in enumerate(perm):
            term *= M[i][p]
        total += term
    return total


def _vand_sq(v) -> mp.mpf:
    out = mp.mpf(1)
    for k in range(len(v)):
        for l in range(k + 1, len(v)):
            out *= v[l] ** 2 - v[k] ** 2
    return out


def jpdf_fixed_mp(a, base, weight, eps: float = 0.0) -> float:
    """The fixed-base density
    p(a | b) = Delta(a^2) / (n! prod_j M A(2j-1) Delta(b^2)) det[A(a_i/b_c)/b_c].

    eps > 0 spreads the base to b_c + c eps before evaluating, which gives
    the limit at a (partially) degenerate base to O(eps)."""
    dens, mellin = weight
    with mp.workdps(DPS):
        a = sorted(mp.mpf(float(x)) for x in a)
        b = [mp.mpf(float(x)) + c * mp.mpf(eps) for c, x in enumerate(base)]
        n = len(a)
        W = [[dens(a[i] / b[c]) / b[c] for c in range(n)] for i in range(n)]
        norm = mp.factorial(n)
        for j in range(1, n + 1):
            norm *= mellin(2 * j - 1)
        return float(_vand_sq(a) / _vand_sq(b) * _det(W) / norm)


def phi_mp(s, a) -> complex:
    """Phi(s; a) = prod_(j<n) 2^j j! det[a_c^(s_b+n-1)]
    / (prod_(k<l)(a_l^2 - a_k^2) prod_(k<l)(s_l - s_k))."""
    with mp.workdps(DPS):
        n = len(a)
        a = [mp.mpf(float(x)) for x in a]
        s = [mp.mpf(float(x)) for x in s]
        M = [[a[c] ** (s[b] + n - 1) for c in range(n)] for b in range(n)]
        pref = mp.mpf(1)
        ds = mp.mpf(1)
        for j in range(n):
            pref *= 2 ** j * mp.factorial(j)
            for l in range(j + 1, n):
                ds *= s[l] - s[j]
        return complex(pref * _det(M) / (_vand_sq(a) * ds))


def fn_mp(s, a) -> complex:
    """f_n(s; a) = prod_(j<n) (2j)! det[a_c^(s_b+n-1)]
    / (prod_(k<l)(a_l^2 - a_k^2) prod_(k<l)(s_l - s_k) prod_(k<l)(s_k - s_l - 1))."""
    with mp.workdps(DPS):
        n = len(a)
        pref = mp.mpf(1)
        den = mp.mpf(1)
        for j in range(n):
            pref *= mp.factorial(2 * j) / (2 ** j * mp.factorial(j))
            for l in range(j + 1, n):
                den *= mp.mpf(float(s[j])) - mp.mpf(float(s[l])) - 1
        return complex(mp.mpc(phi_mp(s, a)) * pref / den)


def harish_chandra_mp(x, y, eps: float = 0.0) -> float:
    """prod_(k<n) (2k)! det[cosh(x_i y_j)] / (Delta(x^2) Delta(y^2)).

    eps > 0 spreads y to y_j + j eps, for the limit at coinciding y."""
    with mp.workdps(DPS):
        n = len(x)
        x = [mp.mpf(float(v)) for v in x]
        y = [mp.mpf(float(v)) + j * mp.mpf(eps) for j, v in enumerate(y)]
        M = [[mp.cosh(x[i] * y[j]) for j in range(n)] for i in range(n)]
        pref = mp.mpf(1)
        for k in range(n):
            pref *= mp.factorial(2 * k)
        return float(pref * _det(M) / (_vand_sq(x) * _vand_sq(y)))
