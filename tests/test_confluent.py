"""The confluent alternant engine and its three callers, Phi, f_n and the
O(2n) integral, and the confluent columns of the partially degenerate
fixed-base density.

The references are 50-digit mpmath evaluations of the plain alternant at
nodes spread by 1e-20, whose limit is the confluent value to O(1e-20).  A
pair of nodes that close cancels 20 digits in the determinant and in the
Vandermonde, and a triple 60, so each reference runs with that many digits
beyond the 50 it keeps.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from antiprod.ensembles import jpdf_fixed
from antiprod.linalg import confluent_alternant, vandermonde
from antiprod.mellin import ginibre_weight, jacobi_weight
from antiprod.spherical import fn_closed, harish_chandra_o2n, phi_closed

EPS = mp.mpf("1e-20")
DPS = 50 + 60


def _spread(v, eps):
    """mpf entries v_j + j eps."""
    return [mp.mpf(float(x)) + j * eps for j, x in enumerate(v)]


def _vand(v):
    out = mp.mpf(1)
    for k in range(len(v)):
        for l in range(k + 1, len(v)):
            out *= v[l] - v[k]
    return out


def phi_mp(s, a, eps_s=0, eps_a=0):
    """Phi(s; a) = prod_(j<n) 2^j j! det[a_c^(s_b+n-1)]
    / (Delta(a^2) Delta(s)) at s and a spread by eps_s and eps_a."""
    with mp.workdps(DPS):
        n = len(a)
        s, a = _spread(s, eps_s), _spread(a, eps_a)
        M = mp.matrix([[a[c] ** (s[b] + n - 1) for c in range(n)]
                       for b in range(n)])
        pref = mp.fprod(2 ** j * mp.factorial(j) for j in range(n))
        return float(pref * mp.det(M) / (_vand([x * x for x in a]) * _vand(s)))


def hc_mp(x, y):
    """prod_(k<n) (2k)! det[cosh(x_i y_j)] / (Delta(x^2) Delta(y^2)) at y
    spread by EPS."""
    with mp.workdps(DPS):
        n = len(x)
        x, y = _spread(x, 0), _spread(y, EPS)
        M = mp.matrix([[mp.cosh(xi * yj) for yj in y] for xi in x])
        pref = mp.fprod(mp.factorial(2 * k) for k in range(n))
        return float(pref * mp.det(M)
                     / (_vand([v * v for v in x]) * _vand([v * v for v in y])))


def jpdf_mp(a, base, dens, mellin):
    """Delta(a^2) det[A(a_i/b_c)/b_c] / (n! prod_j M A(2j-1) Delta(b^2)) at
    the base spread by EPS."""
    with mp.workdps(DPS):
        n = len(a)
        a, b = _spread(a, 0), _spread(base, EPS)
        W = mp.matrix([[dens(ai / bc) / bc for bc in b] for ai in a])
        norm = mp.factorial(n) * mp.fprod(mellin(2 * j - 1)
                                          for j in range(1, n + 1))
        return float(_vand([v * v for v in a]) * mp.det(W)
                     / (norm * _vand([v * v for v in b])))


def test_engine_matches_the_plain_alternant_at_distinct_nodes():
    rng = np.random.default_rng(0)
    u = np.sort(rng.uniform(0.2, 3.0, (6, 4)), axis=-1)
    q = np.array([0.5, 1.7, 2.2, 3.9])

    def taylor(v, m):
        assert m == 0
        return v[..., None, :] ** q[:, None]

    got = confluent_alternant(u, np.zeros((6, 3), dtype=bool), taylor)
    plain = np.linalg.det(u[:, None, :] ** q[:, None]) / vandermonde(u)
    np.testing.assert_allclose(got, plain, rtol=1e-12)


@pytest.mark.parametrize("a", [(1.0, 1.0, 2.0), (1.0, 1.0, 1.0)])
def test_phi_degenerate_a_matches_mpmath(a):
    s = (7.1, 4.0, 0.6)
    assert phi_closed(s, a).real == pytest.approx(
        phi_mp(s, a, eps_a=EPS), rel=1e-10)


def test_phi_degenerate_s_matches_mpmath():
    s, a = (4.0, 4.0), (0.7, 1.9)
    assert phi_closed(s, a).real == pytest.approx(
        phi_mp(s, a, eps_s=EPS), rel=1e-10)


def test_harish_chandra_degenerate_y_matches_mpmath():
    x, y = (0.5, 1.0, 1.3), (0.8, 0.8, 1.6)
    assert harish_chandra_o2n(x, y) == pytest.approx(hc_mp(x, y), rel=1e-10)


@pytest.mark.parametrize("kind", ["ginibre", "jacobi"])
def test_jpdf_partial_base_matches_mpmath(kind):
    if kind == "ginibre":
        w, a = ginibre_weight(0.5), (0.4, 1.1, 2.3)

        def dens(x):
            return x * mp.exp(-x)

        def mellin(s):
            return mp.gamma(s + 1)
    else:
        # beta = 2 (mu + n) = 6; the support ends at a_c / 2 for b_c = 2
        w, a = jacobi_weight(0.0, 0.0, 3), (0.2, 0.5, 0.9)

        def dens(x):
            return (1 - x) ** 6 / mp.beta(1, 7) if x < 1 else mp.mpf(0)

        def mellin(s):
            return mp.beta(s, 7) / mp.beta(1, 7)
    base = (1.0, 1.0, 2.0)
    assert jpdf_fixed(a, base, w) == pytest.approx(
        jpdf_mp(a, base, dens, mellin), rel=1e-10)


@pytest.mark.parametrize("lam", [1e-2, 1e-5])
@pytest.mark.parametrize("s, a", [((4.0, 0.0), (1.0, 2.0)),
                                  ((6.5, 3.0, 0.5), (0.7, 1.3, 2.1))])
def test_closed_forms_scale_covariant(lam, s, a):
    # Phi(s; lam a) = lam^(sum s) Phi(s; a), and f_n alike
    scale = lam ** sum(s)
    lam_a = tuple(lam * x for x in a)
    for f in (phi_closed, fn_closed):
        assert f(s, lam_a) == pytest.approx(scale * f(s, a), rel=1e-12)


@pytest.mark.parametrize("lam", [1e-2, 1e-5])
def test_partial_base_density_scale_covariant(lam):
    # p(lam a | lam b) = lam^(-n) p(a | b)
    w = ginibre_weight(0.0)
    a, base = np.array([0.4, 1.1, 2.3]), np.array([1.0, 1.0, 2.0])
    assert jpdf_fixed(lam * a, lam * base, w) == pytest.approx(
        jpdf_fixed(a, base, w) / lam ** 3, rel=1e-12)


def _spectrum(rng, n, kind):
    """A distinct, partially or fully degenerate spectrum of size n."""
    a = np.sort(rng.uniform(0.2, 3.0, n))
    if kind == "partial" and n > 1:
        a[1] = a[0]
    if kind == "full":
        a[:] = a[0]
    return a


@given(n=st.integers(1, 4), rows=st.integers(1, 6),
       complex_s=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_stacked_phi_and_fn_match_per_row_calls_bitwise(n, rows, complex_s,
                                                        seed):
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(2.0, 4.0, n - 1)
    s = rng.uniform(-0.5, 1.0) + np.append(np.cumsum(gaps[::-1])[::-1], 0.0)
    if complex_s:
        s = s + 1j * rng.uniform(-1.0, 1.0, n)
    kinds = rng.choice(["distinct", "partial", "full"], size=(rows, 2))
    a = np.array([[rng.permutation(_spectrum(rng, n, k)) for k in block]
                  for block in kinds])
    for f in (phi_closed, fn_closed):
        stacked = f(s, a)
        assert stacked.shape == (rows, 2)
        per_row = [[f(s, list(r)) for r in block] for block in a]
        assert all(type(v) is complex for block in per_row for v in block)
        assert np.array_equal(stacked, per_row)


def test_stacked_phi_at_degenerate_s_matches_per_row_calls():
    a = np.random.default_rng(3).uniform(0.3, 2.5, (5, 2))
    stacked = phi_closed((4.0, 4.0), a)
    assert np.array_equal(stacked, [phi_closed((4.0, 4.0), r) for r in a])
