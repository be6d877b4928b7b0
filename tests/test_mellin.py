import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from antiprod import mellin
from antiprod.mellin import _horner, _jet_table, _log_beta
from antiprod.linalg import DomainError
from antiprod.mellin import (QuadratureError, convolved_weight,
                             ginibre_weight, jacobi_weight, mellin_convolve,
                             mellin_numeric, quad)
from antiprod.samplers import GinibreSpec, JacobiSpec, ProductSpec


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
def test_ginibre_mellin_closed_vs_quadrature(nu):
    w = ginibre_weight(nu)
    for j in range(4):
        s = 2 * j + 1
        exact = w.mellin(s)
        num = mellin_numeric(w, s)
        assert abs(num - exact) / abs(exact) < 1e-8


@pytest.mark.parametrize("nu,mu", [(0.0, 0.0), (0.5, 1.0), (1.0, 0.5)])
def test_jacobi_mellin_closed_vs_quadrature(nu, mu):
    w = jacobi_weight(nu, mu, 2)
    for j in range(4):
        s = 2 * j + 1
        exact = w.mellin(s)
        num = mellin_numeric(w, s)
        assert abs(num - exact) / abs(exact) < 1e-8


def test_ginibre_mellin_values():
    w = ginibre_weight(0.0)
    assert w.mellin(1) == pytest.approx(1.0)
    assert w.mellin(3) == pytest.approx(2.0)   # Gamma(3)
    assert w.mellin(5) == pytest.approx(24.0)  # Gamma(5)


def test_density_normalized():
    from scipy import integrate
    for w in (ginibre_weight(0.7), jacobi_weight(0.3, 0.4, 2)):
        hi = min(w.support[1], w.tail)
        val, _ = integrate.quad(lambda t: float(w.density(t)), 0, hi)
        assert val == pytest.approx(1.0, abs=1e-9)


def test_density_deriv_matches_finite_difference():
    # column k of the jet is -a d/da of column k - 1
    for w in (ginibre_weight(1.0), jacobi_weight(1.0, 0.5, 1)):
        for k in (1, 2, 3):
            a = 0.37
            h = 1e-5
            stencil = [w.neg_xdx(a + i * h, k - 1)[k - 1] for i in (-1, 1)]
            fd = -a * (stencil[1] - stencil[0]) / (2 * h)
            assert w.neg_xdx(a, k)[k] == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize("w", [ginibre_weight(nu) for nu in (0.0, 0.5)] + [
    jacobi_weight(nu, mu, 2) for nu in (0.0, 0.5) for mu in (0.0, 1.0)],
    ids=["ginibre0", "ginibre-half", "jacobi00", "jacobi01", "jacobi-half0",
         "jacobi-half1"])
def test_neg_xdx_mellin_identity(w):
    # M[(-a d/da)^m A](s) = s^m M A(s), each table against quadrature
    for m in (1, 2, 3):
        s = 3.0
        num = mellin_numeric(lambda a: w.neg_xdx(a, m)[..., m], s,
                             support=w.support)
        assert abs(num - s ** m * w.mellin(s)) / abs(w.mellin(s)) < 1e-7


def test_mellin_convolution_factorizes():
    f = ginibre_weight(0.5)
    h = jacobi_weight(0.0, 0.0, 1)
    for s in (1.0, 2.0, 3.0):
        lhs = mellin_numeric(lambda y: mellin_convolve(f, h, y), s,
                             support=(0.0, f.tail))
        rhs = f.mellin(s) * h.mellin(s)
        assert abs(lhs - rhs) / abs(rhs) < 1e-8


def test_convolved_density_matches_quadrature():
    f = ginibre_weight(0.0)
    h = jacobi_weight(0.0, 0.0, 1)
    conv = convolved_weight(f, h)
    for y in (0.1, 0.7, 2.0, 5.0):
        assert conv(y) == pytest.approx(mellin_convolve(f, h, y), rel=1e-6)
    assert conv.support == (0.0, np.inf)
    assert conv.mellin(3.0) == f.mellin(3.0) * h.mellin(3.0)


def test_two_ginibre_convolution_is_meijer_g():
    # G^{2,0}_{0,2}(y | 0, 0) = 2 K_0(2 sqrt(y)) (Kuijlaars & Zhang 2014)
    g = ginibre_weight(0.0)
    y = np.array([0.01, 0.5, 5.0, 20.0])
    exact = 2.0 * special.k0(2.0 * np.sqrt(y))
    np.testing.assert_allclose(mellin_convolve(g, g, y), exact, rtol=1e-12)
    for yi, ei in zip(y, exact):
        assert mellin_convolve(g, g, yi) == pytest.approx(ei, rel=1e-12)
    np.testing.assert_allclose(convolved_weight(g, g)(y), exact, rtol=1e-9)


def _fold_meijer_g(factors, y):
    """Density of the fold of catalogued weights, given as (nu, beta) with
    beta = 2 (mu + n) for a Jacobi factor and None for a Ginibre one, at
    30 digits: the Meijer G-function whose Mellin transform is
    prod Gamma(s + 2 nu) / prod_Jacobi Gamma(s + 2 nu + beta + 1), times
    the normalizations of the factors."""
    with mpmath.workdps(30):
        a, b, c = [], [], mpmath.mpf(1)
        for nu, beta in factors:
            b.append(2 * nu)
            if beta is None:
                c /= mpmath.gamma(1 + 2 * nu)
            else:
                a.append(2 * nu + beta + 1)
                c *= mpmath.gamma(beta + 1) / mpmath.beta(1 + 2 * nu, beta + 1)
        return np.array([float(c * mpmath.meijerg([[], a], [b, []], yi))
                         for yi in y])


@pytest.mark.parametrize("weight, factors", [
    (lambda: convolved_weight(ginibre_weight(0.0), ginibre_weight(0.0)),
     [(0.0, None)] * 2),
    (lambda: ProductSpec((GinibreSpec(1),) * 3).weight, [(0.0, None)] * 3),
    (lambda: convolved_weight(ginibre_weight(0.5), ginibre_weight(1.0)),
     [(0.5, None), (1.0, None)]),
    (lambda: convolved_weight(jacobi_weight(0.0, 0.0, 2), ginibre_weight(0.5)),
     [(0.0, 4.0), (0.5, None)]),
    (lambda: ProductSpec((JacobiSpec(2, 2, 9), GinibreSpec(2),
                          GinibreSpec(2))).weight,
     [(0.0, 4.0), (0.0, None), (0.0, None)])],
    ids=["ginibre2", "ginibre3", "ginibre-half-one", "jacobi-ginibre-half",
         "jacobi-ginibre2"])
def test_fft_fold_matches_meijer_g(weight, factors):
    # relative 1e-9 where the density is above 1e-8 of its largest value on
    # the points, absolute 1e-10 of that value elsewhere; y = 1e-12 lies
    # far below the grid of a tabulated quadrature
    y = np.logspace(-12, np.log10(20.0), 60)
    exact = _fold_meijer_g(factors, y)
    err, top = np.abs(weight()(y) - exact), np.max(np.abs(exact))
    big = np.abs(exact) > 1e-8 * top
    assert np.all(err[big] <= 1e-9 * np.abs(exact[big]))
    assert np.all(err[~big] <= 1e-10 * top)


@pytest.mark.parametrize("f, h, factors", [
    (jacobi_weight(-0.25, -0.75, 1), jacobi_weight(0.0, -0.75, 1),
     [(-0.25, 0.5), (0.0, 0.5)]),
    (jacobi_weight(0.0, 0.0, 2), jacobi_weight(0.0, 0.5, 2),
     [(0.0, 4.0), (0.0, 5.0)])], ids=["prop45", "jacobi-jacobi"])
def test_bounded_fold_matches_meijer_g(f, h, factors):
    # from twenty decades below the support end to 1e-6 short of it
    y = np.concatenate([np.logspace(-20, -0.3, 50),
                        1.0 - np.logspace(-1, -6, 10)])
    exact = _fold_meijer_g(factors, y)
    err = np.abs(convolved_weight(f, h)(y) - exact)
    assert np.all(err <= 1e-9 * np.abs(exact) + 1e-11)


@pytest.mark.parametrize("nu1, nu2", [(0.5, 1.0), (1.0, 1.0)])
def test_fft_fold_reads_no_rounding_where_its_density_vanishes(nu1, nu2):
    # a strip edge below 0 puts c = edge + 1/2 below 0, and e^(-cu) blows
    # the FFT's rounding up at large y: the table stops where the FFT
    # resolves the density, and reads 0 above
    y = np.logspace(0, 27, 200)
    exact = 2.0 * y ** (nu1 + nu2) * special.kv(
        2 * (nu1 - nu2), 2.0 * np.sqrt(y)) / special.gamma(1 + 2 * nu1) \
        / special.gamma(1 + 2 * nu2)
    got = convolved_weight(ginibre_weight(nu1), ginibre_weight(nu2))(y)
    assert np.max(np.abs(got - exact)) <= 1e-8 * np.max(exact)


@pytest.mark.parametrize("g", [ginibre_weight(0.5), jacobi_weight(0.0, 0.0, 1)],
                         ids=["fft", "quadrature"])
def test_fold_of_a_signed_weight_keeps_its_sign(g):
    # nothing clamps a fold: a negated weight folds to the negated density
    h = jacobi_weight(0.0, 0.5, 1)
    neg = dataclasses.replace(h, density=lambda a: -h.density(a),
                              mellin=lambda s: -h.mellin(s))
    y = np.logspace(-8, np.log10(0.9), 40)
    want = -convolved_weight(g, h)(y)
    assert np.all(want < 0)
    np.testing.assert_array_equal(convolved_weight(g, neg)(y), want)


def test_fold_raises_where_its_table_has_no_value():
    # inside the support but below the table there is no value to read, nor
    # anywhere when the Mellin product is not finite; outside the support
    # the density is 0
    g = ginibre_weight(0.0)
    w = convolved_weight(g, g)
    with pytest.raises(DomainError):
        w(1e-30)
    with pytest.raises(DomainError):
        w(np.array([1e-30, 0.5]))
    assert w(np.array([0.0, -1.0, np.inf])).tolist() == [0.0, 0.0, 0.0]
    bad = dataclasses.replace(g, mellin=lambda s: np.full(np.shape(s), np.nan))
    with pytest.raises(DomainError):
        convolved_weight(g, bad)(0.5)


def test_quadrature_raises_on_nan_integrand():
    with pytest.raises(QuadratureError) as info:
        quad(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)
    assert info.value.value is not None and info.value.error is not None


def test_quadrature_raises_when_it_cannot_resolve():
    # 1/x is not integrable at 0: bisecting the first panel never meets
    # the gate
    with pytest.raises(QuadratureError) as info:
        quad(lambda x: 1.0 / x, 0.0, 1.0)
    assert np.isfinite(info.value.value)
    assert info.value.error > mellin.QUAD_RTOL * abs(info.value.value)


def test_quadrature_keeps_each_interval_within_the_panel_limit(monkeypatch):
    # every panel of sin(1e6 x) fails in every round, so the last round
    # must split only as many as the limit leaves
    evaluated = []
    panels = mellin._gl_panels

    def counting(f, a, b):
        evaluated.append(a.size)
        return panels(f, a, b)

    monkeypatch.setattr(mellin, "_gl_panels", counting)
    with pytest.raises(QuadratureError):
        quad(lambda x: np.sin(1e6 * x), 0.0, 1.0)
    # GL_PANELS to start, then two evaluated panels for each added one
    added = (sum(evaluated) - mellin.GL_PANELS) // 2
    assert mellin.GL_PANELS + added == mellin.QUAD_LIMIT


def test_error_estimate_bounds_closed_form_error(monkeypatch):
    estimates = []

    def recording(*args):
        out = quad(*args)
        estimates.append(out)
        return out

    monkeypatch.setattr(mellin, "quad", recording)
    checks = 0
    for nu in (0.0, 0.5, 1.0):
        for mu in (0.0, 0.5, 1.0):
            for w in (ginibre_weight(nu), jacobi_weight(nu, mu, 2)):
                for j in range(4):
                    s = 2 * j + 1
                    num = mellin_numeric(w, s)
                    _, error = estimates.pop()
                    assert abs(num - w.mellin(s)) <= error
                    checks += 1
    assert checks == 72


#: The catalogued weights whose transforms the Mellin suite checks.
_SUITE_WEIGHTS = [ginibre_weight(nu) for nu in (0.0, 0.5, 1.0)] + [
    jacobi_weight(nu, mu, 2) for nu in (0.0, 0.5, 1.0) for mu in (0.0, 1.0)]


@pytest.mark.parametrize("w", _SUITE_WEIGHTS, ids=[
    f"ginibre{nu}" for nu in (0.0, 0.5, 1.0)] + [
    f"jacobi{nu}-{mu}" for nu in (0.0, 0.5, 1.0) for mu in (0.0, 1.0)])
def test_mellin_window_takes_at_most_three_panel_rounds(w, monkeypatch):
    # the window starts where the exact handle bounds the cut mass, not at
    # 1e-280, so the quadrature needs at most two bisection rounds
    panels = mellin._gl_panels
    rounds = []

    def counting(*args):
        rounds.append(1)
        return panels(*args)

    monkeypatch.setattr(mellin, "_gl_panels", counting)
    for s in (1, 3, 5, 7):
        rounds.clear()
        num = mellin_numeric(w, s)
        assert len(rounds) <= 3, s
        assert abs(num - w.mellin(s)) < 1e-13 * abs(w.mellin(s))


def test_mellin_window_holds_where_its_bound_is_weak():
    # Re s - edge = 0.1: the bound puts the start near a = e^(-735), below
    # the least normal double, where the window starts instead
    w = ginibre_weight(-0.45)
    assert abs(mellin_numeric(w, 1.0) - w.mellin(1.0)) < 1e-12
    with pytest.raises(DomainError):
        mellin_numeric(w, 0.9)


def test_a_plain_callable_is_integrated_over_its_support(monkeypatch):
    # the nested convolution of the Mellin suite keeps its explicit window
    # [1e-280, tail]; only a WeightFunction's window comes from its handle
    windows = []

    def recording(f, lo, hi, *args):
        windows.append((lo, hi))
        return quad(f, lo, hi, *args)

    monkeypatch.setattr(mellin, "quad", recording)
    f, h = ginibre_weight(0.5), jacobi_weight(0.0, 0.0, 1)
    mellin_numeric(lambda y: mellin_convolve(f, h, y), 2.0,
                   support=(0.0, f.tail))
    assert windows[0] == (np.log(1e-280), np.log(f.tail))


def test_catalogued_weights_are_shared_per_parameter_set():
    # one weight per parameter set: the memos keyed on weights see the
    # same key however often a caller builds its weight
    assert ginibre_weight(0.5) is ginibre_weight(0.5)
    assert jacobi_weight(0.5, 1.0, 3) is jacobi_weight(0.5, 1.0, 3)
    assert ginibre_weight(0.5) is not ginibre_weight(0.25)
    for k in range(2 * mellin.MEMO):
        ginibre_weight(k / 100.0)
        jacobi_weight(k / 100.0, 0.0, 1)
    for factory in (ginibre_weight, jacobi_weight):
        assert factory.cache_info().currsize <= mellin.MEMO


def test_catalogue_rejects_parameters_outside_the_domain():
    with pytest.raises(DomainError):
        ginibre_weight(-0.6)
    with pytest.raises(DomainError):
        jacobi_weight(0.0, -1.6, 1)


@pytest.mark.parametrize("w", [ginibre_weight(0.0), ginibre_weight(1.0),
                               jacobi_weight(0.0, 0.0, 1),
                               jacobi_weight(0.5, 0.5, 2)],
                         ids=["ginibre0", "ginibre1", "jacobi001", "jacobi2"])
def test_density_deriv_finite_at_tiny_argument(w):
    # 2 nu is an integer in each case, so every column D^k A = a^(2 nu)
    # times a polynomial is finite at 0; the jet holds no a^(2 nu - k),
    # which on its own would overflow below a ~ 1e-154
    for k in range(1, 6):
        tiny, small = w.neg_xdx(1e-160, k)[k], w.neg_xdx(1e-100, k)[k]
        assert np.isfinite(tiny)
        assert tiny == pytest.approx(small, rel=1e-12, abs=1e-90)


def test_replace_density_keeps_weight_fields():
    for w in (ginibre_weight(0.5), jacobi_weight(0.0, 0.5, 2)):
        r = dataclasses.replace(w, density=lambda a: 2.0 * w.density(a))
        assert (r.mellin, r.jet, r.support, r.edge) \
            == (w.mellin, w.jet, w.support, w.edge)
        assert r(0.3) == 2.0 * w(0.3)
        assert np.array_equal(r.neg_xdx(0.3, 2), w.neg_xdx(0.3, 2))


#: Zero, negative, subnormal, NaN, large and interior arguments.
EDGE_ARGS = np.array([0.0, -0.0, -1.0, 5e-324, 1e-310, np.nan, 1e300, np.inf,
                      0.3, 0.999, 1.0, 2.0])


def _masked_ginibre(nu):
    """Density and jet columns D^k A = Q_k A of ginibre_weight(nu),
    assigned through a mask of the positive finite arguments; NaN at NaN,
    and 0 in a column where its exponential factor underflows to 0, where
    its polynomial can overflow."""
    two_nu = 2.0 * nu
    lognorm = special.loggamma(1.0 + two_nu)
    x = np.polynomial.Polynomial([0.0, 1.0])
    C = _jet_table(lambda q, c: (x - two_nu) * q - x * q.deriv(), 3)

    def density(a):
        out = np.where(np.isnan(a), np.nan, 0.0)
        pos = (a > 0) & (a < np.inf)
        out[pos] = np.exp(two_nu * np.log(a[pos]) - a[pos] - lognorm)
        if two_nu == 0.0:
            out[a == 0] = np.exp(-lognorm)
        return out

    def deriv(a, k):
        # (D^k A)(0) = (-2 nu)^k A(0): 0 at 2 nu = 0 and k >= 1
        out = np.where(np.isnan(a), np.nan, 0.0)
        pos = (a > 0) & (a < np.inf)
        g = np.exp(two_nu * np.log(a[pos]) - a[pos] - lognorm)
        out[pos] = np.where(g == 0.0, 0.0, _horner(a[pos], C[:, k]) * g)
        return out

    return density, deriv


def _masked_jacobi(nu, mu, n):
    """Density and jet columns D^k A = a^(2 nu) (1 - a)^(beta - k) R_k / B
    of jacobi_weight(nu, mu, n), assigned through a mask of the arguments
    in (0, 1); NaN at NaN."""
    two_nu, beta = 2.0 * nu, 2.0 * (mu + n)
    lognorm = _log_beta(1.0 + two_nu, beta + 1.0)
    x, one_m_x = np.polynomial.Polynomial([0.0, 1.0]), \
        np.polynomial.Polynomial([1.0, -1.0])
    C = _jet_table(lambda r, c: -two_nu * one_m_x * r + (beta - c) * x * r
                   - x * one_m_x * r.deriv(), 3)

    def density(a):
        out = np.where(np.isnan(a), np.nan, 0.0)
        ok = (a > 0) & (a < 1)
        out[ok] = np.exp(two_nu * np.log(a[ok])
                         + beta * np.log1p(-a[ok]) - lognorm)
        if two_nu == 0.0:
            out[a == 0] = np.exp(-lognorm)
        return out

    def deriv(a, k):
        # (D^k A)(0) = (-2 nu)^k A(0): 0 at 2 nu = 0 and k >= 1
        out = np.where(np.isnan(a), np.nan, 0.0)
        ok = (a > 0) & (a < 1)
        out[ok] = _horner(a[ok], C[:, k]) * np.exp(
            two_nu * np.log(a[ok]) + (beta - k) * np.log1p(-a[ok]) - lognorm)
        return out

    return density, deriv


@pytest.mark.parametrize("w,ref", [
    (ginibre_weight(nu), _masked_ginibre(nu)) for nu in (0.0, 0.5, -0.25)] + [
    (jacobi_weight(*p), _masked_jacobi(*p))
    for p in ((0.0, 0.0, 2), (0.5, 1.0, 2), (-0.25, 0.5, 1))])
def test_catalogued_weights_match_the_masked_formulas_bitwise(w, ref):
    density, deriv = ref
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(w.density(EDGE_ARGS), density(EDGE_ARGS))
        for a in EDGE_ARGS:
            assert np.array_equal(w.density(a), density(np.array([a]))[0],
                                  equal_nan=True)
        for k in (1, 2, 3):
            np.testing.assert_array_equal(w.neg_xdx(EDGE_ARGS, 3)[:, k],
                                          deriv(EDGE_ARGS, k))


#: Catalogued weights whose 2 nu is an integer: smooth up to a = 0.
SMOOTH_WEIGHTS = {"ginibre0": ginibre_weight(0.0),
                  "ginibre-half": ginibre_weight(0.5),
                  "ginibre1": ginibre_weight(1.0),
                  "jacobi0": jacobi_weight(0.0, 0.0, 2),
                  "jacobi-half": jacobi_weight(0.5, 1.0, 2)}


@given(name=st.sampled_from(sorted(SMOOTH_WEIGHTS)),
       inner=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=5),
       edges=st.lists(st.sampled_from([0.0, 1e-160, 1.0, 1.5]), max_size=3),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_jet_fast_and_masked_paths_agree_bitwise(name, inner, edges, data):
    # a stack wholly inside the open support skips the masks; one holding
    # 0, or 1 and beyond for Jacobi, takes them; a single argument takes
    # the route of its own
    w = SMOOTH_WEIGHTS[name]
    x = np.array(inner) * min(w.support[1], 6.0)
    a = np.array(data.draw(st.permutations(list(x) + edges)))
    jet = w.neg_xdx(a, 3)
    assert jet.shape == (a.size, 4)
    assert np.array_equal(w.density(a), [w.density(v) for v in a])
    assert np.array_equal(jet[:, 0], w.density(a))
    for k in range(4):
        assert np.array_equal(jet[:, k], [w.neg_xdx(v, 3)[k] for v in a])
    # each column is -a times the central difference of the one before
    # it, to its truncation and rounding
    h = 1e-5
    for v in x:
        scale = np.abs(w.neg_xdx(v, 5)).sum()
        for k in (1, 2, 3):
            fd = -v * (w.neg_xdx(v + h, k - 1)[k - 1]
                       - w.neg_xdx(v - h, k - 1)[k - 1]) / (2 * h)
            assert w.neg_xdx(v, k)[k] == pytest.approx(fd, rel=1e-7,
                                                       abs=1e-9 * scale)


def test_catalogued_weights_warn_on_overflow():
    # a^(2 nu) with 2 nu < 0 overflows at subnormal a; every catalogued
    # density and jet column returns the infinity and warns
    for w in (ginibre_weight(-0.49), jacobi_weight(-0.49, 0.0, 1)):
        for f in (w.density, lambda a: w.neg_xdx(a, 1)[1]):
            with pytest.warns(RuntimeWarning, match="overflow"):
                assert np.isinf(f(5e-324))


def test_convolved_weight_has_no_derivatives():
    # a weight without a closed-form jet keeps its density as column 0 and
    # refuses every (-a d/da)^c with c >= 1, and with it the
    # degenerate-limit density
    from antiprod.ensembles import jpdf_degenerate
    w = convolved_weight(ginibre_weight(0.0), ginibre_weight(0.0))
    assert w.jet is None
    assert w.neg_xdx(0.5, 0)[0] == w.density(0.5)
    with pytest.raises(DomainError):
        w.neg_xdx(0.5, 1)
    with pytest.raises(DomainError):
        jpdf_degenerate([0.5, 1.2], w)


def test_jacobi_density_and_derivatives_at_zero_are_their_limits():
    # at nu = 0 the density (1 - a)^beta / B and its jet are smooth at
    # a = 0, as the Ginibre ones are, with (D^k A)(0) = (-2 nu)^k A(0)
    for w in (jacobi_weight(0.0, 0.0, 1), jacobi_weight(0.0, 0.5, 2)):
        assert w.density(0.0) == pytest.approx(w.density(1e-12), rel=1e-10)
        for k in (1, 2, 3, 4):
            at0, near = w.neg_xdx(np.array([0.0, 1e-12]), k)[:, k]
            assert at0 == pytest.approx(near, rel=1e-10, abs=1e-9)
    w = jacobi_weight(0.0, 0.0, 1)
    assert w.density(0.0) == pytest.approx(3.0, rel=1e-15)
    assert w.neg_xdx(0.0, 3).tolist() == [w.density(0.0), 0.0, 0.0, 0.0]
    # D A = 6 a (1 - a), D^2 A = -6 a + 12 a^2, D^3 A = 6 a - 24 a^2
    assert w.neg_xdx(0.25, 3)[1:].tolist() \
        == pytest.approx([1.125, -0.75, 0.0], rel=1e-15, abs=1e-15)
