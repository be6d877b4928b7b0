import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize

from antiprod.ensembles import (PolynomialEnsembleSpec, convolve_ensemble,
                                fixed_base_weights, jpdf_fixed,
                                muttalib_borodin_weights)
from antiprod import kernels
from antiprod.kernels import (biorth_fixed, chi_poly, correlation_Rk,
                              gram_biorth, kernel_fixed, kernel_fixed_contour,
                              kernel_poly)
from antiprod.linalg import DomainError, SingularSpectrum
from antiprod.mellin import (convolved_weight, ginibre_weight, jacobi_weight,
                             mellin_convolve)

GW = ginibre_weight(0.0)


def test_chi_examples():
    # n = 1 keeps only the constant term 1 / M A(1) = 1
    assert chi_poly(GW, 0.7, 1) == pytest.approx(1.0, rel=1e-14)
    # next term divides z^2 by M A(3) = Gamma(3) = 2
    z = 0.6
    assert chi_poly(GW, z, 2) == pytest.approx(1.0 + z * z / 2.0, rel=1e-14)


def test_fixed_gram_is_identity():
    sys = biorth_fixed([1.0, 2.0], GW)
    assert np.max(np.abs(sys.gram_matrix() - np.eye(2))) < 1e-8


def test_gram_biorth_is_biorthonormal():
    base = PolynomialEnsembleSpec(2, muttalib_borodin_weights(0.5, 0.5, 2))
    sys = gram_biorth(base)
    assert np.max(np.abs(sys.gram_matrix() - np.eye(2))) < 1e-8


@pytest.mark.parametrize("nu", [0.0, 0.5])
def test_gram_biorth_of_fixed_base_weights_is_the_fixed_kernel(nu):
    # one ensemble, two systems; at n = 4 the rows of the Gram matrix of
    # gram_biorth grow like Gamma(2i + 1 + 2 nu), and its inverse keeps
    # 1e-15 of max K only when they are scaled (unscaled: 2.2e-14)
    base, y = [0.6, 1.3, 1.3, 1.3], np.array([0.05, 0.3, 0.9, 1.7, 2.8, 5.9])
    w = ginibre_weight(nu)
    want = biorth_fixed(base, w).diagonal(y)
    spec = PolynomialEnsembleSpec(4, fixed_base_weights(base, w))
    got = gram_biorth(spec).diagonal(y)
    assert np.max(np.abs(got - want)) < 4e-15 * np.max(want)


def test_gram_biorth_rejects_singular_bimoments():
    with pytest.raises((DomainError, ArithmeticError)):
        gram_biorth(PolynomialEnsembleSpec(2, (GW, GW)))


@pytest.mark.parametrize("n", [2, 3])
def test_fixed_base_is_continuous_at_degeneracy(n):
    # base 1 + gap (0, ..., n - 1) against the confluent base of ones: the
    # kernel diagonal moves by less than gap and the density by O(gap);
    # the density's gradient in the base is symmetric at the base of ones,
    # so against that base scaled to the same mean it agrees to O(gap^2)
    y = np.array([0.3, 1.0, 2.5])
    a = y[:n]
    ones = biorth_fixed([1.0] * n, GW)
    assert ones.gram_offdiag < 1e-12
    for gap in (1e-2, 1e-3, 1e-4):
        base = 1.0 + gap * np.arange(n)
        diag = biorth_fixed(base, GW).diagonal(y)
        assert np.max(np.abs(diag / ones.diagonal(y) - 1.0)) < gap
        val = jpdf_fixed(a, base, GW)
        assert abs(val / jpdf_fixed(a, [1.0] * n, GW) - 1.0) < 10.0 * gap
        mean = jpdf_fixed(a, [base.mean()] * n, GW)
        assert abs(val / mean - 1.0) < 10.0 * gap ** 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_degenerate_base_kernel_traces_n(n):
    # the confluent system of the base of ones is bi-orthonormal, its
    # diagonal integrates to n, and at n = 2 it is twice the marginal of
    # jpdf_degenerate
    from antiprod.ensembles import jpdf_degenerate
    sys = biorth_fixed([1.0] * n, GW)
    assert sys.gram_offdiag < 1e-12
    val, _ = integrate.quad(sys.diagonal, 0, 200, limit=400, epsabs=0,
                            epsrel=1e-12)
    assert val == pytest.approx(n, rel=1e-10)
    if n == 2:
        for y in (0.3, 1.0, 2.5):
            marg, _ = integrate.quad(lambda x: jpdf_degenerate([y, x], GW),
                                     0, np.inf, epsabs=0, epsrel=1e-12)
            assert sys.diagonal(y) == pytest.approx(2.0 * marg, rel=1e-10)
    with pytest.raises(DomainError):
        kernel_fixed_contour(0.5, 0.5, [1.0] * n, GW)


def test_kernel_fixed_rejects_a_system_of_another_factor():
    # the p_j of a system are the chi transforms under its own factor; they
    # would pair with the q_j of that factor whatever factor is passed
    at = [1.0, 2.0]
    sys = biorth_fixed(at, GW)
    for method in ("series", "contour"):
        with pytest.raises(DomainError):
            kernel_fixed(0.4, 0.9, at, ginibre_weight(0.5), method=method,
                         system=sys)
        assert kernel_fixed(0.4, 0.9, at, GW, method=method, system=sys) \
            == kernel_fixed(0.4, 0.9, at, GW, method=method)


def test_kernel_fixed_rejects_a_system_of_another_base():
    # the base only sets the contour radius, so a system of base (1, 2)
    # passed with base (1, 3) would return the (1, 2) kernel
    sys = biorth_fixed([1.0, 2.0], GW)
    assert sys.base == (1.0, 2.0)
    for method in ("series", "contour"):
        with pytest.raises(DomainError, match="another base"):
            kernel_fixed(0.4, 0.9, [1.0, 3.0], GW, method=method, system=sys)
        # the base in another order is the same base
        assert kernel_fixed(0.4, 0.9, [2.0, 1.0], GW, method=method,
                            system=sys) \
            == kernel_fixed(0.4, 0.9, [1.0, 2.0], GW, method=method)
    # a polynomial-ensemble system under this factor has no fixed base
    poly = gram_biorth(
        PolynomialEnsembleSpec(2, fixed_base_weights([1.0, 2.0], GW)))
    with pytest.raises(DomainError, match="another base"):
        kernel_fixed(0.4, 0.9, [1.0, 2.0], GW,
                     system=dataclasses.replace(poly, factor=GW))


def test_gram_biorth_builds_its_bimoments_once():
    # the bimoment matrix of the COND_MAX gate is the Gram matrix at
    # ptilde = 1: one Mellin table for both, one more for gram_offdiag
    calls = []

    def counted(w):
        def mellin(s):
            calls.append(w)
            return w.mellin(s)
        return dataclasses.replace(w, mellin=mellin)

    weights = fixed_base_weights([1.0, 2.0], GW)
    sys = gram_biorth(PolynomialEnsembleSpec(
        2, tuple(counted(w) for w in weights)))
    assert len(calls) == 2 * len(weights)
    assert all(calls.count(w) == 2 for w in weights)
    # the construction that builds G itself gives the same system
    old = kernels._biorth(weights, None)
    assert sys.gram_offdiag == old.gram_offdiag
    assert np.array_equal(sys.ptilde_coeffs, old.ptilde_coeffs)


def test_kernel_n1_is_weight_density():
    # single block: K(y, y) must reduce to the factor density itself
    sys = biorth_fixed([1.0], GW)
    for y in (0.3, 1.0, 2.5):
        val = kernel_fixed(y, y, [1.0], GW, system=sys)
        assert val == pytest.approx(np.exp(-y), rel=1e-9)


def test_kernel_methods_agree_ginibre():
    at = [1.0, 2.0]
    sys = biorth_fixed(at, GW)
    pts = [(0.4, 0.9), (1.5, 0.7), (2.4, 2.4)]
    for yp, y in pts:
        series = kernel_fixed(yp, y, at, GW, method="series", system=sys)
        contour = kernel_fixed(yp, y, at, GW, method="contour", system=sys)
        double = kernel_fixed_contour(yp, y, at, GW)
        assert contour == pytest.approx(series, rel=1e-9, abs=1e-12)
        assert double == pytest.approx(series, rel=1e-7, abs=1e-10)


def test_kernel_methods_agree_jacobi():
    jw = jacobi_weight(0.0, 0.0, 2)
    at = [0.5, 0.9]
    sys = biorth_fixed(at, jw)
    for yp, y in [(0.05, 0.15), (0.25, 0.4), (0.15, 0.05)]:
        series = kernel_fixed(yp, y, at, jw, method="series", system=sys)
        double = kernel_fixed_contour(yp, y, at, jw)
        assert double == pytest.approx(series, rel=1e-6, abs=1e-9)


def test_kernel_trace_counts_points():
    at = [1.0, 2.0]
    sys = biorth_fixed(at, GW)
    val, _ = integrate.quad(
        lambda y: kernel_fixed(y, y, at, GW, method="series", system=sys),
        0, 40, limit=200)
    assert val == pytest.approx(2.0, abs=1e-5)


def test_kernel_diag_r2_vanishes():
    at = [1.0, 2.0]
    sys = biorth_fixed(at, GW)

    def K(yp, y):
        return kernel_fixed(yp, y, at, GW, method="series", system=sys)

    for y in (0.5, 1.3, 2.6):
        assert abs(correlation_Rk([y, y], K)) < 1e-10


def test_r2_nonnegative_at_random_pairs():
    rng = np.random.default_rng(7)
    at = [1.0, 2.0]
    sys = biorth_fixed(at, GW)

    def K(yp, y):
        return kernel_fixed(yp, y, at, GW, method="series", system=sys)

    for _ in range(5):
        pts = rng.uniform(0.1, 4.0, size=2)
        assert correlation_Rk(pts, K) > -1e-10


def test_double_contour_rejects_degenerate_base():
    # the frame memo keeps no exception: a repeated call raises again
    for _ in range(2):
        with pytest.raises(DomainError):
            kernel_fixed_contour(0.5, 0.5, [1.0, 1.0], GW)


def _folded_kernel_rel(inner, outer, base, yp, y, folded_outer=None):
    """Largest |difference| over the largest |value|, on the grid
    (yp[:, None], y), of two builds of the kernel of the fixed base under
    inner and then outer: kernel_poly of outer on the Gram system of the
    base under inner, and the series kernel_fixed of the folded weight
    folded_outer (*) inner (folded_outer defaults to outer)."""
    folded_outer = outer if folded_outer is None else folded_outer
    sys = gram_biorth(PolynomialEnsembleSpec(
        len(base), fixed_base_weights(base, inner)))
    yp = np.asarray(yp, dtype=float)[:, None]
    got = kernel_poly(yp, y, sys, outer)
    want = kernel_fixed(yp, y, base, convolved_weight(folded_outer, inner),
                        method="series")
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_kernel_poly_matches_the_folded_fixed_kernel():
    # one ensemble built two ways: a second factor applied to the Gram
    # system of the first, against the fixed-base kernel of the folded
    # weight; the twin folds a different outer factor and must fail
    pts = [0.3, 0.8, 1.4, 2.2, 3.5]
    assert _folded_kernel_rel(GW, GW, [1.0, 2.0], pts, pts) < 1e-8
    jw, g5 = jacobi_weight(0.0, 0.0, 2), ginibre_weight(0.5)
    pts = [0.05, 0.2, 0.4, 0.7, 1.1]
    assert _folded_kernel_rel(jw, g5, [0.5, 0.9, 1.3], pts, pts) < 1e-8
    assert _folded_kernel_rel(jw, g5, [0.5, 0.9, 1.3], pts, pts,
                              folded_outer=ginibre_weight(0.75)) > 0.1


def test_kernel_poly_at_a_root_of_a_dual_convolution():
    # at the base of ones the duals are the columns A and -a A' of the
    # inner factor; the second changes sign at a = 2 nu = 1, and so does
    # its convolution with the outer factor, near y = 1.424: there the
    # convolution integral is zero while its integrand is not
    inner, outer = ginibre_weight(0.5), ginibre_weight(1.0)
    spec = PolynomialEnsembleSpec(2, fixed_base_weights([1.0, 1.0], inner))
    sys = gram_biorth(spec)

    def q1(y):
        return mellin_convolve(outer, sys.qtilde[1], y)

    root = optimize.brentq(q1, 1.3, 1.5, xtol=1e-15)
    assert abs(q1(root)) < 1e-15
    got = kernel_poly(0.4, root, sys, outer)
    assert np.isfinite(got)
    # the same kernel from the bimoments of the convolved weights
    want = gram_biorth(convolve_ensemble(spec, outer)).kernel(0.4, root)
    assert abs(got - want) / abs(want) < 1e-8


def test_kernel_poly_diag_r2_vanishes():
    # the kernel of base convolved with one more factor is still a
    # projection-type kernel, so R2 on the diagonal must vanish
    base = PolynomialEnsembleSpec(2, fixed_base_weights([1.0, 2.0], GW))
    sys = gram_biorth(base)

    def K(yp, y):
        return kernel_poly(yp, y, sys, GW)

    assert abs(correlation_Rk([1.1, 1.1], K)) < 1e-9


def test_diagonal_over_n_is_the_jpdf_marginal_n3():
    # A(a) = (1 - a)^6 makes jpdf_fixed piecewise polynomial of degree <= 10
    # in each entry between the base values, where 8-node Gauss-Legendre
    # panels integrate it exactly
    base = [0.5, 0.9, 1.3]
    jw = jacobi_weight(0.0, 0.0, 3)
    nodes, wts = np.polynomial.legendre.leggauss(8)
    breaks = [0.0] + base
    x = np.concatenate([(b - a) / 2 * nodes + (b + a) / 2
                        for a, b in zip(breaks[:-1], breaks[1:])])
    w = np.concatenate([(b - a) / 2 * wts
                        for a, b in zip(breaks[:-1], breaks[1:])])
    ys = np.array([0.07, 0.33, 0.61, 1.02])
    marg = [w @ np.array([[jpdf_fixed([y, u, v], base, jw) for v in x]
                          for u in x]) @ w
            for y in ys]
    diag = biorth_fixed(base, jw).diagonal(ys) / 3
    np.testing.assert_allclose(diag, marg, rtol=1e-12, atol=0)


def test_diagonal_matches_series_kernel_pointwise():
    # on the Ginibre grid, y * y and the scalar y ** 2 differ in the last
    # bit at one point, which the series kernel would then show
    for base, w in (([1.0, 2.0], GW), ([0.5, 0.9, 1.3],
                                        jacobi_weight(0.0, 0.0, 3))):
        sys = biorth_fixed(base, w)
        ys = np.linspace(1e-4, 3.0 * max(base), 300)
        want = [kernel_fixed(y, y, base, w, method="series", system=sys)
                for y in ys]
        assert sys.diagonal(ys).tolist() == want


def test_convolved_factor_double_contour_raises():
    # a tabulated convolution has no continuation to complex arguments, and
    # casting them to real would give a wrong kernel without an error
    g = ginibre_weight(0.0)
    with pytest.raises(DomainError):
        kernel_fixed_contour(0.7, 0.9, [1.0, 2.0], convolved_weight(g, g))


@given(yp=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=3),
       y=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=3))
@settings(max_examples=15, deadline=None)
def test_kernels_on_a_grid_match_per_point_calls_bitwise(yp, y):
    at = [1.0, 2.0]
    sysf = biorth_fixed(at, GW)
    sysp = gram_biorth(PolynomialEnsembleSpec(2, fixed_base_weights(at, GW)))
    grid = np.asarray(yp)[:, None], np.asarray(y)[None, :]
    for K in (lambda a, b: kernel_fixed(a, b, at, GW, method="series",
                                        system=sysf),
              lambda a, b: kernel_fixed(a, b, at, GW, method="contour",
                                        system=sysf),
              lambda a, b: kernel_poly(a, b, sysp, GW)):
        per_point = [[K(a, b) for b in y] for a in yp]
        assert all(type(v) is float for row in per_point for v in row)
        assert np.array_equal(K(*grid), per_point)


def _direct_double_contour(yp, y, base, w):
    """The double-contour trapezoid sum over the full (z', z) node tensor,
    N_NODES nodes on every circle."""
    m = kernels.N_NODES
    av = np.sort(np.asarray(base, dtype=float))
    n = av.size
    rho = 0.25 * min([2.0 * av[0]] + list(np.diff(av)))
    rprime = 0.5 * (av[0] - rho)
    circle = lambda m: np.exp(2j * np.pi * np.arange(m) / m)
    wz = circle(m)
    zpole = av[:, None] + rho * wz[None, :]
    zp = rprime * circle(m)
    sq = av * av
    num = np.prod(sq[None, :] - (zp ** 2)[:, None], axis=1)
    den = np.prod(sq[None, None, :] - (zpole ** 2)[..., None], axis=-1)
    frac = 1.0 / ((zp ** 2)[:, None, None] - (zpole ** 2)[None, :, :])
    integrand = (chi_poly(w, yp / zp, n) * num)[:, None, None] \
        * (w.density(y / zpole) / den * wz[None, :])[None, :, :] * frac
    return np.mean((2.0 * rho / m) * np.sum(integrand, axis=(1, 2))).real


@pytest.mark.parametrize("w,base,pts", [
    (ginibre_weight(0.5), [0.9, 1.8], [0.3, 0.8, 1.4, 2.6]),
    (ginibre_weight(0.5), [1.0, 2.0, 3.0], [0.4, 1.1, 2.2, 3.5]),
    (jacobi_weight(0.0, 0.0, 2), [0.5, 0.9], [0.05, 0.15, 0.3, 0.45]),
])
def test_double_contour_matches_the_direct_node_sum(w, base, pts):
    pts = np.array(pts)
    got = kernel_fixed_contour(pts[:, None], pts, base, w)
    want = [[_direct_double_contour(a, b, base, w) for b in pts] for a in pts]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


@given(yp=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=4),
       y=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=4))
@settings(max_examples=15, deadline=None)
def test_double_contour_on_a_grid_matches_per_point_calls_bitwise(yp, y):
    at = [1.0, 2.0]
    per_point = [[kernel_fixed_contour(a, b, at, GW) for b in y] for a in yp]
    assert all(type(v) is float for row in per_point for v in row)
    grid = kernel_fixed_contour(np.asarray(yp)[:, None], y, at, GW)
    assert np.array_equal(grid, per_point)
    assert np.array_equal(kernel_fixed_contour(y, y, at, GW),
                          [kernel_fixed_contour(b, b, at, GW) for b in y])


def test_double_contour_frame_is_shared_by_equal_bases():
    kernels._contour_frame.cache_clear()
    for base in ([0.9, 1.8], np.array([1.8, 0.9]),
                 SingularSpectrum.from_values([0.9, 1.8])):
        kernel_fixed_contour(0.4, 0.7, base, GW)
    info = kernels._contour_frame.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    kernel_fixed_contour(0.4, 0.7, [0.9, 1.7], GW)
    assert kernels._contour_frame.cache_info().currsize == 2

