import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize

from antiprod.ensembles import (PolynomialEnsembleSpec, fixed_base_weights,
                                jpdf_fixed, muttalib_borodin_weights)
from antiprod.kernels import (ContourError, ContourSpec,
                              biorth_fixed, chi_poly, correlation_Rk,
                              gram_biorth, kernel_fixed, kernel_fixed_contour,
                              kernel_poly)
from antiprod.linalg import DomainError
from antiprod.mellin import (convolved_weight, ginibre_weight, jacobi_weight,
                             mellin_convolve)

GW = ginibre_weight(0.0)


def test_chi_examples():
    # m1 = m2 = 0 keeps only the constant term 1 / M A(1) = 1
    assert chi_poly(GW, 0.7, 0, 0) == pytest.approx(1.0, rel=1e-14)
    # next term divides z^2 by M A(3) = Gamma(3) = 2
    z = 0.6
    assert chi_poly(GW, z, 0, 1) == pytest.approx(1.0 + z * z / 2.0,
                                                  rel=1e-14)


def test_contour_spec_validation():
    with pytest.raises(DomainError):
        ContourSpec(n_nodes=100)
    with pytest.raises(DomainError):
        ContourSpec(n_nodes=32)
    ContourSpec(n_nodes=64, nodes_per_circle=128)


def test_fixed_gram_is_identity():
    sys = biorth_fixed([1.0, 2.0], GW)
    assert np.max(np.abs(sys.gram_matrix() - np.eye(2))) < 1e-8


def test_gram_biorth_modes_agree():
    base = PolynomialEnsembleSpec(2, muttalib_borodin_weights(0.5, 0.5, 2))
    for mode in ("triangular", "dual_weights"):
        sys = gram_biorth(base, mode=mode)
        g = sys.gram_matrix()
        assert np.max(np.abs(g - np.eye(2))) < 1e-8


def test_gram_biorth_rejects_singular_bimoments():
    with pytest.raises((DomainError, ArithmeticError)):
        w = fixed_base_weights([1.0, 1.0 + 1e-13], GW)
        gram_biorth(PolynomialEnsembleSpec(2, w))


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


def test_double_contour_collision_raises():
    with pytest.raises(ContourError):
        kernel_fixed_contour(0.5, 0.5, [1.0, 2.0], GW,
                             contour=ContourSpec(radius=0.95, rho=0.25))


def test_double_contour_rejects_degenerate_base():
    with pytest.raises(DomainError):
        kernel_fixed_contour(0.5, 0.5, [1.0, 1.0], GW)


def test_kernel_poly_methods_agree():
    base = PolynomialEnsembleSpec(2, fixed_base_weights([1.0, 2.0], GW))
    sys = gram_biorth(base)
    for yp, y in [(0.4, 0.9), (1.5, 0.7)]:
        series = kernel_poly(yp, y, sys, GW, method="series")
        contour = kernel_poly(yp, y, sys, GW, method="contour")
        assert contour == pytest.approx(series, rel=1e-8, abs=1e-12)


def test_kernel_poly_at_a_root_of_a_dual_convolution():
    # q_1 is orthogonal to p_0, so factor (*) q_1 changes sign; at its root
    # the convolution integral is zero while its integrand is not
    base = PolynomialEnsembleSpec(2, fixed_base_weights([1.0, 2.0], GW))
    sys = gram_biorth(base)

    def q1(y):
        return mellin_convolve(GW, sys.qtilde[1], y)

    root = optimize.brentq(q1, 0.8, 0.9, xtol=1e-15)
    assert abs(q1(root)) < 1e-15
    series = kernel_poly(0.4, root, sys, GW, method="series")
    contour = kernel_poly(0.4, root, sys, GW, method="contour")
    assert np.isfinite(series)
    assert contour == pytest.approx(series, rel=1e-8, abs=1e-12)


def test_kernel_poly_diag_r2_vanishes():
    # the kernel of base convolved with one more factor is still a
    # projection-type kernel, so R2 on the diagonal must vanish
    base = PolynomialEnsembleSpec(2, fixed_base_weights([1.0, 2.0], GW))
    sys = gram_biorth(base)

    def K(yp, y):
        return kernel_poly(yp, y, sys, GW, method="series")

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


def test_custom_factor_double_contour_raises():
    # the custom density cannot be continued to the complex y / z of the
    # pole circles, so the double contour refuses it; the series form
    # needs real arguments only
    from antiprod.mellin import a_sigma_custom
    w = a_sigma_custom(lambda r: r.standard_normal((2, 2)),
                       np.random.default_rng(6), nsamples=5_000)
    assert np.isfinite(kernel_fixed(0.7, 0.9, [1.0, 2.0], w,
                                    method="series"))
    with pytest.raises(DomainError):
        kernel_fixed_contour(0.7, 0.9, [1.0, 2.0], w)


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
    for method in ("series", "contour"):
        for K in (lambda a, b: kernel_fixed(a, b, at, GW, method=method,
                                            system=sysf),
                  lambda a, b: kernel_poly(a, b, sysp, GW, method=method)):
            per_point = [[K(a, b) for b in y] for a in yp]
            assert all(type(v) is float for row in per_point for v in row)
            assert np.array_equal(K(*grid), per_point)
