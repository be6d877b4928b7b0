import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from antiprod.ensembles import (PolynomialEnsembleSpec, corank2_jpdf,
                                convolve_ensemble, degenerate_weights,
                                fixed_base_weights, jpdf_degenerate,
                                jpdf_fixed,
                                muttalib_borodin_weights, product_weights)
from antiprod.linalg import DomainError
from antiprod.mellin import ginibre_weight, jacobi_weight

GW = ginibre_weight(0.0)
JW1 = jacobi_weight(0.0, 0.0, 1)


def test_fixed_n1_ginibre_is_exponential():
    for a in (0.2, 1.0, 3.3):
        assert jpdf_fixed([a], [1.0], GW) == pytest.approx(np.exp(-a),
                                                           rel=1e-12)
    # scaling covariance: base 2 stretches the spectrum
    assert jpdf_fixed([1.0], [2.0], GW) == pytest.approx(np.exp(-0.5) / 2.0,
                                                         rel=1e-12)


def test_degenerate_n1_jacobi_cubic():
    for a in (0.1, 0.5, 0.9):
        assert jpdf_degenerate([a], JW1) == pytest.approx(3 * (1 - a) ** 2,
                                                          rel=1e-10)


def test_fixed_n2_normalizes():
    val, err = integrate.dblquad(
        lambda y, x: jpdf_fixed([x, y], [1.0, 2.0], GW),
        0, 60, lambda x: x, lambda x: 60)
    assert 2.0 * val == pytest.approx(1.0, abs=1e-6)


def test_degenerate_n2_normalizes():
    val, err = integrate.dblquad(
        lambda y, x: jpdf_degenerate([x, y], GW),
        0, 60, lambda x: x, lambda x: 60)
    assert 2.0 * val == pytest.approx(1.0, abs=1e-6)


def test_jacobi_fixed_n2_normalizes():
    jw2 = jacobi_weight(0.0, 0.0, 2)
    val, err = integrate.dblquad(
        lambda y, x: jpdf_fixed([x, y], [0.5, 0.9], jw2),
        0, 1, lambda x: x, lambda x: 1)
    assert 2.0 * val == pytest.approx(1.0, abs=1e-6)


def test_near_degenerate_base_matches_degenerate_limit():
    pts = [(0.5, 1.5), (1.0, 2.0), (0.3, 0.9), (2.0, 3.5), (0.1, 4.0)]
    for x, y in pts:
        fixed = jpdf_fixed([x, y], [1.0, 1.0 + 1e-3], GW)
        deg = jpdf_degenerate([x, y], GW)
        assert abs(fixed - deg) / deg < 5e-3


def test_fully_degenerate_base_scales():
    lam = 2.0
    val = jpdf_fixed([0.5, 1.5], [lam, lam], GW)
    ref = jpdf_degenerate([0.5 / lam, 1.5 / lam], GW) / lam ** 2
    assert val == pytest.approx(ref, rel=1e-12)


def test_partial_degeneracy_n3():
    a = [0.5, 1.2, 2.5]
    conf = jpdf_fixed(a, [1.0, 1.0, 2.0], GW)
    near = jpdf_fixed(a, [1.0, 1.0 + 1e-5, 2.0], GW)
    assert conf == pytest.approx(near, rel=1e-3)


@given(st.permutations([0.4, 1.1, 2.3]))
@settings(max_examples=10, deadline=None)
def test_density_symmetric_in_input_order(perm):
    ref = jpdf_fixed([0.4, 1.1, 2.3], [1.0, 2.0, 3.0], GW)
    assert jpdf_fixed(list(perm), [1.0, 2.0, 3.0], GW) == pytest.approx(
        ref, rel=1e-12)


def test_corank2_piecewise_n2():
    a = [1.0, 2.0]
    assert corank2_jpdf([0.5], a) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert corank2_jpdf([1.5], a) == pytest.approx(
        2.0 * (2.0 - 1.5) / (4.0 - 1.0), rel=1e-14)
    assert corank2_jpdf([2.5], a) == 0.0
    val, _ = integrate.quad(lambda x: corank2_jpdf([x], a), 0, 1)
    val2, _ = integrate.quad(lambda x: corank2_jpdf([x], a), 1, 2)
    assert val + val2 == pytest.approx(1.0, abs=1e-10)


def test_corank2_input_validation():
    with pytest.raises(DomainError):
        corank2_jpdf([0.5], [1.0])
    with pytest.raises(DomainError):
        corank2_jpdf([0.5, 0.7], [1.0, 2.0])
    with pytest.raises(DomainError):
        corank2_jpdf([0.5], [1.0, 1.0])


def test_ensemble_spec_norm_matches_fixed_constant():
    spec = PolynomialEnsembleSpec(2, fixed_base_weights([1.0, 2.0], GW))
    for a in ([0.5, 1.5], [1.0, 3.0]):
        assert spec.density(a) == pytest.approx(
            jpdf_fixed(a, [1.0, 2.0], GW), rel=1e-10)


def test_ensemble_spec_rejects_wrong_count():
    with pytest.raises(DomainError):
        PolynomialEnsembleSpec(3, fixed_base_weights([1.0, 2.0], GW))


def test_degenerate_weights_mellin():
    w = degenerate_weights(GW, 3)
    for c, wc in enumerate(w):
        assert wc.mellin(3.0) == pytest.approx(3.0 ** c * GW.mellin(3.0),
                                               rel=1e-12)


def test_muttalib_borodin_weights_mellin():
    from antiprod.mellin import mellin_numeric
    w = muttalib_borodin_weights(0.5, 0.5, 2)
    for wc in w:
        num = mellin_numeric(wc, 2.0)
        assert abs(num - wc.mellin(2.0)) / abs(wc.mellin(2.0)) < 1e-8


def test_product_weights_mellin_is_product():
    base = PolynomialEnsembleSpec(1, fixed_base_weights([1.0], GW))
    spec = product_weights(base, [GW, GW])
    expect = GW.mellin(3.0) ** 3
    assert spec.weights[0].mellin(3.0) == pytest.approx(expect, rel=1e-12)


def test_fact_poly_n1_normalizes():
    base = PolynomialEnsembleSpec(1, fixed_base_weights([1.0], GW))
    density = convolve_ensemble(base, GW).density
    val, _ = integrate.quad(lambda y: density([y]), 0, 200, limit=300)
    assert val == pytest.approx(1.0, abs=1e-5)


def test_convolve_preserves_n():
    base = PolynomialEnsembleSpec(2, fixed_base_weights([1.0, 2.0], GW))
    spec = convolve_ensemble(base, GW)
    assert spec.n == 2
    assert np.isfinite(spec.norm_constant)


def test_tiny_spectrum_entry_stays_finite():
    # the confluent and degenerate columns use A^(k) at a ~ 1e-160, where
    # a^(2 nu - k) on its own overflows
    deg = [jpdf_degenerate([lo, 1.0, 2.0], GW) for lo in (1e-160, 1e-100)]
    assert deg[0] == pytest.approx(deg[1], rel=1e-12)
    base = [0.8, 1.5, 1.5, 1.5]
    fixed = [jpdf_fixed([lo, 0.5, 1.0, 2.0], base, GW)
             for lo in (1e-160, 1e-100)]
    assert fixed[0] > 0.0
    assert fixed[0] == pytest.approx(fixed[1], rel=1e-12)


def test_triple_base_entry_n4_matches_split_base():
    for a in ([0.3, 0.9, 1.7, 3.1], [0.6, 1.2, 2.2, 4.0]):
        conf = jpdf_fixed(a, [0.8, 1.5, 1.5, 1.5], GW)
        split = jpdf_fixed(a, [0.8, 1.5 - 1e-4, 1.5, 1.5 + 1e-4], GW)
        assert conf == pytest.approx(split, rel=1e-5)
