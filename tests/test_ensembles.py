import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from antiprod import ensembles as ens
from antiprod.ensembles import (PolynomialEnsembleSpec, corank2_jpdf,
                                convolve_ensemble, fixed_base_weights,
                                jpdf_degenerate, jpdf_fixed,
                                muttalib_borodin_weights)
from antiprod.kernels import biorth_fixed, gram_biorth
from antiprod.linalg import DomainError
from antiprod.mellin import (convolved_weight, ginibre_weight, jacobi_weight,
                             mellin_table)
from test_acceptance import _grid_mass

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


def test_degenerate_n2_normalizes():
    half_line = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    mass = _grid_mass(lambda a: jpdf_degenerate(a, GW), 2, half_line)
    assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fully_degenerate_densities_normalize(n):
    # A(a) = (1 - a)^(2n) makes both densities polynomials of degree
    # <= 4n - 2 in each entry on [0, 1], where the 10-point Gauss-Legendre
    # product rule is exact; one stacked call per density
    x, w = np.polynomial.legendre.leggauss(10)
    x, w = (x + 1.0) / 2.0, w / 2.0
    grid = np.stack(np.meshgrid(*[x] * n, indexing="ij"), axis=-1)
    jw = jacobi_weight(0.0, 0.0, n)
    for dens in (jpdf_degenerate(grid, jw), jpdf_fixed(grid, [1.0] * n, jw)):
        for _ in range(n):
            dens = dens @ w
        assert abs(dens - 1.0) < 1e-12


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


@pytest.mark.parametrize("x", [[0.5, 1e150], [0.5, 1e200], [-0.5, 1e200]],
                         ids=["1e150", "1e200", "negative"])
def test_corank2_huge_projection_entry_reads_zero(x):
    # Delta(x^2) overflows above x ~ 1.3e154; outside the support (above
    # the base or below 0) the density is 0, single and stacked
    a = [1.0, 2.0, 3.0]
    inside = [0.5, 2.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert corank2_jpdf(x, a) == 0.0
        assert np.array_equal(corank2_jpdf([inside, x], a),
                              [corank2_jpdf(inside, a), 0.0])
    # an infinite entry is no spectrum: +inf or -inf, single or stacked,
    # it raises
    with np.errstate(over="ignore", invalid="ignore"):
        for bad in ([0.5, np.inf], [-np.inf, 0.5]):
            for spectra in (bad, [bad, x]):
                with pytest.raises(DomainError, match="corank2_jpdf"):
                    corank2_jpdf(spectra, a)


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


def test_muttalib_borodin_weights_mellin():
    from antiprod.mellin import mellin_numeric
    w = muttalib_borodin_weights(0.5, 0.5, 2)
    for wc in w:
        num = mellin_numeric(wc, 2.0)
        assert abs(num - wc.mellin(2.0)) / abs(wc.mellin(2.0)) < 1e-8


def test_weights_state_their_strip_edge_and_take_arrays_of_s():
    # each constructor states the left edge of its Mellin strip (a fold
    # takes the larger of its parts'), every Mellin handle evaluates an
    # array of s as it does each point, and so does mellin_table, which
    # raises where a value is not finite
    mb = muttalib_borodin_weights(0.25, 0.5, 3)
    fixed = fixed_base_weights([1.0, 2.0], jacobi_weight(0.5, 0.0, 2))
    fold = convolved_weight(ginibre_weight(0.5), fixed[1])
    assert [w.edge for w in mb] == [-0.5, -1.5, -2.5]
    assert [w.edge for w in fixed] == [-1.0, -1.0]
    assert fold.edge == -1.0
    s = np.array([1.0, 2.5 + 0.5j, 4.0])
    weights = (*mb, *fixed, fold)
    for w in weights:
        np.testing.assert_array_equal(w.mellin(s), [w.mellin(x) for x in s])
    table = mellin_table(weights, s)
    assert table.shape == (3, 6) and table.dtype == complex
    assert np.array_equal(table, [[w.mellin(x) for w in weights] for x in s])
    assert np.array_equal(mellin_table(weights, s[:, None]), table[:, None])
    assert np.isnan(GW.mellin(0.0))
    with pytest.raises(DomainError):
        mellin_table((GW,), [1.0, 0.0])


def test_convolved_factor_mellin_is_product():
    base = PolynomialEnsembleSpec(1, fixed_base_weights([1.0], GW))
    spec = convolve_ensemble(base, convolved_weight(GW, GW))
    expect = GW.mellin(3.0) ** 3
    assert spec.weights[0].mellin(3.0) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("inner, outer, base", [
    (GW, GW, [1.0, 2.0]),
    (jacobi_weight(0.0, 0.0, 2), ginibre_weight(0.5), [1.0, 2.0, 3.0])],
    ids=["ginibre-ginibre-n2", "jacobi-ginibre-n3"])
def test_convolved_factor_matches_twice_convolved_base(inner, outer, base):
    # two factors as one weight A_2 (*) A_1 on the fixed base, against the
    # base weights convolved with A_1 and then A_2 and biorthogonalized
    # from their bimoments
    y = np.linspace(0.05, 7.0, 60)
    one = biorth_fixed(base, convolved_weight(outer, inner)).diagonal(y)
    twice = PolynomialEnsembleSpec(len(base), fixed_base_weights(base, inner))
    ref = gram_biorth(convolve_ensemble(twice, outer)).diagonal(y)
    assert np.max(np.abs(one / ref - 1.0)) < 1e-10


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
    # the confluent and degenerate columns D^c A = a^(2 nu) times a
    # polynomial at a tiny entry lo, where a^(2 nu - c) would overflow:
    # lo^(-2 nu) times the density tends to its limit, and reads it there
    deg = [jpdf_degenerate([lo, 1.0, 2.0], GW) for lo in (1e-160, 1e-100)]
    assert deg[0] == pytest.approx(deg[1], rel=1e-12)
    base = [0.8, 1.5, 1.5, 1.5]
    fixed = [jpdf_fixed([lo, 0.5, 1.0, 2.0], base, GW)
             for lo in (1e-160, 1e-100)]
    assert fixed[0] > 0.0
    assert fixed[0] == pytest.approx(fixed[1], rel=1e-12)
    # at 2 nu < 0 the entries of the row of lo carry the rounding of
    # exp(2 nu log lo), |2 nu log lo| eps ~ 3e-14, which the 4 x 4
    # determinant amplifies about 50-fold; the 3 x 3 one keeps it
    w, los = ginibre_weight(-0.45), (1e-300, 1e-200, 1e-160, 1e-100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        deg = [lo ** 0.9 * jpdf_degenerate([lo, 1.0, 2.0], w) for lo in los]
        fixed = [lo ** 0.9 * jpdf_fixed([lo, 0.5, 1.0, 2.0], base, w)
                 for lo in los]
    assert deg == pytest.approx([deg[-1]] * len(los), rel=1e-12)
    assert fixed[-1] > 0.0
    assert fixed == pytest.approx([fixed[-1]] * len(los), rel=1e-11)


@pytest.mark.parametrize("nu", [0.5, 1.0])
@pytest.mark.parametrize("base", [[1.0, 2.0], [0.8, 0.8], [1.0, 1.0, 2.0],
                                  [0.8, 0.8, 0.8]],
                         ids=["distinct", "full", "partial", "full3"])
def test_huge_spectrum_entry_reads_zero(base, nu):
    # Delta(a^2) overflows above a ~ 1.3e154, and a^k w^(k) in the
    # confluent columns above about 1e154 / k, as does the polynomial of
    # the Ginibre jet at nu = 1 from order 2 on; the density is 0 there
    w = ginibre_weight(nu)
    a = [0.5, 1e200] if len(base) == 2 else [0.5, 1.0, 1e200]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (3, 5):
            assert not np.any(w.neg_xdx(np.array([1e200, 2e200]), m))
        assert jpdf_fixed(a, base, w) == 0.0
        assert np.array_equal(jpdf_fixed([a, a], base, w), [0.0, 0.0])
        assert jpdf_degenerate(a, w) == 0.0
        assert np.array_equal(jpdf_degenerate([a, a], w), [0.0, 0.0])
    # an infinite entry is no spectrum: +inf or -inf, single or stacked,
    # it still raises
    ones = [1.0] * (len(base) - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for bad in (ones + [np.inf], [-np.inf] + ones):
            for spectra in (bad, [bad, a]):
                with pytest.raises(DomainError):
                    jpdf_fixed(spectra, base, w)
                with pytest.raises(DomainError):
                    jpdf_degenerate(spectra, w)


def test_polynomial_ensemble_density_has_the_same_zero_rule():
    # PolynomialEnsembleSpec.density ends in the tail of jpdf_fixed: a huge
    # finite entry reads 0 on both, and +inf or NaN still raises
    spec = PolynomialEnsembleSpec(2, fixed_base_weights([1.0, 2.0], GW))
    a = [0.5, 1e200]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert jpdf_fixed(a, [1.0, 2.0], GW) == 0.0
        assert spec.density(a) == 0.0
        assert np.array_equal(spec.density([a, [0.5, 1.5]]),
                              [0.0, spec.density([0.5, 1.5])])
    with np.errstate(over="ignore", invalid="ignore"):
        for bad in ([0.5, np.inf], [0.5, np.nan]):
            for spectra in (bad, [bad, a]):
                with pytest.raises(DomainError):
                    spec.density(spectra)


@pytest.mark.parametrize("n", [2, 3])
def test_confluent_column_ensemble_is_the_degenerate_density(n):
    # the weights of the base of ones, normalized from their Mellin
    # handles t^(s-1) s^c M A(s), give the density of jpdf_degenerate
    for w, hi in ((GW, 3.0), (ginibre_weight(0.5), 3.0),
                  (jacobi_weight(0.0, 0.0, n), 0.9)):
        a = _spectra(n) * hi / 3.0
        spec = PolynomialEnsembleSpec(n, fixed_base_weights([1.0] * n, w))
        np.testing.assert_allclose(spec.density(a), jpdf_degenerate(a, w),
                                   rtol=1e-12)


def test_triple_base_entry_n4_matches_split_base():
    for a in ([0.3, 0.9, 1.7, 3.1], [0.6, 1.2, 2.2, 4.0]):
        conf = jpdf_fixed(a, [0.8, 1.5, 1.5, 1.5], GW)
        split = jpdf_fixed(a, [0.8, 1.5 - 1e-4, 1.5, 1.5 + 1e-4], GW)
        assert conf == pytest.approx(split, rel=1e-5)


def test_catalogued_derivatives_vanish_outside_the_support():
    # a base entry 0.95 / 0.9 > 1 sits outside the Jacobi support, where
    # the density and every jet column (-a d/da)^k A are 0
    jw = jacobi_weight(0.0, 0.0, 2)
    assert jpdf_fixed([0.3, 0.95], [0.9, 0.9], jw) == 0.0
    assert jpdf_degenerate([0.3, 1.2], jw) == 0.0
    for k in (1, 2, 3):
        for w, out in ((jw, [-0.5, 1.0, 1.5]), (GW, [-0.5, -2.0])):
            assert np.all(w.neg_xdx(np.array(out), k)[:, k] == 0.0)
        # A(a) = e^(-a) has (D^k A)(0) = (-2 nu)^k A(0) = 0 at the edge
        assert GW.neg_xdx(0.0, k)[k] == 0.0


def _bases(n, kind):
    """A distinct, partially or fully degenerate base of size n."""
    if kind == "distinct":
        return [0.5 + 0.4 * i for i in range(n)]
    if kind == "partial":
        return [0.5] + [0.9] * (n - 1)
    return [0.7] * n


@given(n=st.integers(1, 4), jacobi=st.booleans(),
       kind=st.sampled_from(["distinct", "partial", "full"]),
       rows=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_stacked_densities_match_per_row_calls_bitwise(n, jacobi, kind, rows,
                                                       seed):
    if (kind == "partial" and n < 3) or (kind == "full" and n < 2):
        kind = "distinct"
    w = jacobi_weight(0.0, 0.0, n) if jacobi else GW
    base = _bases(n, kind)
    hi = 1.0 if jacobi else 6.0
    a = np.random.default_rng(seed).uniform(0.01, hi * max(base), (rows, 2, n))
    for f in (lambda x: jpdf_fixed(x, base, w),
              lambda x: jpdf_degenerate(x, w)):
        stacked = f(a)
        assert stacked.shape == (rows, 2)
        per_row = [[f(list(r)) for r in block] for block in a]
        assert all(type(v) is float for block in per_row for v in block)
        assert np.array_equal(stacked, per_row)
        assert f(a[:1, 0]).shape == (1,)


@pytest.mark.parametrize("base", [[1.0, 1.0, 2.0], [1.0, 1.5, 2.0]],
                         ids=["partial", "distinct"])
def test_fixed_density_is_scale_safe(base):
    # p(lam a | lam at) = lam^(-n) p(a | at): far from scale 1 the density
    # stays finite and scales, where unscaled Vandermondes overflow
    a, base = np.array([0.4, 1.1, 2.3]), np.array(base)
    ref = jpdf_fixed(a, base, GW)
    for k in (-100, -60, -35, -10, -1, 1, 10, 35, 60, 100):
        lam = 10.0 ** k
        val = jpdf_fixed(lam * a, lam * base, GW) * lam ** 3
        assert val == pytest.approx(ref, rel=1e-13), k


def test_corank2_density_is_scale_safe():
    # p(lam x | lam a) = lam^(-(n-1)) p(x | a): far from scale 1 the density
    # stays finite and scales, where unscaled Vandermondes overflow
    x, a = np.array([0.7, 1.1]), np.array([0.5, 1.0, 2.0])
    ref = corank2_jpdf(x, a)
    assert ref > 0.0
    for k in (-100, -60, -35, -10, -1, 1, 10, 35, 60, 100):
        lam = 10.0 ** k
        val = corank2_jpdf(lam * x, lam * a) * lam ** 2
        assert val == pytest.approx(ref, rel=1e-13), k


def test_non_finite_density_raises():
    spec = PolynomialEnsembleSpec(2, fixed_base_weights([1.0, 2.0], GW))
    for f, name in ((lambda: jpdf_fixed([np.nan, 1.0], [1.0, 2.0], GW),
                     "jpdf_fixed"),
                    (lambda: jpdf_fixed([np.inf, 1.0], [1.0, 2.0], GW),
                     "jpdf_fixed"),
                    (lambda: jpdf_degenerate([0.5, np.nan], GW),
                     "jpdf_degenerate"),
                    # at n = 1 no Vandermonde factor carries the NaN on:
                    # the weights read NaN at it
                    (lambda: jpdf_fixed([np.nan], [1.0], ginibre_weight(0.5)),
                     "jpdf_fixed"),
                    (lambda: jpdf_fixed([np.nan], [1.0], JW1), "jpdf_fixed"),
                    (lambda: jpdf_degenerate([np.nan], ginibre_weight(0.5)),
                     "jpdf_degenerate"),
                    (lambda: jpdf_degenerate([np.nan], JW1),
                     "jpdf_degenerate"),
                    (lambda: corank2_jpdf([np.nan, 0.5], [1.0, 2.0, 3.0]),
                     "corank2_jpdf"),
                    (lambda: spec.density([np.nan, 1.0]),
                     "PolynomialEnsembleSpec.density")):
        with pytest.raises(DomainError, match=name), \
                np.errstate(invalid="ignore"):
            f()


def _spectra(n, seed=3):
    return np.random.default_rng(seed).uniform(0.05, 3.0, (6, n))


def test_memo_alternating_calls_match_single_calls_bitwise():
    bases = ([0.7, 1.9], [0.6, 0.6]), ([0.5, 1.2, 1.2], [0.8, 1.3, 3.0])
    factors = (lambda: ginibre_weight(0.5), lambda: jacobi_weight(0.5, 1.0, 3))
    single = {}
    for pair in bases:
        a = _spectra(len(pair[0]))
        for base in pair:
            for i, make in enumerate(factors):
                ens._base_record.cache_clear()
                single[tuple(base), i] = jpdf_fixed(a, base, make())
    weights = [make() for make in factors]
    for _ in range(2):
        for pair in bases:
            a = _spectra(len(pair[0]))
            for i in (0, 1, 0, 1):
                for base in (pair[i], pair[1 - i]):
                    got = jpdf_fixed(a, base, weights[i])
                    assert np.array_equal(got, single[tuple(base), i])


@pytest.mark.parametrize("base", [[0.0, 1.0], [-1.0, 2.0], [np.nan, 1.0],
                                  [1.0, np.inf], [1.0, 2.0, 3.0], [],
                                  [[1.0, 2.0]]])
def test_invalid_base_raises_on_every_call(base):
    for _ in range(2):
        with pytest.raises(DomainError):
            jpdf_fixed([0.5, 1.5], base, GW)
    if base and np.ndim(base) == 1 and len(base) == 2:
        with pytest.raises(DomainError):
            corank2_jpdf([0.5], base)


def test_base_record_is_read_only():
    rec = ens._fixed_base([2.0, 3.0, 3.0])
    # runs (2) and (3, 3) on the scale 2^2: t = (0.5, 0.75), sizes (1, 2)
    assert rec.exp == 2
    assert rec.values.tolist() == [0.5, 0.75, 0.75]
    assert rec.t.tolist() == [0.5, 0.75]
    assert [c.tolist() for c in rec.cols] == [[0, 1, 1], [0, 0, 1],
                                              [0.5, 0.75, 0.75]]
    # den = (u_2 - u_1)^2 * 0! 1! (2 u_2) with u = t^2
    assert rec.den == pytest.approx((0.5625 - 0.25) ** 2 * 1.125, rel=1e-15)
    for arr in (rec.values, rec.t, *rec.cols):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_fresh_weight_per_call_gives_identical_values():
    a = _spectra(3)
    for base in ([0.5, 1.2, 2.0], [0.5, 1.2, 1.2], [0.9, 0.9, 0.9]):
        shared = ginibre_weight(0.5)
        want = jpdf_fixed(a, base, shared)
        for _ in range(2):
            assert np.array_equal(jpdf_fixed(a, base, ginibre_weight(0.5)),
                                  want)
            assert np.array_equal(jpdf_fixed(a, base, shared), want)
    want = jpdf_degenerate(a, ginibre_weight(0.5))
    assert np.array_equal(jpdf_degenerate(a, ginibre_weight(0.5)), want)


def test_memos_stay_bounded():
    for k in range(1000):
        w = ginibre_weight(0.5)
        jpdf_fixed([0.5, 1.5], [1.0, 2.0 + k / 1000.0], w)
        jpdf_degenerate([0.5, 1.5], w)
    for memo in (ens._base_record, ens._fixed_norm):
        assert memo.cache_info().currsize <= ens.MEMO


def test_factor_memo_follows_the_mellin_handle():
    # a weight with another Mellin handle is another key
    doubled = dataclasses.replace(GW, mellin=lambda s: 2.0 * GW.mellin(s))
    want = 0.5 / (GW.mellin(1.0).real * GW.mellin(3.0).real)
    assert ens._fixed_norm(GW, 2) == pytest.approx(want)
    assert ens._fixed_norm(doubled, 2) == pytest.approx(want / 4.0)


def test_normalizations_are_computed_once(monkeypatch):
    # after a first call per (weight, n), the densities read their
    # constants from the memos: neither n! nor a Mellin transform is
    # evaluated again
    broken = []

    def mellin(s):
        if broken:
            raise RuntimeError("Mellin transform evaluated again")
        return ginibre_weight(0.5).mellin(s)

    w = dataclasses.replace(ginibre_weight(0.5), mellin=mellin)
    bases = ([0.7, 1.9], [0.5, 1.2, 1.2], [0.6, 0.6])
    for base in bases:
        jpdf_fixed(_spectra(len(base)), base, w)
    jpdf_degenerate(_spectra(2), w)
    new = {n: _spectra(n, seed=4) for n in (2, 3)}
    want = [jpdf_fixed(new[len(b)], b, ginibre_weight(0.5)) for b in bases] \
        + [jpdf_degenerate(new[2], ginibre_weight(0.5))]

    def gammaln(*args):
        raise RuntimeError("gammaln evaluated again")

    broken.append(True)
    monkeypatch.setattr(ens.special, "gammaln", gammaln)
    got = [jpdf_fixed(new[len(b)], b, w) for b in bases] \
        + [jpdf_degenerate(new[2], w)]
    for g, v in zip(got, want):
        assert np.array_equal(g, v)


def test_norm_constant_is_computed_once():
    calls = []

    def counted(w):
        def mellin(s):
            calls.append(s)
            return w.mellin(s)
        return dataclasses.replace(w, mellin=mellin)

    spec = PolynomialEnsembleSpec(
        2, tuple(counted(w) for w in fixed_base_weights([1.0, 2.0], GW)))
    first = spec.density(_spectra(2))
    assert len(calls) == 2
    assert np.array_equal(spec.density(_spectra(2)), first)
    assert len(calls) == 2
