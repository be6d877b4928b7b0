import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from antiprod import spherical
from antiprod.harness import ExperimentConfig, run_corank2_experiment
from antiprod.linalg import DomainError, SingularSpectrum, build_canonical
from antiprod.spherical import (SphericalParameter, fn_closed,
                                fn_recurrence, harish_chandra_o2n,
                                harish_chandra_o2n_mc, phi_closed,
                                phi_montecarlo, psi_montecarlo,
                                factorization_check_phi,
                                factorization_check_psi)


def test_parameter_properties():
    s = SphericalParameter(np.array([2.0, 0.0], dtype=complex))
    assert s.n == 2
    assert s.in_convergence_domain
    assert not SphericalParameter(
        np.array([1.0, 0.0], dtype=complex)).in_convergence_domain
    assert np.allclose(s.exponents, [0.0, 0.5])


def test_phi_n1_is_power():
    for a in (0.3, 1.0, 2.7):
        for s in (2.0, 3.5):
            assert phi_closed((s,), (a,)) == pytest.approx(a ** s, rel=1e-14)


def test_phi_named_value():
    assert phi_closed((2.0, 0.0), (1.0, 2.0)) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phi_limit_is_one(n):
    s = tuple(2.0 * (n - j) for j in range(1, n + 1))
    assert abs(phi_closed(s, tuple([1.0] * n)) - 1.0) < 1e-8


def test_phi_degenerate_a_continuity():
    s = (3.0, 1.0)
    near = phi_closed(s, (1.0, 1.0 + 1e-6))
    conf = phi_closed(s, (1.0, 1.0))
    assert abs(near - conf) / abs(conf) < 1e-4


def test_phi_degenerate_s_continuity():
    a = (1.0, 2.0)
    near = phi_closed((2.0 + 1e-7, 2.0 - 1e-7), a)
    conf = phi_closed((2.0, 2.0), a)
    assert abs(near - conf) / abs(conf) < 1e-4


def test_phi_montecarlo_agrees():
    rng = np.random.default_rng(1)
    s, a = (4.0, 0.0), (1.0, 2.0)
    mc, se = phi_montecarlo(s, a, 200_000, rng)
    closed = phi_closed(s, a)
    assert se > 0
    assert abs(mc - closed) < 3.5 * se
    # negative control: the same draws against Phi at a scaled by 1.02
    assert abs(mc - phi_closed(s, (1.02, 2.04))) > 10.0 * se


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["antisymmetric", "gram"])
def test_gram_ratio_minors_match_qr_frame(n, kind):
    rng = np.random.default_rng(20 + n)
    h = rng.standard_normal((2 * n, 2 * n))
    m = h - h.T if kind == "antisymmetric" else h @ h.T
    e = rng.uniform(0.3, 1.5, n) + 0.2j       # every minor weighted
    g = rng.standard_normal((40, 2 * n, 2 * n - 2))
    got = spherical._frame_minor_power(g, m, e)
    want = []
    for gi in g:
        k, r = np.linalg.qr(gi, mode="complete")
        k[:, :2 * n - 2] *= np.sign(np.diag(r))
        y = k.T @ m @ k
        want.append(np.prod([complex(np.linalg.det(y[:2 * j, :2 * j]))
                             ** e[j - 1] for j in range(1, n + 1)]))
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("s", [(4.0, 0.0), (8.0, 2.0, 0.0), (8.0, 4.0, 0.0)],
                         ids=["s40", "s820", "s840"])
@pytest.mark.parametrize("kind", ["canonical", "gram"])
def test_frame_minor_power_matches_full_qr_frame(s, kind):
    # k from the QR of a full 2n x 2n Gaussian, its minors by LAPACK.  The
    # estimators draw at most the leading 2n - 2 columns of the Gaussian;
    # the full frame must count det m once.  s = (8, 2, 0) weights the
    # 2 x 2 minor and det m (e = (2, 0, 1)), s = (8, 4, 0) the 4 x 4 minor
    # too (e = (1, 1, 1))
    n = len(s)
    e = SphericalParameter(s).exponents
    rng = np.random.default_rng(30 + n)
    if kind == "canonical":
        m = build_canonical(SingularSpectrum(np.linspace(0.6, 2.0, n))).entries
    else:
        h = rng.standard_normal((2 * n, 2 * n))
        m = h @ h.T
    g = rng.standard_normal((50, 2 * n, 2 * n))
    k, r = np.linalg.qr(g)
    k = k * np.sign(np.einsum("sii->si", r))[:, None, :]
    y = np.swapaxes(k, 1, 2) @ m @ k
    want = np.prod([np.linalg.det(y[:, :2 * j, :2 * j]) ** e[j - 1]
                    for j in range(1, n + 1)], axis=0)
    # against 40-digit mpmath on these draws the QR route errs by up to
    # 6.9e-13 relative and the Gram ratios by 3.3e-13 (canonical, s840)
    for p in (2 * n - 2, 2 * n):
        got = spherical._frame_minor_power(g[..., :p], m, e)
        np.testing.assert_allclose(got, want, rtol=2e-12)


def test_frame_minor_power_rejects_indefinite_m():
    g = np.random.default_rng(7).standard_normal((200, 4, 2))
    e = np.array([1.0, 0.5])
    # det m = 1, but m has compressions to 2-frames of either sign
    with pytest.raises(DomainError, match="beyond rounding"):
        spherical._frame_minor_power(g, np.diag([-1.0, -1.0, 1.0, 1.0]), e)
    # det m = -1 with every proper minor unweighted
    with pytest.raises(DomainError, match="beyond rounding"):
        spherical._frame_minor_power(g[..., :0], np.diag([-1.0, 1.0, 1.0, 1.0]),
                                     np.array([0.0, 0.5]))
    # twins: minors that vanish in exact arithmetic, and whose computed
    # values may have either sign, are rounding and read 0
    h = np.random.default_rng(8).standard_normal((4, 3))
    v = h[:, :1]
    for m in (h @ h.T, v @ v.T):
        assert np.all(spherical._frame_minor_power(g, m, e) < 1e-100)


def test_monte_carlo_minors_need_no_lapack_per_draw(monkeypatch):
    # every minor of the benchmarked estimators is 2 x 2, or det m of one
    # matrix per weighted m; LAPACK sees no stack of draws
    sizes = []
    lapack = np.linalg.det

    def counted(m):
        sizes.append(np.size(m) // m.shape[-1] ** 2)
        return lapack(m)

    monkeypatch.setattr(np.linalg, "det", counted)
    rng = np.random.default_rng(9)
    g = np.diag([1.2, 0.8, 1.1, 0.9])
    phi_montecarlo((4.0, 0.0), (1.0, 2.0), 500, rng)
    phi_montecarlo((6.0, 2.0, 0.0), (0.8, 1.5, 2.2), 500, rng)
    psi_montecarlo((4.0, 0.0), g, 500, rng)
    harish_chandra_o2n_mc((0.5, 1.0), (0.8, 1.6), 500, rng)
    factorization_check_phi((4.0, 0.0), g, (1.0, 2.0), 500, rng)
    factorization_check_psi((4.0, 0.0), g, g[::-1], 500, rng)
    assert sizes and max(sizes) <= 2


def test_phi_montecarlo_rejects_outside_domain():
    rng = np.random.default_rng(1)
    with pytest.raises(DomainError):
        phi_montecarlo((1.0, 0.5), (1.0, 2.0), 10, rng)


def test_psi_identity_matrix():
    rng = np.random.default_rng(2)
    val, se = psi_montecarlo((2.0, 0.0), np.eye(4), 10, rng)
    assert val == pytest.approx(1.0, abs=1e-12)


# at s = (2, 0) both sides are constant in k, so z is round-off there;
# s = (4, 0) gives both sides a k-dependence that a wrong identity would show
FACTORIZATION_S = pytest.mark.parametrize(
    "s", [(2.0, 0.0), (4.0, 0.0)], ids=["s20", "s40"])


@FACTORIZATION_S
def test_factorization_phi(s):
    rng = np.random.default_rng(3)
    g = np.diag([1.2, 0.8, 1.1, 0.9])
    _, _, z = factorization_check_phi(s, g, (1.0, 2.0), 100_000, rng)
    assert z < 3.5


@FACTORIZATION_S
def test_factorization_psi(s):
    rng = np.random.default_rng(4)
    g = np.diag([1.2, 0.8, 1.1, 0.9])
    gp = np.diag([0.7, 1.3, 1.0, 1.0])
    _, _, z = factorization_check_psi(s, g, gp, 100_000, rng)
    assert z < 3.5


def test_factorization_phi_negative_control(monkeypatch):
    # the same draws against a right side with Phi at a scaled by 1.02;
    # the left side evaluates Phi on stacks of spectra, which stay as they are
    g = np.diag([1.2, 0.8, 1.1, 0.9])
    args = ((4.0, 0.0), g, (1.0, 2.0), 100_000)
    _, _, z = factorization_check_phi(*args, np.random.default_rng(3))
    closed = spherical.phi_closed
    monkeypatch.setattr(spherical, "phi_closed",
                        lambda s, a: closed(s, 1.02 * a if a.ndim == 1 else a))
    _, _, z_twin = factorization_check_phi(*args, np.random.default_rng(3))
    assert z < 4.0 and z_twin > 10.0


def test_factorization_psi_negative_control(monkeypatch):
    # the same draws against a right side whose Psi factors are each
    # scaled by 1.02
    g = np.diag([1.2, 0.8, 1.1, 0.9])
    gp = np.diag([0.7, 1.3, 1.0, 1.0])
    args = ((4.0, 0.0), g, gp, 100_000)
    _, _, z = factorization_check_psi(*args, np.random.default_rng(4))
    psi = spherical.psi_montecarlo

    def scaled(*a):
        value, se = psi(*a)
        return 1.02 * value, se

    monkeypatch.setattr(spherical, "psi_montecarlo", scaled)
    _, _, z_twin = factorization_check_psi(*args, np.random.default_rng(4))
    assert z < 4.0 and z_twin > 10.0


def test_n2_haar_monte_carlo_calls_no_qr(monkeypatch):
    # Haar O(4) is drawn from two unit quaternions, so no estimator at
    # n = 2 factors a matrix
    def fail(*args, **kwargs):
        raise AssertionError("QR on an n = 2 Haar path")

    monkeypatch.setattr(np.linalg, "qr", fail)
    rng = np.random.default_rng(19)
    g = np.diag([1.2, 0.8, 1.1, 0.9])
    gp = np.diag([0.7, 1.3, 1.0, 1.0])
    assert np.isfinite(harish_chandra_o2n_mc((0.5, 1.0), (0.8, 1.6), 300,
                                             rng)[0])
    assert np.isfinite(factorization_check_phi((4.0, 0.0), g, (1.0, 2.0),
                                               300, rng)[2])
    assert np.isfinite(factorization_check_psi((4.0, 0.0), g, gp, 300,
                                               rng)[2])
    rep = run_corank2_experiment(ExperimentConfig(
        params={"a": [1.0, 2.0]}, nsamples=300, seed=19))
    assert rep.nsamples == 300 and np.isfinite(rep.statistics["ks"])


def test_fn_recurrence_matches_closed():
    for s, a in [((2.0, 0.0), (1.0, 2.0)),
                 ((3.0, 1.0), (1.0, 2.0)),
                 ((4.0, 2.0, 0.0), (1.0, 2.0, 3.0)),
                 ((8.0, 5.5, 3.0, 0.0), (0.6, 1.1, 1.7, 2.3)),
                 ((6.5 + 0.7j, 3.2 - 0.4j, 0.5 + 0.1j), (0.8, 1.5, 2.1))]:
        rec = fn_recurrence(s, a)
        clo = fn_closed(s, a)
        assert abs(rec - clo) / abs(clo) < 1e-9


def test_fn_named_value():
    assert fn_closed((2.0, 0.0), (1.0, 2.0)) == pytest.approx(2.0, rel=1e-12)
    assert fn_recurrence((2.0, 0.0), (1.0, 2.0)) == pytest.approx(
        2.0, rel=1e-9)


def test_fn_limit_closed_form():
    # prod (2j)!/j! / prod 2(s_k - s_l - 1)
    s = (4.0, 0.0)
    expect = (1.0 * 2.0) / (2.0 * 3.0)
    assert fn_closed(s, (1.0, 1.0)) == pytest.approx(expect, rel=1e-10)


def test_harish_chandra_n1():
    assert harish_chandra_o2n((0.7,), (1.3,)) == pytest.approx(
        np.cosh(0.91), rel=1e-14)


def test_harish_chandra_symmetry():
    x, y = (0.5, 1.0), (0.8, 1.6)
    assert harish_chandra_o2n(x, y) == pytest.approx(
        harish_chandra_o2n(y, x), rel=1e-10)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_cosh_row_taylor_matches_mpmath(m):
    # taylor(u, m) = f^(m)(u) / m! for f(u) = cosh(x sqrt(u))
    import mpmath
    mpmath.mp.dps = 50
    x, u = np.array([0.7, 2.5, 1.1]), np.array([1.3, 0.4, 6.0])
    taylor, _ = spherical._cosh_rows(x)
    got = taylor(u, m)          # got[i, c]: row x_i at node u_c
    for i in range(3):
        for c in range(3):
            want = mpmath.diff(
                lambda v: mpmath.cosh(x[i] * mpmath.sqrt(v)),
                mpmath.mpf(u[c]), m) / mpmath.factorial(m)
            assert got[i, c] == pytest.approx(float(want), rel=1e-11)


def test_harish_chandra_zero_is_one():
    assert harish_chandra_o2n((0.0, 0.0), (1.0, 2.0)) == 1.0


def test_harish_chandra_mc():
    rng = np.random.default_rng(6)
    closed = harish_chandra_o2n((0.5, 1.0), (0.8, 1.6))
    mc, se = harish_chandra_o2n_mc((0.5, 1.0), (0.8, 1.6), 200_000, rng)
    assert abs(mc - closed) < 3.5 * se


def test_harish_chandra_degenerate_input():
    val = harish_chandra_o2n((1.0, 1.0), (0.8, 1.6))
    near = harish_chandra_o2n((1.0, 1.0 + 1e-6), (0.8, 1.6))
    assert val == pytest.approx(near, rel=1e-4)


def test_transform_factorizes_under_convolution():
    from antiprod.ensembles import (PolynomialEnsembleSpec, convolve_ensemble,
                                    muttalib_borodin_weights)
    from antiprod.mellin import ginibre_weight
    from antiprod.spherical import (spherical_transform_factor,
                                    spherical_transform_poly)
    gw = ginibre_weight(0.0)
    base = PolynomialEnsembleSpec(2, muttalib_borodin_weights(0.0, 0.0, 2))
    conv = convolve_ensemble(base, gw)
    for sv in [(4.0, 2.0), (6.0, 3.0)]:
        lhs = spherical_transform_poly(conv, sv)
        rhs = spherical_transform_factor(gw, sv) \
            * spherical_transform_poly(base, sv)
        assert lhs == pytest.approx(rhs, rel=1e-12)


#: (s', base) per n for the sampled transform identity.
TRANSFORM_POINTS = {1: ((1.0,), (1.5,)),
                    2: ((3.0, 0.0), (1.0, 2.0)),
                    3: ((5.0, 2.0, 0.0), (1.0, 2.0, 3.0))}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["ginibre", "ginibre2", "jacobi"])
def test_spherical_transform_on_sampled_products(kind, n):
    # E Phi(s'; a) = prod_i S_Psi[A_i](s) Phi(s'; a~), s = s' + (2n - 1),
    # over 100 000 sampled products of the base a~; the twin evaluates Phi
    # at s' + 0.1 on the samples only and must fail.  Phi is heavy-tailed:
    # over seeds 0-19 the Ginibre^2 twin at n = 3 reads z = 1.8-8.5, too
    # weak to gate, while every other twin reads z >= 7.8
    from antiprod.samplers import (GinibreSpec, JacobiSpec, ProductSpec,
                                   product_spectra_batch)
    from antiprod.spherical import spherical_transform_factor
    sp, base = TRANSFORM_POINTS[n]
    ginibre = GinibreSpec(n, 0.0)
    factors = {"ginibre": (ginibre,), "ginibre2": (ginibre, ginibre),
               "jacobi": (JacobiSpec(n, n, 4 * n + 1),)}[kind]
    prod = ProductSpec(factors, base)
    nsamples = 100_000
    a = product_spectra_batch(prod, nsamples, np.random.default_rng(0))
    s = tuple(x + 2 * n - 1 for x in sp)
    rhs = spherical_transform_factor(prod.weight, s) * phi_closed(sp, base)

    def z(shift):
        phi = phi_closed(tuple(x + shift for x in sp), a).real
        return abs(phi.mean() - rhs.real) / (phi.std() / np.sqrt(nsamples))

    assert z(0.0) < 4.0
    if (kind, n) != ("ginibre2", 3):
        assert z(0.1) > 5.0


def test_transform_rejects_out_of_strip_parameter():
    from antiprod.ensembles import (PolynomialEnsembleSpec,
                                    muttalib_borodin_weights)
    from antiprod.spherical import spherical_transform_poly
    base = PolynomialEnsembleSpec(2, muttalib_borodin_weights(0.0, 0.0, 2))
    with pytest.raises(DomainError):
        spherical_transform_poly(base, (2.0, 0.0))


def _sinhc(z):
    return np.sinh(z) / z if z != 0.0 else 1.0


@given(a1=st.floats(0.2, 3.0), ratio=st.floats(1.001, 5.0),
       s2_re=st.floats(-1.0, 3.0), s2_im=st.floats(-3.0, 3.0),
       gap=st.floats(2.0, 8.0), gap_im=st.floats(-3.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_phi_n2_is_a_trapezoidal_moment(a1, ratio, s2_re, s2_im, gap,
                                        gap_im):
    # a uniform 2-plane in R^4 is a pair of uniform directions on S^2, one
    # per su(2) of so(4), so the weighted minor is ((a1 + a2) U +
    # (a1 - a2) V)^2 / 4 with U, V uniform on [-1, 1]; its moment of order
    # p = 2 e_1 is elementary (this float form cancels as a2 -> a1)
    a2 = a1 * ratio
    s2 = complex(s2_re, s2_im)
    s1 = s2 + complex(gap, gap_im)
    e1, e2 = SphericalParameter(np.array([s1, s2])).exponents
    p = 2.0 * e1
    ref = (2.0 * (a2 ** (p + 2) - a1 ** (p + 2))
           / ((p + 2) * (a2 ** 2 - a1 ** 2)) * (a1 * a2) ** (2.0 * e2))
    assert abs(phi_closed((s1, s2), (a1, a2)) - ref) <= 1e-12 * abs(ref)


@given(x1=st.floats(0.05, 2.0), xr=st.floats(1.001, 5.0),
       y1=st.floats(0.05, 2.0), yr=st.floats(1.001, 5.0))
@settings(max_examples=200, deadline=None)
def test_group_integral_n2_splits_over_su2_pairs(x1, xr, y1, yr):
    # k = L(p) R(q) rotates the self-dual and anti-self-dual parts of X
    # independently; the reflection coset flips the sign of y_1
    x2, y2 = x1 * xr, y1 * yr
    ref = 0.0
    for sy in (y1, -y1):
        a, b = (x1 + x2) * (sy + y2) / 2.0, (x1 - x2) * (sy - y2) / 2.0
        ref += _sinhc(a) * _sinhc(b) / 2.0
    assert abs(harish_chandra_o2n((x1, x2), (y1, y2)) - ref) <= 1e-12 * ref
