import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from antiprod import linalg
from antiprod.linalg import (MC_BLOCK, AntisymmetricMatrix, DomainError,
                             SingularSpectrum, antisymmetrized,
                             build_canonical, det, haar_orthogonal_batch,
                             sandwich, singular_spectrum, spectra_batch,
                             times_shared, transposed, vandermonde)
from antiprod.samplers import (GinibreSpec, ProductSpec, build_product_batch,
                               product_spectra_batch)
from antiprod.spherical import phi_montecarlo


def test_vandermonde_examples():
    assert vandermonde(np.array([4.0])) == 1.0
    assert vandermonde(np.array([1.0, 9.0])) == 8.0
    assert vandermonde(np.array([1.0, 4.0, 16.0])) == 540.0
    assert vandermonde(np.array([[1.0, 9.0], [9.0, 1.0]])).tolist() \
        == [8.0, -8.0]


def test_vandermonde_degenerate_is_zero():
    assert vandermonde(np.array([1.0, 1.0])) == 0.0


def _det_stack(k, shape, dtype, rng):
    """Well-conditioned k x k matrices of the given stack shape."""
    m = 2.0 * np.eye(k) + 0.5 * rng.standard_normal(shape + (k, k))
    if dtype is complex:
        m = m + 0.5j * rng.standard_normal(shape + (k, k))
    return m


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_det_matches_lapack(k, dtype):
    rng = np.random.default_rng(k)
    m = _det_stack(k, (200,), dtype, rng)
    got = det(m)
    assert got.shape == (200,) and got.dtype == np.dtype(dtype)
    np.testing.assert_allclose(got, np.linalg.det(m), rtol=1e-14, atol=0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_det_of_one_matrix_is_a_scalar(k):
    m = _det_stack(k, (), float, np.random.default_rng(5))
    got = det(m)
    assert np.ndim(got) == 0 and isinstance(got, np.floating)
    assert got == pytest.approx(np.linalg.det(m), rel=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_det_takes_broadcast_stacks(k):
    rng = np.random.default_rng(6)
    row = _det_stack(k, (1, 5), complex, rng)
    m = np.broadcast_to(row, (3, 5, k, k))      # zero stride on axis 0
    got = det(m)
    assert got.shape == (3, 5)
    np.testing.assert_allclose(got, np.broadcast_to(np.linalg.det(row),
                                                    (3, 5)), rtol=1e-14)
    # a transposed (non-contiguous) stack
    mt = np.swapaxes(_det_stack(k, (4, 2), float, rng), 0, 1)
    np.testing.assert_allclose(det(mt), np.linalg.det(mt), rtol=1e-14)


def test_det_is_the_only_lapack_determinant():
    # every determinant of the package goes through linalg.det, whose
    # 2 x 2 closed form the Monte Carlo loops rely on
    src = Path(__file__).parents[1] / "src" / "antiprod"
    calls = {p.name: p.read_text().count("np.linalg.det(")
             for p in src.glob("*.py")}
    assert calls.pop("linalg.py") == 1 and not any(calls.values())


def _view(k):
    """The transposed view: the operand of the plain @ product."""
    return np.swapaxes(k, -1, -2)


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_sandwich_matches_the_plain_product_bitwise(k):
    # a stacked k around a broadcast base, and a 2-D k around a stack
    rng = np.random.default_rng(k)
    ks = rng.standard_normal((300, k, k))
    ms = antisymmetrized(rng.standard_normal((300, k, k)))
    assert transposed(ks).flags.c_contiguous
    assert np.array_equal(transposed(ks), _view(ks))
    assert np.array_equal(sandwich(ks, ms[0]), ks @ ms[0] @ _view(ks))
    assert np.array_equal(sandwich(ks[0], ms), ks[0] @ ms @ _view(ks[0]))


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_times_shared_matches_the_stacked_product(k):
    # a shared m (2-D, or with a sample axis of 1) is one GEMM over the
    # stack; a per-sample m takes the stacked product itself
    rng = np.random.default_rng(k)
    ks = rng.standard_normal((300, k, k))
    frames = rng.standard_normal((300, 2, k))
    m = rng.standard_normal((2, 1, k, k))
    for a, b in ((ks, m[0, 0]), (frames, m[0, 0]), (ks, m), (frames, m)):
        got, want = times_shared(a, b), a @ b
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    per_sample = rng.standard_normal((300, k, k))
    assert np.array_equal(times_shared(ks, per_sample), ks @ per_sample)
    # sandwich of a 2-D base equals that of the base broadcast to 3-D,
    # which is a per-sample operand
    base = antisymmetrized(m[0, 0])
    np.testing.assert_allclose(
        sandwich(ks, base), sandwich(ks, np.broadcast_to(base, ks.shape)),
        rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [3, 4])
def test_spectra_batch_matches_the_plain_product_bitwise(n, monkeypatch):
    # y^T y from the contiguous transpose, against the transposed view
    y = antisymmetrized(np.random.default_rng(n).standard_normal(
        (300, 2 * n, 2 * n)))
    got = spectra_batch(y)
    monkeypatch.setattr(linalg, "transposed", _view)
    assert np.array_equal(got, spectra_batch(y))


def test_spectrum_validation():
    with pytest.raises(DomainError):
        SingularSpectrum(np.array([2.0, 1.0]))
    with pytest.raises(DomainError):
        SingularSpectrum(np.array([-1.0, 1.0]))
    s = SingularSpectrum.from_values([2.0, 1.0])
    assert s.values.tolist() == [1.0, 2.0]
    assert not s.is_degenerate
    assert SingularSpectrum.from_values([1.0, 1.0 + 1e-12]).is_degenerate


def test_antisymmetric_validation():
    m = np.array([[0.0, 1.0], [-1.0, 1e-17]])
    with pytest.raises(DomainError):
        AntisymmetricMatrix(m)
    x = AntisymmetricMatrix.from_raw(m)
    assert np.array_equal(x.entries, -x.entries.T)
    with pytest.raises(DomainError):
        AntisymmetricMatrix(np.zeros((3, 3)))


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1,
                max_size=4))
@settings(max_examples=50, deadline=None)
def test_canonical_roundtrip(values):
    a = SingularSpectrum.from_values(values)
    x = build_canonical(a)
    back = singular_spectrum(x)
    assert np.allclose(back.values, a.values, atol=1e-12)


def test_spectrum_invariant_under_conjugation():
    rng = np.random.default_rng(5)
    a = SingularSpectrum.from_values([0.5, 1.5, 2.5])
    x = build_canonical(a)
    k = haar_orthogonal_batch(6, 1, rng)[0]
    y = AntisymmetricMatrix.from_raw(k @ x.entries @ k.T)
    assert np.allclose(singular_spectrum(y).values, a.values, atol=1e-10)


@pytest.mark.parametrize("values", [(1e-5, 1.0), (0.0, 1.0), (1e-4, 1e4)])
def test_rotated_spectrum_with_a_tiny_entry_pairs(values):
    # a rotated spectrum with a tiny entry is accurate on the scale of the
    # largest entry
    a = SingularSpectrum.from_values(values)
    x = build_canonical(a).entries
    for k in haar_orthogonal_batch(4, 50, np.random.default_rng(21)):
        back = singular_spectrum(AntisymmetricMatrix.from_raw(k @ x @ k.T))
        assert np.max(np.abs(back.values - a.values)) < 1e-7 * a.values[-1]


def test_spectra_batch_matches_scalar():
    # against the imaginary parts of the eigenvalues of y, +/- i a_j
    rng = np.random.default_rng(9)
    for values in ([1.5], [1.0, 2.0], [0.5, 1.0, 2.0]):
        x = build_canonical(SingularSpectrum.from_values(values)).entries
        k = haar_orthogonal_batch(x.shape[0], 16, rng)
        y = k @ x @ np.swapaxes(k, 1, 2)
        y = (y - np.swapaxes(y, 1, 2)) / 2.0
        batch = spectra_batch(y)
        for i in range(16):
            single = singular_spectrum(AntisymmetricMatrix(y[i]))
            assert np.array_equal(batch[i], single.values)
            ev = np.sort(np.abs(np.linalg.eigvals(y[i]).imag))[1::2]
            assert np.allclose(batch[i], ev, atol=1e-10)


def _mp_spectrum(y):
    """Singular spectrum of the float matrix y from 40-digit eigenvalues of
    y^T y."""
    with mpmath.workdps(40):
        m = mpmath.matrix(y.tolist())
        w = sorted(mpmath.eigsy(m.T * m, eigvals_only=True))
        return np.array([float(mpmath.sqrt((w[j] + w[j + 1]) / 2))
                         for j in range(0, len(w), 2)])


@pytest.mark.parametrize("n", [1, 2])
def test_spectra_closed_forms_match_mpmath(n):
    # the worst-conditioned 1e-3 of 1e5 Ginibre products: a_min / a_max
    # reaches 1e-8 here, where the eigenvalues of y^T y lose a_min entirely
    # (their error is eps * a_max^2); the closed forms keep every entry
    # within a few ulps of a_max
    spec = ProductSpec(factors=(GinibreSpec(n, 0.0), GinibreSpec(n, 0.0)),
                       base=np.arange(1.0, n + 1.0))
    y = build_product_batch(spec, 100_000, np.random.default_rng(31))
    a = spectra_batch(y)
    worst = np.argsort(a[:, 0] / a[:, -1])[:100]
    ref = np.array([_mp_spectrum(y[i]) for i in worst])
    err = np.abs(a[worst] - ref) / ref[:, -1:]
    assert np.max(err) < 4 * np.finfo(float).eps
    if n == 2:
        assert np.min(ref[:, 0] / ref[:, 1]) < 1e-6
        assert np.max(np.abs(a[worst, 0] - ref[:, 0]) / ref[:, 0]) < 1e-8


@pytest.mark.parametrize("values", [(1.0, 1.0), (0.0, 0.0), (0.0, 2.0)])
def test_spectra_of_rotated_bases_are_ascending(values):
    # a degenerate or zero entry must neither reorder a row nor give NaN
    x = build_canonical(SingularSpectrum.from_values(values)).entries
    k = haar_orthogonal_batch(4, 20_000, np.random.default_rng(22))
    y = k @ x @ np.swapaxes(k, 1, 2)
    a = spectra_batch((y - np.swapaxes(y, 1, 2)) / 2.0)
    assert np.all(a[:, 0] <= a[:, 1])
    assert np.max(np.abs(a - values)) <= 16 * np.finfo(float).eps * max(
        values[1], 1.0)


@pytest.mark.parametrize("values", [(0.5e160, 1e160), (0.5e-160, 1e-160),
                                    (1e-10, 1e160)],
                         ids=["large", "small", "spread"])
def test_spectra_of_extreme_scales_are_accurate(values):
    # products of entries near 1e160 overflow and near 1e-160 underflow; the
    # Pfaffian of y scaled to a_max near 1 does neither
    x = build_canonical(SingularSpectrum.from_values(values)).entries
    k = haar_orthogonal_batch(4, 2000, np.random.default_rng(23))
    y = k @ x @ np.swapaxes(k, 1, 2)
    a = spectra_batch((y - np.swapaxes(y, 1, 2)) / 2.0)
    eps = np.finfo(float).eps
    assert np.all(a[:, 0] <= a[:, 1])
    assert np.max(np.abs(a[:, 1] / values[1] - 1.0)) <= 16 * eps
    # a_min is conditioned by a_max / a_min
    assert np.max(np.abs(a[:, 0] - values[0])) <= 16 * eps * values[1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spectra_that_are_not_finite_raise(n):
    x = build_canonical(SingularSpectrum.from_values(np.ones(n))).entries
    for bad in (np.nan, np.inf):
        with np.errstate(all="ignore"), pytest.raises(DomainError):
            spectra_batch(np.stack([x, x * bad]))


def test_haar_batch_hits_both_components():
    rng = np.random.default_rng(3)
    q = haar_orthogonal_batch(4, 400, rng)
    dets = np.linalg.det(q)
    assert np.all(np.abs(np.abs(dets) - 1.0) < 1e-10)
    frac = np.mean(dets > 0)
    assert 0.4 < frac < 0.6
    gram_err = np.max(np.abs(
        np.einsum("sji,sjk->sik", q, q) - np.eye(4)[None]))
    assert gram_err < 1e-12


def test_haar_first_moment_is_zero():
    rng = np.random.default_rng(11)
    q = haar_orthogonal_batch(2, 20_000, rng)
    assert np.max(np.abs(q.mean(axis=0))) < 4.0 / np.sqrt(2 * 20_000)


@pytest.mark.parametrize("m, k", [(2, 1), (5, 2), (9, 4), (41, 4), (41, 41)])
def test_haar_columns_are_orthonormal(m, k):
    q = haar_orthogonal_batch(m, 50, np.random.default_rng(12))[:, :, :k]
    assert q.shape == (50, m, k)
    gram = np.einsum("sji,sjk->sik", q, q)
    assert np.max(np.abs(gram - np.eye(k)[None])) < 1e-12


def _flip_column_0(k, rng):
    flip = rng.integers(0, 2, size=len(k)) * 2 - 1
    k[:, :, 0] *= flip[:, None]
    return k


def _qr_recipe(m, size, rng):
    # Gaussian, QR, R-diagonal signs fixed positive, column-0 flip
    q, r = np.linalg.qr(rng.standard_normal((size, m, m)))
    d = np.sign(np.einsum("sii->si", r))
    d[d == 0.0] = 1.0
    return _flip_column_0(q * d[:, None, :], rng)


def _left(p):
    # x -> p x on quaternions x_0 + x_1 i + x_2 j + x_3 k
    a, b, c, d = np.moveaxis(p, -1, 0)
    return np.stack([a, -b, -c, -d, b, a, -d, c, c, d, a, -b, d, -c, b, a],
                    axis=-1).reshape(-1, 4, 4)


def _right(q):
    # x -> x q
    a, b, c, d = np.moveaxis(q, -1, 0)
    return np.stack([a, -b, -c, -d, b, a, d, -c, c, -d, a, b, d, c, -b, a],
                    axis=-1).reshape(-1, 4, 4)


def _unit_quaternions(size, rng):
    g = rng.standard_normal((size, 2, 4))
    return g / np.sqrt(np.einsum("sij,sij->si", g, g))[..., None]


@pytest.mark.parametrize("m", [2, 41])
def test_haar_batch_stream_is_unchanged(m):
    # the recipe every Haar Monte Carlo estimate at m != 4 is drawn with
    for seed in (0, 13):
        q = _qr_recipe(m, 30, np.random.default_rng(seed))
        got = haar_orthogonal_batch(m, 30, np.random.default_rng(seed))
        assert np.array_equal(got, q)


def test_haar_o4_stream_is_pinned():
    # two unit quaternions p, q per draw, k = L(p) R(q), column-0 flip
    for seed in (0, 13):
        rng = np.random.default_rng(seed)
        u = _unit_quaternions(30, rng)
        k = _flip_column_0(_left(u[:, 0]) @ _right(u[:, 1]), rng)
        got = haar_orthogonal_batch(4, 30, np.random.default_rng(seed))
        assert np.array_equal(got, k)


def _o4_law(k, ref):
    """KS p-values of tr k, k_11 and k_23 against the reference draws ref,
    and the z of E (tr k)^2 = 1, exact for Haar O(m) at m >= 2."""
    def stats(q):
        return np.trace(q, axis1=1, axis2=2), q[:, 0, 0], q[:, 1, 2]

    sk = stats(k)
    p = [ks_2samp(a, b).pvalue for a, b in zip(sk, stats(ref))]
    t2 = sk[0] ** 2
    z = (t2.mean() - 1.0) / (t2.std() / np.sqrt(t2.size))
    return p, z


def test_haar_o4_law_matches_qr():
    ref = _qr_recipe(4, 100_000, np.random.default_rng(41))
    k = haar_orthogonal_batch(4, 100_000, np.random.default_rng(42))
    p, z = _o4_law(k, ref)
    assert min(p) > 1e-3 and abs(z) < 4.0
    # twin: a left-isoclinic rotation L(p) alone.  Each of its columns is
    # uniform on S^3, as a Haar column is, so single entries such as k_11
    # cannot tell it apart; its trace 4 p_0 (2 p_0 when flipped) can, with
    # E (tr k)^2 = 5/2
    rng = np.random.default_rng(42)
    twin = _flip_column_0(_left(_unit_quaternions(100_000, rng)[:, 0]), rng)
    p_twin, z_twin = _o4_law(twin, ref)
    assert p_twin[0] < 1e-10 and z_twin > 20.0


def _traced_peak(call) -> int:
    """Peak bytes that tracemalloc (which numpy reports its buffers to)
    sees during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_PRODUCT = ProductSpec((GinibreSpec(4, 1.0),), [0.5, 1.0, 1.5, 2.0])


@pytest.mark.parametrize("run, row_bytes", [
    (lambda size: product_spectra_batch(_PRODUCT, size,
                                        np.random.default_rng(3)), 4 * 8),
    (lambda size: phi_montecarlo((4.0, 0.0), (1.0, 2.0), size,
                                 np.random.default_rng(3)), 0),
], ids=["product_spectra", "phi_montecarlo"])
def test_monte_carlo_memory_does_not_grow_with_samples(run, row_bytes):
    # every Monte Carlo path draws in blocks of MC_BLOCK, so beyond its
    # output the peak is the same at 2 and at 8 blocks
    run(16)
    small, large = (_traced_peak(lambda: run(k * MC_BLOCK))
                    - k * MC_BLOCK * row_bytes for k in (2, 8))
    assert large <= 1.25 * small
