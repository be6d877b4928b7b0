import numpy as np
import pytest
from scipy import stats

from antiprod.linalg import (DomainError, SingularSpectrum,
                             haar_orthogonal_batch, spectra_batch)
from antiprod.samplers import (GinibreSpec, JacobiSpec, ProductSpec,
                               _factor_batch, _jacobi_triangle,
                               build_product_batch,
                               product_spectra_batch,
                               sample_induced_ginibre_batch,
                               sample_induced_jacobi_batch)


def test_ginibre_spec_validation():
    with pytest.raises(DomainError):
        GinibreSpec(0, 0.0)
    assert GinibreSpec(2, 1.0).samplable
    assert not GinibreSpec(2, 0.5).samplable
    rng = np.random.default_rng(1)
    with pytest.raises(DomainError):
        sample_induced_ginibre_batch(GinibreSpec(2, 0.5), 4, rng)


def test_ginibre_n1_det_is_exponential():
    # |det g| of the 2x2 block-1 square Gaussian product is Exp(1)
    rng = np.random.default_rng(2)
    g = sample_induced_ginibre_batch(GinibreSpec(1, 0.0), 40_000, rng)
    d = np.abs(np.linalg.det(g))
    res = stats.kstest(d, "expon")
    assert res.pvalue > 1e-3


def test_ginibre_polar_factors():
    rng = np.random.default_rng(3)
    g = sample_induced_ginibre_batch(GinibreSpec(2, 1.0), 1, rng)[0]
    assert g.shape == (4, 4)
    s = np.linalg.svd(g, compute_uv=False)
    assert np.all(s > 0)


def test_jacobi_spec_validation():
    JacobiSpec(1, 1, 5)
    with pytest.raises(DomainError):
        JacobiSpec(1, 1, 3)   # K1 too small
    with pytest.raises(DomainError):
        JacobiSpec(2, 1, 8)   # N < n
    spec = JacobiSpec(1, 1, 5)
    assert spec.nu == 0.0
    assert spec.mu == 0.0


def test_jacobi_singular_values_bounded():
    rng = np.random.default_rng(4)
    g = sample_induced_jacobi_batch(JacobiSpec(2, 2, 9), 200, rng)
    s = np.linalg.svd(g, compute_uv=False)
    assert np.max(s) <= 1.0 + 1e-12


def test_jacobi_n1_cubic_law():
    # K1 = 5, nu = mu = 0: spectrum density 3 (1 - a)^2 on (0, 1)
    rng = np.random.default_rng(5)
    spec = ProductSpec(factors=(JacobiSpec(1, 1, 5),))
    y = build_product_batch(spec, 40_000, rng)
    a = spectra_batch(y)[:, 0]
    res = stats.kstest(a, lambda t: 1.0 - (1.0 - t) ** 3)
    assert res.pvalue > 1e-3


def test_product_spec_inference():
    spec = ProductSpec(factors=(GinibreSpec(2, 0.0),))
    assert spec.n == 2
    assert np.allclose(spec.base_values, [1.0, 1.0])
    spec2 = ProductSpec(base=[1.0, 2.0])
    assert spec2.n == 2
    with pytest.raises(DomainError):
        ProductSpec(factors=(GinibreSpec(2, 0.0),), base=[1.0])
    with pytest.raises(DomainError):
        ProductSpec()


def test_empty_product_is_base():
    rng = np.random.default_rng(6)
    spec = ProductSpec(base=[1.0, 2.0])
    y = build_product_batch(spec, 1, rng)[0]
    vals = spectra_batch(y[None])[0]
    assert np.allclose(vals, [1.0, 2.0], atol=1e-12)


def test_product_is_antisymmetric():
    rng = np.random.default_rng(7)
    spec = ProductSpec(factors=(GinibreSpec(2, 0.0), GinibreSpec(2, 1.0)),
                       base=[1.0, 2.0])
    y = build_product_batch(spec, 8, rng)
    assert np.max(np.abs(y + y.transpose(0, 2, 1))) == 0.0


def test_all_jacobi_product_stays_bounded():
    rng = np.random.default_rng(8)
    spec = ProductSpec(factors=(JacobiSpec(2, 2, 9), JacobiSpec(2, 2, 9)),
                       base=[0.5, 1.0])
    y = build_product_batch(spec, 500, rng)
    a = spectra_batch(y)
    assert np.max(a) <= 1.0 + 1e-10


def test_spectrum_distribution_k_invariant():
    # conjugating the base by a Haar rotation leaves the product spectrum
    # law unchanged; two-sample KS on the top singular value
    rng = np.random.default_rng(9)
    spec = ProductSpec(factors=(GinibreSpec(2, 0.0),), base=[1.0, 2.0])
    a1 = spectra_batch(build_product_batch(spec, 20_000, rng))[:, 1]
    a2 = spectra_batch(build_product_batch(spec, 20_000, rng))[:, 1]
    res = stats.ks_2samp(a1, a2)
    assert res.pvalue > 1e-3


# The reference construction of the factors: g = R (M^T M)^(1/2) with the
# symmetric square root from eigh, and the Jacobi M cut from a full Haar
# O(K1) matrix.

def _reference_root(m):
    w, v = np.linalg.eigh(np.einsum("sji,sjk->sik", m, m))
    return np.einsum("sik,sk,sjk->sij", v, np.sqrt(np.clip(w, 0.0, None)), v)


def _reference_factor(spec, size, rng, block=2000):
    out = []
    for done in range(0, size, block):
        b = min(block, size - done)
        if isinstance(spec, GinibreSpec):
            m = rng.standard_normal((b, 2 * (spec.n + int(spec.nu)), 2 * spec.n))
        else:
            m = haar_orthogonal_batch(spec.K1, b, rng)[:, : 2 * spec.N,
                                                       : 2 * spec.n]
        out.append(haar_orthogonal_batch(2 * spec.n, b, rng) @ _reference_root(m))
    return np.concatenate(out)


@pytest.mark.parametrize("spec", [JacobiSpec(2, 2, 9), JacobiSpec(2, 2, 41),
                                  GinibreSpec(2, 1.0)], ids=str)
def test_factor_singular_values_match_reference(spec):
    size = 10_000
    new = np.linalg.svd(_factor_batch(spec, size, np.random.default_rng(10)),
                        compute_uv=False)
    ref = np.linalg.svd(_reference_factor(spec, size, np.random.default_rng(11)),
                        compute_uv=False)
    for j in range(2 * spec.n):
        assert stats.ks_2samp(new[:, j], ref[:, j]).pvalue > 1e-3


@pytest.mark.parametrize("spec", [GinibreSpec(1, 0.0), GinibreSpec(2, 1.0)],
                         ids=str)
def test_ginibre_det_mean_is_bartlett(spec):
    # E det(g^T g) = E det(M^T M) = prod_{i < 2n} (2 (n + nu) - i)
    size = 40_000
    g = sample_induced_ginibre_batch(spec, size, np.random.default_rng(12))
    d = np.linalg.det(np.swapaxes(g, 1, 2) @ g)
    expect = np.prod(2 * (spec.n + spec.nu) - np.arange(2 * spec.n))
    z = (d.mean() - expect) / (d.std(ddof=1) / np.sqrt(size))
    assert abs(z) < 4.0


@pytest.mark.parametrize("spec", [JacobiSpec(1, 1, 4), JacobiSpec(2, 2, 8),
                                  JacobiSpec(2, 2, 41)], ids=str)
def test_jacobi_det_mean_is_beta(spec):
    # M^T M is matrix-variate Beta, E det(M^T M) = prod_{i < 2n} (2N - i) / (K1 - i)
    size = 40_000
    c = _jacobi_triangle(spec, size, np.random.default_rng(16))
    d = np.linalg.det(np.swapaxes(c, 1, 2) @ c)
    i = np.arange(2 * spec.n)
    expect = np.prod((2 * spec.N - i) / (spec.K1 - i))
    z = (d.mean() - expect) / (d.std(ddof=1) / np.sqrt(size))
    assert abs(z) < 4.0


@pytest.mark.parametrize("spec", [JacobiSpec(1, 1, 4), JacobiSpec(2, 2, 8),
                                  JacobiSpec(2, 3, 10), JacobiSpec(2, 2, 41)],
                         ids=str)
def test_jacobi_triangle_is_an_upper_contraction(spec):
    c = _jacobi_triangle(spec, 5000, np.random.default_rng(17))
    assert np.array_equal(c, np.triu(c))
    assert np.max(np.linalg.svd(c, compute_uv=False)) <= 1.0 + 1e-12


def test_small_n_spectra_call_no_qr_or_eigvalsh(monkeypatch):
    # a single factor needs no Haar rotation, so neither LAPACK call remains
    def fail(*args, **kwargs):
        raise AssertionError("LAPACK call on the sampling path")

    monkeypatch.setattr(np.linalg, "qr", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    for n in (1, 2):
        spec = ProductSpec(factors=(JacobiSpec(n, n, 4 * n + 1),))
        a = product_spectra_batch(spec, 50, np.random.default_rng(18))
        assert a.shape == (50, n)


# The spectra-only path skips the outermost rotation R_M, the last draw of
# build_product_batch, so at a fixed seed it sees the same random numbers.

def _factor_lists(n):
    g0, g1, jac = GinibreSpec(n, 0.0), GinibreSpec(n, 1.0), JacobiSpec(n, n, 4 * n + 1)
    return [(), (g1,), (jac, g0), (g0, jac, g1)]


def _assert_squares_close(a, b):
    # squares within 1e-10 of the row's largest square
    scale = np.max(b * b, axis=1, keepdims=True)
    assert np.max(np.abs(a * a - b * b) / scale) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_spectra_match_full_product(n):
    base = np.linspace(0.5, 2.0, n)
    for m, factors in enumerate(_factor_lists(n)):
        spec = ProductSpec(factors=factors, base=base)
        seed = 100 + 10 * n + m
        a = product_spectra_batch(spec, 300, np.random.default_rng(seed))
        assert a.shape == (300, n)
        full = spectra_batch(build_product_batch(spec, 300,
                                                 np.random.default_rng(seed)))
        _assert_squares_close(a, full)
        # the explicit product of whole factors g = R C, drawn in turn
        rng = np.random.default_rng(seed)
        y = build_product_batch(ProductSpec(base=base), 1, rng)[0]
        for factor in factors:
            g = _factor_batch(factor, 300, rng)
            y = g @ y @ np.swapaxes(g, 1, 2)
        y = np.broadcast_to(y, (300, 2 * n, 2 * n))
        _assert_squares_close(a, spectra_batch((y - np.swapaxes(y, 1, 2)) / 2))


def test_product_spectra_of_empty_product_are_the_base():
    for base in ([0.3], [1.0, 2.0], [0.3, 1.7, 2.2], [0.1, 0.2, 5.0, 7.5]):
        a = product_spectra_batch(ProductSpec(base=base), 5,
                                  np.random.default_rng(13))
        assert np.array_equal(a, np.tile(base, (5, 1)))


@pytest.mark.parametrize("spec", [GinibreSpec(1, 0.0), GinibreSpec(1, 1.0),
                                  JacobiSpec(1, 1, 5)], ids=str)
def test_product_spectra_n1_are_det_times_base(spec):
    # at n = 1, g A g^T = det(g) A for every 2 x 2 antisymmetric A
    sampler = (sample_induced_ginibre_batch if isinstance(spec, GinibreSpec)
               else sample_induced_jacobi_batch)
    a = product_spectra_batch(ProductSpec(factors=(spec,), base=[1.7]), 2000,
                              np.random.default_rng(14))[:, 0]
    g = sampler(spec, 2000, np.random.default_rng(14))
    expect = np.abs(np.linalg.det(g)) * 1.7
    assert np.max(np.abs(a - expect) / expect) < 1e-13


@pytest.mark.parametrize("size", [0, -5])
def test_product_rejects_sample_counts_below_one(size):
    spec = ProductSpec(factors=(GinibreSpec(1, 0.0),))
    for build in (build_product_batch, product_spectra_batch):
        with pytest.raises(DomainError):
            build(spec, size, np.random.default_rng(15))
