import numpy as np
import pytest
from scipy import stats

from antiprod.linalg import (DomainError, SingularSpectrum,
                             haar_orthogonal_batch, spectra_batch)
from antiprod.samplers import (GinibreSpec, JacobiSpec, ProductSpec,
                               _factor_batch, build_product,
                               build_product_batch,
                               sample_ginibre_rect,
                               sample_induced_ginibre,
                               sample_induced_ginibre_batch,
                               sample_induced_jacobi_batch)


def test_rect_gaussian_moments():
    rng = np.random.default_rng(0)
    m = np.stack([sample_ginibre_rect(4, 2, rng) for _ in range(4000)])
    tr = np.einsum("sij,sij->s", m, m)
    # E Tr M^T M = rows * cols = 8, Var = 2 * 8
    assert abs(tr.mean() - 8.0) < 4.0 * np.sqrt(16.0 / 4000)


def test_rect_validation():
    rng = np.random.default_rng(0)
    for rows, cols in [(3, 2), (2, 3), (0, 2), (2, 1)]:
        with pytest.raises(DomainError):
            sample_ginibre_rect(rows, cols, rng)


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
    g = sample_induced_ginibre(GinibreSpec(2, 1.0), rng)
    assert g.entries.shape == (4, 4)
    s = np.linalg.svd(g.entries, compute_uv=False)
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
    y = build_product(spec, rng)
    vals = spectra_batch(y.entries[None])[0]
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
