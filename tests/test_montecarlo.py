"""The Monte Carlo stream against a naive loop, on a partial block.

The block size is patched to 7 and 20 samples are drawn, so every estimator
and both product samplers run two full blocks and one partial block.  The
reference draws the same Haar stacks, Gaussian stacks and products block by
block, then evaluates the integrands sample by sample through independent
formulas: the minor estimators take the Haar matrix k of each Gaussian
stack from its own QR factorization and the principal minors of k^T m k.
"""

from functools import partial

import numpy as np
import pytest

from antiprod import harness, linalg
from antiprod.ensembles import corank2_jpdf
from antiprod.linalg import (antisymmetrized, build_canonical,
                             haar_orthogonal_batch, spectra_batch)
from antiprod.mellin import QuadratureError
from antiprod.samplers import (GinibreSpec, JacobiSpec, ProductSpec,
                               _product_draws, _sandwich_chain,
                               build_product_batch,
                               product_spectra_batch)
from antiprod.spherical import (SphericalParameter, factorization_check_phi,
                                factorization_check_psi,
                                harish_chandra_o2n_mc, phi_closed,
                                phi_montecarlo, psi_montecarlo)

BLOCK = 7
NS = 20
S = (4.0, 0.5)          # non-constant minor integrands at n = 2
G = np.diag([1.2, 0.8, 1.1, 0.9])
GP = np.diag([0.7, 1.3, 1.0, 1.0])
A = (1.0, 2.0)


@pytest.fixture(autouse=True)
def small_block(monkeypatch):
    monkeypatch.setattr(linalg, "MC_BLOCK", BLOCK)


def naive_draws(rng, draws):
    """One stack of NS matrices per callable of `draws`, drawn in blocks of
    BLOCK."""
    sizes = [BLOCK] * (NS // BLOCK) + [NS % BLOCK]
    blocks = [[draw(size, rng) for draw in draws] for size in sizes]
    return [np.concatenate(ks) for ks in zip(*blocks)]


def haar(size, rng):
    return haar_orthogonal_batch(4, size, rng)


def gauss(size, rng):
    # the proper minor of order 2 has a nonzero exponent at S, so the
    # estimators draw the two leading columns of k
    return rng.standard_normal((size, 4, 2))


def qr_haar(g):
    """For each Gaussian matrix, an orthogonal k whose leading columns are
    its QR frame with the R diagonal made positive."""
    ks = []
    for gi in g:
        q, r = np.linalg.qr(gi, mode="complete")
        q[:, :gi.shape[1]] *= np.sign(np.diag(r))
        ks.append(q)
    return np.array(ks)


def frame_minor_product(g, m):
    """Minor products of k^T m k for the k of each Gaussian matrix."""
    return minor_product(sandwich(qr_haar(g).transpose(0, 2, 1), m))


def minor_product(y):
    e = SphericalParameter(np.asarray(S)).exponents
    return np.array([np.prod([complex(np.linalg.det(m[:2 * j, :2 * j]))
                              ** e[j - 1] for j in (1, 2)]) for m in y])


def sandwich(k, m):
    return np.einsum("sab,sbc,sdc->sad", k, np.broadcast_to(m, k.shape), k)


def mean_se(v):
    return np.mean(v), np.sqrt(np.mean(np.abs(v - np.mean(v)) ** 2) / v.size)


def naive_psi(rng, g):
    return mean_se(frame_minor_product(naive_draws(rng, (gauss,))[0], g @ g.T))


def test_phi_montecarlo_partial_block():
    got = phi_montecarlo(S, A, NS, np.random.default_rng(1))
    f = naive_draws(np.random.default_rng(1), (gauss,))[0]
    num = frame_minor_product(f, build_canonical(
        linalg.SingularSpectrum.from_values(A)).entries)
    den = frame_minor_product(f, build_canonical(
        linalg.SingularSpectrum(np.ones(2))).entries)
    r = np.mean(num) / np.mean(den)
    se = np.sqrt(np.mean(np.abs(num - r * den) ** 2) / NS) / abs(np.mean(den))
    assert got[0] == pytest.approx(r, rel=1e-12)
    assert got[1] == pytest.approx(se, rel=1e-9)


def test_psi_montecarlo_partial_block():
    got = psi_montecarlo(S, G, NS, np.random.default_rng(2))
    want = naive_psi(np.random.default_rng(2), G)
    assert got == pytest.approx(want, rel=1e-9)


def test_harish_chandra_mc_partial_block():
    x, y = (0.5, 1.0), (0.8, 1.6)
    got = harish_chandra_o2n_mc(x, y, NS, np.random.default_rng(3))
    k = naive_draws(np.random.default_rng(3), (haar,))[0]
    X = build_canonical(linalg.SingularSpectrum.from_values(x)).entries
    Y = build_canonical(linalg.SingularSpectrum.from_values(y)).entries
    vals = np.exp(np.trace(X @ sandwich(k, Y), axis1=1, axis2=2) / 2.0)
    assert got == pytest.approx(mean_se(vals), rel=1e-9)


def test_factorization_phi_partial_block():
    got = factorization_check_phi(S, G, A, NS, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    x = build_canonical(linalg.SingularSpectrum.from_values(A)).entries
    ys = G @ sandwich(naive_draws(rng, (haar,))[0], x) @ G.T
    lhs = [phi_closed(S, linalg.singular_spectrum(
        linalg.AntisymmetricMatrix.from_raw(y))) for y in ys]
    lhs, lhs_se = mean_se(np.array(lhs))
    psi, psi_se = naive_psi(rng, G)
    phi = phi_closed(S, A)
    z = abs(lhs - psi * phi) / np.hypot(lhs_se, psi_se * abs(phi))
    assert got == pytest.approx((lhs, psi * phi, z), rel=1e-9)


def test_factorization_psi_partial_block():
    got = factorization_check_psi(S, G, GP, NS, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    k1, f = naive_draws(rng, (haar, gauss))
    lhs, lhs_se = mean_se(frame_minor_product(
        f, G @ sandwich(k1, GP @ GP.T) @ G.T))
    (p1, se1), (p2, se2) = naive_psi(rng, G), naive_psi(rng, GP)
    z = abs(lhs - p1 * p2) / np.sqrt(lhs_se ** 2 + (se1 * abs(p2)) ** 2
                                     + (se2 * abs(p1)) ** 2)
    assert got == pytest.approx((lhs, p1 * p2, z), rel=1e-9)


def test_cdf_table_is_gated_and_puts_a_grid_point_on_each_kink():
    # the corank-2 density has a kink at a_1 = 1; a panel across it misses
    # the quadrature gate
    a = linalg.SingularSpectrum.from_values(A)

    def density(v):
        return corank2_jpdf(np.asarray(v)[..., None], a)

    samples = np.linspace(0.05, 1.95, 200)
    with pytest.raises(QuadratureError):
        harness._binned_comparison(samples, density, (0.0, 2.0))
    norm = harness._binned_comparison(samples, density, (0.0, 2.0),
                                      a.values)[-1]
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_corank2_samples_partial_block(monkeypatch):
    seen = []
    binned = harness._binned_comparison

    def spy(samples, *args):
        seen.append(samples)
        return binned(samples, *args)

    monkeypatch.setattr(harness, "_binned_comparison", spy)
    harness.run_corank2_experiment(harness.ExperimentConfig(
        params={"a": list(A)}, nsamples=NS, seed=6))
    k = naive_draws(np.random.default_rng(6), (haar,))[0]
    x = build_canonical(linalg.SingularSpectrum.from_values(A)).entries
    # the corank-2 block of a 4 x 4 antisymmetric matrix is [[0, b], [-b, 0]]
    want = np.abs(sandwich(k, x)[:, 0, 1])
    np.testing.assert_allclose(seen[0], want, rtol=1e-12)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("nfactors", [1, 2])
def test_product_samplers_partial_block(n, nfactors):
    spec = ProductSpec((GinibreSpec(n, 1.0), JacobiSpec(n, n, 4 * n + 1))
                       [:nfactors], np.linspace(0.5, 2.0, n))
    a = product_spectra_batch(spec, NS, np.random.default_rng(8))
    y = build_product_batch(spec, NS, np.random.default_rng(8))
    # the products up to R_M, block by block, then every R_M
    rng = np.random.default_rng(8)
    core = naive_draws(rng, (lambda size, rng: _sandwich_chain(
        _product_draws(spec, size, rng)),))[0]
    r = naive_draws(rng, (partial(haar_orthogonal_batch, 2 * n),))[0]
    want = antisymmetrized(core)
    np.testing.assert_allclose(a, spectra_batch(want), rtol=1e-12)
    np.testing.assert_allclose(y, antisymmetrized(linalg.sandwich(r, core)),
                               rtol=1e-12, atol=1e-12 * np.abs(y).max())
    # both samplers see the same random numbers: spectra agree to rounding
    full = spectra_batch(y)
    scale = np.max(full * full, axis=1, keepdims=True)
    assert np.max(np.abs(a * a - full * full) / scale) < 1e-10
