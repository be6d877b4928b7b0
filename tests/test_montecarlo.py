"""The Haar Monte Carlo estimators against a naive loop, on a partial block.

The block size is patched to 7 and 20 samples are drawn, so every estimator
runs two full blocks and one partial block.  The reference draws the same
Haar stacks block by block, then evaluates the integrands sample by sample
through independent formulas.
"""

import numpy as np
import pytest

from antiprod import harness, linalg
from antiprod.linalg import build_canonical, haar_orthogonal_batch
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
    monkeypatch.setattr(linalg, "_HAAR_BLOCK", BLOCK)


def naive_draws(rng, dim, draws=1):
    """`draws` Haar stacks of NS matrices, drawn in blocks of BLOCK."""
    sizes = [BLOCK] * (NS // BLOCK) + [NS % BLOCK]
    blocks = [[haar_orthogonal_batch(dim, size, rng) for _ in range(draws)]
              for size in sizes]
    return [np.concatenate(ks) for ks in zip(*blocks)]


def minor_product(y):
    e = SphericalParameter(np.asarray(S)).exponents
    return np.array([np.prod([complex(np.linalg.det(m[:2 * j, :2 * j]))
                              ** e[j - 1] for j in (1, 2)]) for m in y])


def sandwich(k, m):
    return np.einsum("sab,sbc,sdc->sad", k, np.broadcast_to(m, k.shape), k)


def mean_se(v):
    return np.mean(v), np.sqrt(np.mean(np.abs(v - np.mean(v)) ** 2) / v.size)


def naive_psi(rng, g):
    return mean_se(minor_product(sandwich(naive_draws(rng, 4)[0], g @ g.T)))


def test_phi_montecarlo_partial_block():
    got = phi_montecarlo(S, A, NS, np.random.default_rng(1))
    k = naive_draws(np.random.default_rng(1), 4)[0]
    num = minor_product(sandwich(k, build_canonical(
        linalg.SingularSpectrum.from_values(A)).entries))
    den = minor_product(sandwich(k, build_canonical(
        linalg.SingularSpectrum(np.ones(2))).entries))
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
    k = naive_draws(np.random.default_rng(3), 4)[0]
    X = build_canonical(linalg.SingularSpectrum.from_values(x)).entries
    Y = build_canonical(linalg.SingularSpectrum.from_values(y)).entries
    vals = np.exp(np.trace(X @ sandwich(k, Y), axis1=1, axis2=2) / 2.0)
    assert got == pytest.approx(mean_se(vals), rel=1e-9)


def test_factorization_phi_partial_block():
    got = factorization_check_phi(S, G, A, NS, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    x = build_canonical(linalg.SingularSpectrum.from_values(A)).entries
    ys = G @ sandwich(naive_draws(rng, 4)[0], x) @ G.T
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
    k1, k2 = naive_draws(rng, 4, draws=2)
    lhs, lhs_se = mean_se(minor_product(
        sandwich(k2, G @ sandwich(k1, GP @ GP.T) @ G.T)))
    (p1, se1), (p2, se2) = naive_psi(rng, G), naive_psi(rng, GP)
    z = abs(lhs - p1 * p2) / np.sqrt(lhs_se ** 2 + (se1 * abs(p2)) ** 2
                                     + (se2 * abs(p1)) ** 2)
    assert got == pytest.approx((lhs, p1 * p2, z), rel=1e-9)


def test_corank2_samples_partial_block(monkeypatch):
    seen = []
    binned = harness._binned_comparison

    def spy(samples, *args):
        seen.append(samples)
        return binned(samples, *args)

    monkeypatch.setattr(harness, "_binned_comparison", spy)
    harness.run_corank2_experiment(harness.ExperimentConfig(
        kind="corank2", params={"a": list(A)}, nsamples=NS, seed=6, bins=5))
    k = naive_draws(np.random.default_rng(6), 4)[0]
    x = build_canonical(linalg.SingularSpectrum.from_values(A)).entries
    # the corank-2 block of a 4 x 4 antisymmetric matrix is [[0, b], [-b, 0]]
    want = np.abs(sandwich(k, x)[:, 0, 1])
    np.testing.assert_allclose(seen[0], want, rtol=1e-12)
