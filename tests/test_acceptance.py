"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failure) and asserts the criterion at its stated
tolerance and sample count.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from antiprod import spherical as sph
from antiprod.ensembles import (PolynomialEnsembleSpec, convolve_ensemble,
                                corank2_jpdf, fixed_base_weights,
                                jpdf_degenerate, jpdf_fixed,
                                muttalib_borodin_weights)
from antiprod.harness import (ExperimentConfig, emit_results,
                              prop45_distribution_check,
                              run_corank2_experiment, run_kernel_suite,
                              run_mellin_suite, run_prop45_check,
                              run_spectrum_experiment, run_suite)
from antiprod.linalg import SingularSpectrum, spectra_batch
from antiprod.mellin import (ginibre_weight, jacobi_weight, mellin_convolve,
                             mellin_numeric)
from antiprod.samplers import JacobiSpec, ProductSpec, build_product_batch

N_LARGE = 1_000_000
N_MED = 100_000


def _verdict(num, label, checks):
    ok = all(bool(c) for c, _ in checks)
    detail = "; ".join(d for c, d in checks if not c)
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_spherical_closed_vs_mc():
    rng = np.random.default_rng(101)
    checks = []
    named = sph.phi_closed((2.0, 0.0), (1.0, 2.0))
    checks.append((abs(named - 2.0) < 1e-10, f"named value {named}"))
    points = [((2.0, 0.0), (1.0, 2.0)),
              ((4.0, 0.0), (1.0, 2.0)),
              ((4.5, 0.5), (0.5, 1.5)),
              ((6.0, 0.0), (1.0, 1.5)),
              ((5.0, 1.0), (0.7, 2.1))]
    for s, a in points:
        t0 = time.perf_counter()
        closed = sph.phi_closed(s, a)
        mc, se = sph.phi_montecarlo(s, a, N_LARGE, rng)
        dt = time.perf_counter() - t0
        within = abs(mc - closed) <= 3.0 * se + 1e-12
        checks.append((within, f"s={s} a={a}: mc={mc:.6g} closed={closed:.6g}"
                               f" se={se:.2g}"))
        checks.append((dt < 120.0, f"s={s}: {dt:.1f}s over budget"))
    _verdict(1, "phi closed vs MC", checks)


def test_criterion_02_normalization_limit():
    rng = np.random.default_rng(102)
    checks = []
    for n in (1, 2, 3, 4):
        s = tuple(2.0 * (n - j) for j in range(1, n + 1))
        lim = sph.phi_closed(s, tuple([1.0] * n))
        checks.append((abs(lim - 1.0) < 1e-8, f"n={n}: limit {lim}"))
    mc, se = sph.phi_montecarlo((4.0, 0.0), (1.0, 1.0), N_LARGE, rng)
    checks.append((abs(mc - 1.0) <= 3.0 * se + 1e-12,
                   f"n=2 MC at a=1: {mc} +- {se}"))
    _verdict(2, "a->1 normalization", checks)


def test_criterion_03_factorization_identities():
    rng = np.random.default_rng(103)
    checks = []
    g = np.diag([1.2, 0.8, 1.1, 0.9])
    gp = np.diag([0.7, 1.3, 1.0, 1.0])
    # at s = (2, 0) both sides are constant in k; s = (4, 0) weights a
    # proper minor, so the Haar averages vary
    _, _, z1 = sph.factorization_check_phi((4.0, 0.0), g, (1.0, 2.0),
                                           N_LARGE, rng)
    _, _, z2 = sph.factorization_check_psi((4.0, 0.0), g, gp, N_LARGE, rng)
    checks.append((z1 < 3.0, f"phi factorization z={z1:.2f}"))
    checks.append((z2 < 3.0, f"psi factorization z={z2:.2f}"))
    # transform-side factorization with exact Mellin handles
    gw = ginibre_weight(0.0)
    base = PolynomialEnsembleSpec(2, muttalib_borodin_weights(0.0, 0.0, 2))
    conv = convolve_ensemble(base, gw)
    rels = []
    for sv in [(4.0, 2.0), (5.0, 2.5), (6.0, 3.0)]:
        lhs = sph.spherical_transform_poly(conv, sv)
        rhs = sph.spherical_transform_factor(gw, sv) \
            * sph.spherical_transform_poly(base, sv)
        rels.append(abs(lhs - rhs) / abs(rhs))
    worst = np.max(rels)
    checks.append((np.isfinite(worst) and worst < 1e-8,
                   f"transform factorization rel={worst:.2e}"))
    _verdict(3, "factorization identities", checks)


def test_criterion_04_group_integral():
    rng = np.random.default_rng(104)
    checks = []
    x, y = 0.7, 1.3
    err = abs(sph.harish_chandra_o2n((x,), (y,)) - np.cosh(x * y))
    checks.append((err < 1e-12, f"n=1 error {err:.2e}"))
    closed = sph.harish_chandra_o2n((0.5, 1.0), (0.8, 1.6))
    mc, se = sph.harish_chandra_o2n_mc((0.5, 1.0), (0.8, 1.6), N_LARGE, rng)
    checks.append((abs(mc - closed) <= 3.0 * se,
                   f"n=2: mc={mc:.6g} closed={closed:.6g} se={se:.2g}"))
    _verdict(4, "group integral", checks)


def test_criterion_05_corank2_projection():
    checks = []
    a = SingularSpectrum.from_values([1.0, 2.0])
    a1, a2 = 1.0, 2.0
    for xv in (0.2, 0.7):
        got = corank2_jpdf([xv], a)
        checks.append((abs(got - 2.0 / (a1 + a2)) < 1e-12,
                       f"inner piece at {xv}: {got}"))
    for xv in (1.3, 1.8):
        got = corank2_jpdf([xv], a)
        want = 2.0 * (a2 - xv) / (a2 ** 2 - a1 ** 2)
        checks.append((abs(got - want) < 1e-12,
                       f"outer piece at {xv}: {got}"))
    cfg = ExperimentConfig(kind="corank2", params={"a": [1.0, 2.0]},
                           nsamples=N_MED, seed=105, bins=50)
    rep = run_corank2_experiment(cfg)
    checks.append((abs(rep.statistics["norm"] - 1.0) < 1e-10,
                   f"norm {rep.statistics['norm']}"))
    checks.append((rep.statistics["chi2_pvalue"] > 1e-3,
                   f"chi2 p={rep.statistics['chi2_pvalue']:.2e}"))
    _verdict(5, "corank-2 projection", checks)


def _grid_mass(density, n: int, breaks, m: int = 16) -> float:
    """Integral of density over the box spanned by breaks in each of the
    n <= 2 coordinates, by the m-point Gauss-Legendre rule on each cell,
    from one call on the stack of product-grid spectra."""
    x, w = np.polynomial.legendre.leggauss(m)
    lo, hi = np.asarray(breaks[:-1]), np.asarray(breaks[1:])
    half = (hi - lo)[:, None] / 2.0
    x, w = ((lo + hi)[:, None] / 2.0 + half * x).ravel(), (half * w).ravel()
    if n == 1:
        return float(w @ density(x[:, None]))
    grid = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
    return float(w @ density(grid) @ w)


def test_criterion_06_fixed_jpdfs():
    checks = []
    gw = ginibre_weight(0.0)
    jw1 = jacobi_weight(0.0, 0.0, 1)
    jw2 = jacobi_weight(0.0, 0.0, 2)
    # normalization, n = 1 and 2, both weights: composite Gauss-Legendre
    # on the whole box, one stacked call per density; the Jacobi densities
    # are polynomials between the breaks, where the rule is exact
    half_line = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    for base, w, breaks, label in (([1.0], gw, half_line, "ginibre n=1"),
                                   ([1.0], jw1, [0.0, 1.0], "jacobi n=1"),
                                   ([1.0, 2.0], gw, half_line, "ginibre n=2"),
                                   ([0.5, 0.9], jw2, [0.0, 0.5, 0.9, 1.0],
                                    "jacobi n=2")):
        m = _grid_mass(lambda a: jpdf_fixed(a, base, w), len(base), breaks)
        checks.append((abs(m - 1.0) < 1e-6, f"{label} mass {m}"))
    # MC marginals
    cases = [({"factor": "ginibre", "n": 1, "nu": 0.0, "base": [1.0]},
              "ginibre n=1"),
             ({"factor": "jacobi", "n": 1, "N": 1, "K1": 5, "base": [1.0]},
              "jacobi n=1"),
             ({"factor": "ginibre", "n": 2, "nu": 0.0, "base": [1.0, 2.0]},
              "ginibre n=2"),
             ({"factor": "jacobi", "n": 2, "N": 2, "K1": 9,
               "base": [0.5, 0.9]}, "jacobi n=2")]
    for params, label in cases:
        cfg = ExperimentConfig(kind="spectrum-vs-jpdf", params=params,
                               nsamples=N_MED, seed=106, label=label)
        rep = run_spectrum_experiment(cfg)
        checks.append((rep.passed,
                       f"{label}: ks={rep.statistics['ks']:.4f} "
                       f"(tol {rep.statistics['ks_tol']}) "
                       f"norm={rep.statistics['norm']:.8f}"))
    _verdict(6, "fixed-base jPDFs", checks)


def test_criterion_07_degenerate_limit():
    checks = []
    gw = ginibre_weight(0.0)
    pts = [(0.5, 1.5), (1.0, 2.0), (0.3, 0.9), (2.0, 3.5), (0.1, 4.0)]
    for x, y in pts:
        fixed = jpdf_fixed([x, y], [1.0, 1.0 + 1e-3], gw)
        deg = jpdf_degenerate([x, y], gw)
        rel = abs(fixed - deg) / deg
        checks.append((rel < 5e-3, f"({x},{y}): rel {rel:.2e}"))
    rng = np.random.default_rng(107)
    prod = ProductSpec(factors=(JacobiSpec(1, 1, 5),),
                       base=SingularSpectrum.from_values([1.0]))
    a = spectra_batch(build_product_batch(prod, N_MED, rng)).ravel()
    res = stats.kstest(a, lambda t: 1.0 - (1.0 - np.clip(t, 0, 1)) ** 3)
    checks.append((res.statistic < 0.01,
                   f"n=1 cubic law KS={res.statistic:.4f}"))
    _verdict(7, "degenerate-base limit", checks)


def test_criterion_08_kernel_suite():
    rep = run_kernel_suite(ExperimentConfig(kind="kernel-consistency",
                                            seed=108))
    checks = [(rep.passed,
               "; ".join(f"{k}={v:.3g}" for k, v in rep.statistics.items()))]
    _verdict(8, "kernel suite", checks)


def test_criterion_09_mellin_closed_forms():
    checks = []
    worst = 0.0
    for nu in (0.0, 0.5, 1.0):
        for mu in (0.0, 0.5, 1.0):
            for j in range(4):
                s = 2 * j + 1
                gw = ginibre_weight(nu)
                worst = max(worst, abs(mellin_numeric(gw, s) - gw.mellin(s))
                            / abs(gw.mellin(s)))
                jw = jacobi_weight(nu, mu, 2)
                worst = max(worst, abs(mellin_numeric(jw, s) - jw.mellin(s))
                            / abs(jw.mellin(s)))
    checks.append((worst < 1e-8, f"closed-form rel {worst:.2e}"))
    f = ginibre_weight(0.5)
    h = jacobi_weight(0.0, 0.0, 1)
    worst = 0.0
    for s in (1.0, 2.0, 3.0):
        lhs = mellin_numeric(lambda y: mellin_convolve(f, h, y), s,
                             support=(0.0, f.tail))
        rhs = f.mellin(s) * h.mellin(s)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    checks.append((worst < 1e-8, f"convolution factorization rel {worst:.2e}"))
    _verdict(9, "Mellin closed forms", checks)


def test_criterion_10_recursion():
    t0 = time.perf_counter()
    checks = []
    pts = [((2.0, 0.0), (1.0, 2.0)),
           ((3.0, 1.0), (1.0, 2.0)),
           ((4.0, 0.0), (0.5, 1.5)),
           ((4.0, 2.0, 0.0), (1.0, 2.0, 3.0)),
           ((5.0, 3.0, 1.0), (0.5, 1.0, 2.0))]
    for s, a in pts:
        rec = sph.fn_recurrence(s, a)
        clo = sph.fn_closed(s, a)
        rel = abs(rec - clo) / abs(clo)
        checks.append((rel < 1e-6, f"s={s}: rel {rel:.2e}"))
    dt = time.perf_counter() - t0
    checks.append((dt < 300.0, f"runtime {dt:.1f}s over budget"))
    _verdict(10, "recursion vs closed form", checks)


def test_criterion_11_gamma_identity():
    checks = []
    for nu, mu, n in [(0.0, 0.0, 1), (0.5, 1.0, 2), (1.0, 0.5, 3)]:
        rep = run_prop45_check(nu, mu, n)
        checks.append((rep.statistics["max_deviation"] < 1e-10,
                       f"nu={nu} mu={mu} n={n}: "
                       f"dev {rep.statistics['max_deviation']:.2e}"))
    neg = run_prop45_check(0.0, 0.0, 1, perturb=True)
    checks.append((neg.statistics["max_deviation"] > 1e-2,
                   "negative control did not deviate"))
    dist = prop45_distribution_check(nsamples=N_MED, seed=111)
    checks.append((dist.statistics["ks"] < 0.01,
                   f"distribution KS {dist.statistics['ks']:.4f}"))
    _verdict(11, "Gamma-identity faces", checks)


def test_criterion_12_determinism(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        reports = run_suite("quick", seed=12, nsamples=20_000)
        out = tmp_path / tag
        paths = emit_results(reports, out, fmt="csv")
        blobs.append({Path(p).name: Path(p).read_bytes() for p in paths})
    checks = [(blobs[0] == blobs[1], "re-run output differs")]
    _verdict(12, "byte-identical re-runs", checks)
