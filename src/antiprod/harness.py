"""Experiment orchestration: Monte Carlo versus analytic comparisons.

Every experiment is described by an ExperimentConfig and produces a
TestReport with the statistics, per-bin tables and a pass/fail verdict.
Spectrum experiments compare pooled Monte Carlo spectra with the kernel
diagonal K_n(y, y) / n of the fixed-base product ensemble.
Reports are emitted as CSV or JSON-lines tables plus a plain-text summary;
emitted bytes are deterministic for fixed (config, seed), so re-running a
suite reproduces the artifacts exactly (wall-clock stays in memory only).
"""

from __future__ import annotations

import json
import time
from itertools import product
from dataclasses import dataclass, field, asdict
from functools import partial
from pathlib import Path

import numpy as np
from scipy import special, stats

from . import __version__
from .linalg import (DomainError, SingularSpectrum, _haar_blocks,
                     build_canonical, haar_orthogonal_batch, spectra_batch)
from .mellin import (TAIL_CUT, WeightFunction, convolved_weight,
                     ginibre_weight, jacobi_weight, mellin_convolve,
                     mellin_numeric, quad, quad_cumulative)
from .ensembles import (PolynomialEnsembleSpec, corank2_jpdf, jpdf_fixed,
                        muttalib_borodin_weights)
from .kernels import (biorth_fixed, correlation_Rk, gram_biorth,
                      kernel_fixed, kernel_fixed_contour)
from .samplers import (GinibreSpec, JacobiSpec, ProductSpec,
                       product_spectra_batch)
from . import spherical as sph

__all__ = [
    "SCHEMA_VERSION", "ExperimentConfig", "TestReport",
    "run_spectrum_experiment", "run_corank2_experiment",
    "run_prop45_check", "prop45_distribution_check",
    "run_spherical_suite", "run_kernel_suite", "run_mellin_suite",
    "run_suite", "emit_results",
]

#: Config/output schema identifier embedded in every artifact.
SCHEMA_VERSION = "antiprod/1"

#: Panels, uniform in log y, of the cdf table behind a binned comparison.
CDF_PANELS = 8192

#: Gates of run_spherical_suite, each reported beside its statistics: every
#: Monte Carlo z-score, |Phi - 1| at the a -> 1 limits, the n = 1 group
#: integral against cosh, and the f_n recursion relative to the closed form.
SPHERICAL_Z_MAX = 3.0
PHI_LIMIT_TOL = 1e-8
HC_N1_TOL = 1e-12
FN_RTOL = 1e-6

#: Default gates of run_corank2_experiment, each overridden by the config
#: tolerance named in brackets: |norm - 1| of the projection density
#: ("norm") and the least chi-square p-value ("chi2_pvalue").
CORANK2_NORM_TOL = 1e-10
CORANK2_PVALUE_MIN = 1e-3

@dataclass
class ExperimentConfig:
    """Resolved description of one experiment run."""

    kind: str
    params: dict = field(default_factory=dict)
    nsamples: int = 100_000
    seed: int = 0
    bins: int = 50
    tolerances: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        if self.seed is None:
            raise DomainError("seed is mandatory")
        if any(v <= 0 for v in self.tolerances.values()):
            raise DomainError("tolerances must be positive")

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))

    def resolved(self) -> dict:
        d = asdict(self)
        d["schema"] = SCHEMA_VERSION
        d["version"] = __version__
        return d


@dataclass
class TestReport:
    """Statistics, per-bin table and verdict of one experiment."""

    __test__ = False  # not a pytest collectible

    name: str
    passed: bool
    statistics: dict
    rows: list = field(default_factory=list)
    nsamples: int = 0
    config: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    wall_clock: float = 0.0


def _factor_from_params(params: dict):
    """(WeightFunction, sampler spec) from a config params mapping."""
    kind = params.get("factor", "ginibre")
    n = int(params["n"])
    if kind == "ginibre":
        nu = float(params.get("nu", 0.0))
        return ginibre_weight(nu), GinibreSpec(n, nu)
    if kind == "jacobi":
        N = int(params.get("N", n))
        K1 = int(params.get("K1", 2 * (n + N) + 1))
        spec = JacobiSpec(n, N, K1)
        return jacobi_weight(spec.nu, spec.mu, n), spec
    raise DomainError(f"unknown factor kind {kind!r}")


def _binned_comparison(samples: np.ndarray, density, support, bins: int,
                       kinks=()):
    """Equal-probability binning of samples under an analytic density.

    Returns (rows, ks, chi2_stat, chi2_pvalue, norm) where rows are
    (bin_lo, bin_hi, empirical fraction, analytic fraction, zscore) and
    norm is the quadrature mass of the density (should be 1).  The cdf
    table has a grid point on each of the kinks of the density.
    """
    lo, hi = support
    hi_eff = min(hi, max(float(np.max(samples)) * 1.25, 1.0))
    # cdf table: cumulative Gauss-Legendre panel sums in log y
    lo_eff = max(lo, 1e-12)
    t = np.union1d(np.linspace(np.log(lo_eff), np.log(hi_eff), CDF_PANELS + 1),
                   np.log([k for k in kinks if lo_eff < k < hi_eff]))
    x = np.exp(t)
    c = quad_cumulative(lambda u: density(np.exp(u)) * np.exp(u), t)
    norm = float(c[-1])
    cdf = c / norm
    # inverse CDF at equal-probability levels
    levels = np.linspace(0.0, 1.0, bins + 1)
    edges = np.interp(levels, cdf, x)
    edges[0] = lo
    edges[-1] = hi_eff
    ecdf_x = np.sort(samples)
    N = ecdf_x.size
    f_at = np.interp(ecdf_x, x, cdf, left=0.0, right=1.0)
    ks = float(np.max(np.maximum(np.arange(1, N + 1) / N - f_at,
                                 f_at - np.arange(N) / N)))
    counts, _ = np.histogram(samples, bins=edges)
    expected = np.full(bins, N / bins)
    # merge underpopulated bins into their left neighbor before chi-square
    cts, exps, spans = [], [], []
    for i in range(bins):
        if exps and exps[-1] < 5.0:
            cts[-1] += counts[i]
            exps[-1] += expected[i]
            spans[-1] = (spans[-1][0], edges[i + 1])
        else:
            cts.append(int(counts[i]))
            exps.append(float(expected[i]))
            spans.append((edges[i], edges[i + 1]))
    cts, exps = np.asarray(cts, dtype=float), np.asarray(exps)
    z = (cts - exps) / np.sqrt(exps)
    chi2 = float(np.sum(z * z))
    pval = float(stats.chi2.sf(chi2, len(cts) - 1))
    rows = [(s[0], s[1], ct / N, ex / N, zz)
            for s, ct, ex, zz in zip(spans, cts, exps, z)]
    return rows, ks, chi2, pval, norm


def _pooled_marginal(atilde, factor):
    """Density of one pooled spectrum entry of the fixed-base product, the
    kernel diagonal K_n(y, y) / n, and its support."""
    system = biorth_fixed(atilde, factor)

    def density(y):
        return system.diagonal(y) / system.n

    return density, (0.0, factor.support[1] * max(atilde))


def run_spectrum_experiment(config: ExperimentConfig) -> TestReport:
    """Sample product spectra and compare the pooled marginal with the
    kernel diagonal K_n(y, y) / n of the fixed-base product ensemble."""
    t0 = time.perf_counter()
    p = config.params
    n = int(p["n"])
    factor, fspec = _factor_from_params(p)
    atilde = p.get("base", [1.0] * n)
    density, support = _pooled_marginal(atilde, factor)
    rng = np.random.default_rng(config.seed)
    prod = ProductSpec(factors=(fspec,),
                       base=SingularSpectrum.from_values(atilde))
    samples = product_spectra_batch(prod, config.nsamples, rng).ravel()
    rows, ks, chi2, pval, _ = _binned_comparison(
        samples, density, support, config.bins)
    lo, hi = support
    norm = float(quad(density, max(lo, 1e-12),
                      hi if np.isfinite(hi) else TAIL_CUT)[0])
    ks_tol = config.tol("ks", 0.01 if n == 1 else 0.015)
    passed = ks < ks_tol and abs(norm - 1.0) < config.tol("norm", 1e-6)
    stats_d = {"ks": ks, "ks_tol": ks_tol, "chi2": chi2,
               "chi2_pvalue": pval, "norm": norm}
    return TestReport(
        name=config.label or f"spectrum-{p.get('factor', 'ginibre')}-n{n}",
        passed=passed, statistics=stats_d, rows=rows,
        nsamples=config.nsamples, config=config.resolved(),
        wall_clock=time.perf_counter() - t0)


def run_corank2_experiment(config: ExperimentConfig) -> TestReport:
    """Corank-2 projection of k (i a (x) tau_2) k^T over Haar k: MC versus
    the closed-form projection density."""
    t0 = time.perf_counter()
    a = SingularSpectrum.from_values(config.params["a"])
    n = a.n
    rng = np.random.default_rng(config.seed)
    x = build_canonical(a).entries
    vals = []
    haar = partial(haar_orthogonal_batch, 2 * n)
    for (k,) in _haar_blocks((haar,), config.nsamples, rng):
        y = k @ x @ np.swapaxes(k, 1, 2)
        y = (y - np.swapaxes(y, 1, 2)) / 2.0
        vals.append(spectra_batch(y[:, :-2, :-2]))
    samples = np.concatenate(vals).ravel()

    def density(v):
        return corank2_jpdf(np.asarray(v)[..., None], a)

    rows, ks, chi2, pval, _ = _binned_comparison(
        samples, density, (0.0, float(a.values[-1])), config.bins, a.values)
    # the projection density is piecewise polynomial; integrate each cell
    cells = np.concatenate([[1e-12], a.values])
    norm = float(np.sum(quad(density, cells[:-1], cells[1:])[0]))
    norm_tol = config.tol("norm", CORANK2_NORM_TOL)
    p_min = config.tol("chi2_pvalue", CORANK2_PVALUE_MIN)
    passed = abs(norm - 1.0) < norm_tol and pval > p_min
    return TestReport(
        name=config.label or f"corank2-n{n}", passed=passed,
        statistics={"ks": ks, "chi2": chi2, "chi2_pvalue": pval,
                    "norm": norm, "norm_tol": norm_tol,
                    "pvalue_min": p_min},
        rows=rows, nsamples=config.nsamples, config=config.resolved(),
        wall_clock=time.perf_counter() - t0)


def _prop45_log_ratio(s, nu, mu, n, perturb=False):
    """log of the real-side over complex-side Mellin factor ratio.

    Real side: Gamma(2s + 2 nu) / Gamma(2s + 2 mu + 2 nu + 2 n + 1).
    Complex side: Gamma(s + nu) Gamma(s + nu + 1/2) /
                  [Gamma(s + mu + nu + n + 1/2) Gamma(s + mu + nu + n + 1)].
    By the Legendre duplication formula the ratio is independent of s.
    """
    top = 2 * s + 2 * mu + 2 * nu + 2 * n + (0 if perturb else 1)
    real = special.loggamma(2 * s + 2 * nu) - special.loggamma(top)
    cplx = (special.loggamma(s + nu) + special.loggamma(s + nu + 0.5)
            - special.loggamma(s + mu + nu + n + 0.5)
            - special.loggamma(s + mu + nu + n + 1.0))
    return real - cplx


def run_prop45_check(nu: float, mu: float, nparam: int, sgrid=None,
                     perturb: bool = False,
                     tolerance: float = 1e-10) -> TestReport:
    """s-independence of the real-versus-complex Mellin factor ratio."""
    t0 = time.perf_counter()
    if sgrid is None:
        sgrid = np.linspace(1.0, 5.0, 20)
    sgrid = np.asarray(sgrid, dtype=float)
    if np.any(sgrid + nu <= 0):
        raise DomainError("Gamma pole on the s grid")
    vals = _prop45_log_ratio(sgrid, nu, mu, nparam, perturb=perturb)
    dev = float(np.max(np.abs(vals - np.mean(vals))))
    passed = (dev > 1e-2) if perturb else (dev < tolerance)
    return TestReport(
        name=f"prop45-nu{nu:g}-mu{mu:g}-n{nparam}"
             + ("-perturbed" if perturb else ""),
        passed=passed,
        statistics={"max_deviation": dev, "tolerance": tolerance,
                    "perturbed": float(perturb)},
        config={"nu": nu, "mu": mu, "n": nparam, "schema": SCHEMA_VERSION},
        wall_clock=time.perf_counter() - t0)


def prop45_distribution_check(nsamples: int = 100_000,
                              seed: int = 0) -> TestReport:
    """Distributional face of the identity at n = 1, nu = mu = 0.

    The squared singular value of the real Jacobi product (N=1, K1=5) must
    match the product of independent Beta(1/2, 3/2) and Beta(1, 3/2)
    variables; the comparator density is a quadrature Mellin convolution of
    the two Beta densities.  The comparison runs on the singular-value
    scale, where the convolved density stays bounded at the origin.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    prod = ProductSpec(factors=(JacobiSpec(1, 1, 5),),
                       base=SingularSpectrum.from_values([1.0]))
    a = product_spectra_batch(prod, nsamples, rng).ravel()
    b1 = WeightFunction(
        density=lambda t: np.where(
            (t > 0) & (t < 1),
            np.sqrt(np.maximum(1.0 - t, 0.0) / np.maximum(t, 1e-300))
            / special.beta(0.5, 1.5), 0.0),
        mellin=lambda s: special.beta(s - 0.5, 1.5) / special.beta(0.5, 1.5),
        support=(0.0, 1.0), label="beta(1/2,3/2)")
    b2 = WeightFunction(
        density=lambda t: np.where(
            (t > 0) & (t < 1),
            1.5 * np.sqrt(np.maximum(1.0 - t, 0.0)), 0.0),
        mellin=lambda s: special.beta(s, 1.5) / special.beta(1.0, 1.5),
        support=(0.0, 1.0), label="beta(1,3/2)")
    conv = convolved_weight(b1, b2, y_lo=1e-10)
    rows, ks, chi2, pval, norm = _binned_comparison(
        a, lambda y: 2.0 * y * conv(y * y), (0.0, 1.0), 50)
    passed = ks < 0.01 and abs(norm - 1.0) < 1e-6
    return TestReport(
        name="prop45-distribution-n1", passed=passed,
        statistics={"ks": ks, "ks_tol": 0.01, "norm": norm,
                    "chi2_pvalue": pval},
        rows=rows, nsamples=nsamples,
        config={"seed": seed, "nsamples": nsamples,
                "schema": SCHEMA_VERSION},
        wall_clock=time.perf_counter() - t0)


def _short(x: float) -> str:
    """x in %g form without a padded exponent: 1e-8, not 1e-08."""
    return f"{x:g}".replace("e-0", "e-")


def run_spherical_suite(config: ExperimentConfig) -> TestReport:
    """Closed-form spherical function versus Monte Carlo, factorization
    identities, the 2n-dimensional group integral and the recursion."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    N = config.nsamples
    stats_d = {"z_max": SPHERICAL_Z_MAX, "phi_limit_tol": PHI_LIMIT_TOL,
               "hc_n1_tol": HC_N1_TOL, "fn_rtol": FN_RTOL}
    notes = []
    ok = True

    # closed form vs MC on the convergence-domain grid
    points = config.params.get("phi_points", [
        ((2.0, 0.0), (1.0, 2.0)),
        ((3.0, 1.0), (1.0, 2.0)),
        ((2.5, 0.5), (0.5, 1.5)),
        ((4.0, 0.0), (1.0, 1.5)),
        ((2.0, 0.0), (2.0, 3.0)),
    ])
    for i, (s, a) in enumerate(points):
        closed = sph.phi_closed(s, a)
        mc, se = sph.phi_montecarlo(s, a, N, rng)
        z = sph.zscore(mc, closed, se)
        stats_d[f"phi_z_{i}"] = z
        ok &= z < SPHERICAL_Z_MAX

    # a -> 1 normalization, exact limit plus MC confirmation at n=2
    for n in (1, 2, 3, 4):
        s = tuple(2.0 * (n - j) for j in range(1, n + 1))
        lim = sph.phi_closed(s, tuple([1.0] * n))
        stats_d[f"phi_limit_n{n}"] = abs(lim - 1.0)
        ok &= abs(lim - 1.0) < PHI_LIMIT_TOL
    mc, se = sph.phi_montecarlo((2.0, 0.0), (1.0, 1.0), N, rng)
    z = sph.zscore(mc, 1.0, se)
    stats_d["phi_limit_mc_z"] = z
    ok &= z < SPHERICAL_Z_MAX

    # factorization identities with induced Ginibre factors
    from .samplers import sample_induced_ginibre_batch
    g = sample_induced_ginibre_batch(GinibreSpec(2, 0), 2, rng)
    # at s = (2, 0) both sides are constants; s = (4, 0) lets them vary
    _, _, z1 = sph.factorization_check_phi((4.0, 0.0), g[0], (1.0, 2.0),
                                           N, rng)
    _, _, z2 = sph.factorization_check_psi((4.0, 0.0), g[0], g[1], N, rng)
    stats_d["factorization_phi_z"] = z1
    stats_d["factorization_psi_z"] = z2
    ok &= z1 < SPHERICAL_Z_MAX and z2 < SPHERICAL_Z_MAX

    # group integral: n=1 is the two-component O(2) average (cosh), n=2 MC
    x1, y1 = (0.7,), (1.3,)
    exact = float(np.cosh(x1[0] * y1[0]))
    stats_d["hc_n1_err"] = abs(sph.harish_chandra_o2n(x1, y1) - exact)
    ok &= stats_d["hc_n1_err"] < HC_N1_TOL
    closed = sph.harish_chandra_o2n((0.5, 1.0), (0.8, 1.6))
    mc, se = sph.harish_chandra_o2n_mc((0.5, 1.0), (0.8, 1.6), N, rng)
    z = sph.zscore(mc, closed, se)
    stats_d["hc_n2_z"] = z
    ok &= z < SPHERICAL_Z_MAX

    # recursion versus closed form
    rec_pts = config.params.get("fn_points", [
        ((2.0, 0.0), (1.0, 2.0)),
        ((3.0, 1.0), (1.0, 2.0)),
    ])
    for i, (s, a) in enumerate(rec_pts):
        rec = sph.fn_recurrence(s, a)
        clo = sph.fn_closed(s, a)
        rel = abs(rec - clo) / max(abs(clo), 1e-300)
        stats_d[f"fn_rel_{i}"] = rel
        ok &= rel < FN_RTOL

    notes.append(f"z thresholds {SPHERICAL_Z_MAX}; limits "
                 f"{_short(PHI_LIMIT_TOL)}; recursion {_short(FN_RTOL)} "
                 "relative")
    return TestReport(
        name=config.label or "spherical-suite", passed=bool(ok),
        statistics=stats_d, nsamples=N, config=config.resolved(),
        notes=notes, wall_clock=time.perf_counter() - t0)


def run_kernel_suite(config: ExperimentConfig) -> TestReport:
    """Gram, trace, series-versus-contour and correlation consistency."""
    t0 = time.perf_counter()
    stats_d = {}
    ok = True
    gw = ginibre_weight(0.0)
    jw = jacobi_weight(0.0, 0.0, 2)
    # pts stay inside the double-contour holomorphy domain (y < a_min for
    # Jacobi); trace and marginals integrate over the full support
    cases = [("ginibre", gw, [1.0, 2.0], 40.0, [0.4, 0.9, 1.5, 2.4]),
             ("jacobi", jw, [0.5, 0.9], 0.9, [0.05, 0.15, 0.25, 0.4])]
    for label, fac, at, hi, pts in cases:
        pts = np.array(pts)
        sysf = biorth_fixed(at, fac)
        stats_d[f"{label}_gram"] = sysf.gram_offdiag
        ok &= sysf.gram_offdiag < 1e-8
        ker = lambda yp, y: kernel_fixed(yp, y, at, fac, method="series",
                                         system=sysf)
        tr, _ = quad(sysf.diagonal, 1e-9, hi)
        stats_d[f"{label}_trace_err"] = abs(tr - 2.0)
        ok &= abs(tr - 2.0) < 1e-6
        series = ker(pts[:, None], pts)
        sc = float(np.max(np.abs(
            kernel_fixed(pts[:, None], pts, at, fac, system=sysf) - series)))
        dc = float(np.max(np.abs(
            kernel_fixed_contour(pts[:, None], pts, at, fac) - series)))
        stats_d[f"{label}_series_vs_contour"] = sc
        stats_d[f"{label}_double_contour"] = dc
        ok &= sc < 1e-7 and dc < 1e-7
        marg, _ = quad(lambda x, y0: jpdf_fixed(
            np.stack(np.broadcast_arrays(y0, x), axis=-1), at, fac),
            1e-9, hi, pts)
        r1_sup = float(np.max(np.abs(sysf.diagonal(pts) - 2.0 * marg)))
        stats_d[f"{label}_r1_sup"] = r1_sup
        ok &= r1_sup < 1e-5
        r2d = max(abs(correlation_Rk([y0, y0], ker)) for y0 in pts)
        stats_d[f"{label}_r2_diag"] = r2d
        ok &= r2d < 1e-10
    # the polynomial-base Gram construction of the criterion examples
    mb = PolynomialEnsembleSpec(2, muttalib_borodin_weights(0.0, 0.0, 2))
    g = gram_biorth(mb)
    stats_d["mb_gram_triangular"] = g.gram_offdiag
    ok &= g.gram_offdiag < 1e-8
    return TestReport(
        name=config.label or "kernel-suite", passed=bool(ok),
        statistics=stats_d, config=config.resolved(),
        wall_clock=time.perf_counter() - t0)


def run_mellin_suite(config: ExperimentConfig) -> TestReport:
    """Closed-form Mellin transforms versus quadrature, plus the transform
    factorization under Mellin convolution."""
    t0 = time.perf_counter()
    stats_d = {}
    ok = True
    worst = 0.0
    for nu in (0.0, 0.5, 1.0):
        for mu in (0.0, 0.5, 1.0):
            for s, w in product((1, 3, 5, 7), (ginibre_weight(nu),
                                               jacobi_weight(nu, mu, 2))):
                worst = max(worst, abs(mellin_numeric(w, s) - w.mellin(s))
                            / abs(w.mellin(s)))
    stats_d["closed_form_rel"] = worst
    ok &= worst < 1e-8
    # M[f (*) h](s) = M f(s) M h(s) by quadrature on the convolved density
    f = ginibre_weight(0.5)
    h = jacobi_weight(0.0, 0.0, 1)
    worst = 0.0
    for s in (1.0, 2.0, 3.0):
        lhs = mellin_numeric(lambda y: mellin_convolve(f, h, y), s,
                             support=(0.0, f.tail))
        rhs = f.mellin(s) * h.mellin(s)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    stats_d["factorization_rel"] = worst
    ok &= worst < 1e-8
    return TestReport(
        name=config.label or "mellin-suite", passed=bool(ok),
        statistics=stats_d, config=config.resolved(),
        wall_clock=time.perf_counter() - t0)


def run_suite(name: str, seed: int = 0, nsamples: int = 100_000):
    """Named verification suite -> list of TestReports."""
    reports = []
    if name in ("spectrum", "all", "quick"):
        for params, label in [
            ({"factor": "ginibre", "n": 1, "nu": 0.0, "base": [1.0]},
             "spectrum-ginibre-n1"),
            ({"factor": "jacobi", "n": 1, "N": 1, "K1": 5, "base": [1.0]},
             "spectrum-jacobi-n1"),
            ({"factor": "ginibre", "n": 2, "nu": 0.0, "base": [1.0, 2.0]},
             "spectrum-ginibre-n2"),
        ]:
            cfg = ExperimentConfig(kind="spectrum-vs-jpdf", params=params,
                                   nsamples=nsamples, seed=seed, label=label)
            reports.append(run_spectrum_experiment(cfg))
    if name in ("corank2", "all", "quick"):
        cfg = ExperimentConfig(kind="corank2", params={"a": [1.0, 2.0]},
                               nsamples=nsamples, seed=seed)
        reports.append(run_corank2_experiment(cfg))
    if name in ("prop45", "all", "quick"):
        reports.append(run_prop45_check(0.0, 0.0, 1))
        reports.append(run_prop45_check(1.0, 0.5, 2))
        reports.append(run_prop45_check(0.0, 0.0, 1, perturb=True))
        if name != "quick":
            reports.append(prop45_distribution_check(nsamples, seed))
    if name in ("mellin", "all", "quick"):
        reports.append(run_mellin_suite(
            ExperimentConfig(kind="mellin-closed-forms", seed=seed)))
    if name in ("kernels", "all"):
        reports.append(run_kernel_suite(
            ExperimentConfig(kind="kernel-consistency", seed=seed)))
    if name in ("spherical", "all"):
        cfg = ExperimentConfig(kind="spherical-identity",
                               nsamples=nsamples, seed=seed)
        reports.append(run_spherical_suite(cfg))
    if not reports:
        raise DomainError(f"unknown suite {name!r}")
    return reports


def _write_rows(out_dir, name: str, header: list, rows, fmt: str) -> Path:
    """Write rows as name.csv (%.17g values) or name.jsonl (one sorted-key
    object per row); refuses a table with a NaN or inf value unwritten.

    Each format has one line template applied to the whole table at once.
    The jsonlines template spells each value with %r, which is the
    float.__repr__ spelling of json, so the bytes are those of
    json.dumps(row, sort_keys=True).
    """
    if fmt not in ("csv", "jsonlines"):
        raise DomainError(f"unknown output format {fmt!r}")
    values = np.asarray(rows, dtype=float)
    # an empty table arrives with shape (0,)
    values = values.reshape(len(values), len(header))
    if not np.all(np.isfinite(values)):
        raise DomainError(f"non-finite values in the {name} table")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = out / f"{name}.csv"
        head = ",".join(header) + "\n"
        line = ",".join(["%.17g"] * len(header)) + "\n"
    else:
        path = out / f"{name}.jsonl"
        order = sorted(range(len(header)), key=header.__getitem__)
        values = values[:, order]
        head = ""
        line = "{" + ", ".join(f"{json.dumps(header[j])}: %r"
                               for j in order) + "}\n"
    path.write_text(head + (line * len(values)) % tuple(values.ravel().tolist()))
    return path


def emit_results(reports, out_dir, fmt: str = "csv"):
    """Write per-report tables and summaries; returns the written paths.

    CSV tables carry the header bin_lo,bin_hi,empirical,analytic,zscore;
    JSON-lines tables one object per bin.  A table with a non-finite value
    raises DomainError.  Summaries embed the schema identifier, package
    version, resolved config and statistics.  Output bytes depend only on
    the report contents, never on wall-clock.
    """
    out = Path(out_dir)
    paths = []
    for rep in reports:
        paths.append(_write_rows(
            out, rep.name,
            ["bin_lo", "bin_hi", "empirical", "analytic", "zscore"],
            rep.rows, fmt))
        summary = out / f"{rep.name}.summary.txt"
        slines = [f"schema: {SCHEMA_VERSION}",
                  f"version: {__version__}",
                  f"name: {rep.name}",
                  f"passed: {rep.passed}",
                  f"nsamples: {rep.nsamples}",
                  "config: " + json.dumps(rep.config, sort_keys=True,
                                          default=str)]
        for key in sorted(rep.statistics):
            slines.append(f"stat {key}: {float(rep.statistics[key]):.17g}")
        for note in rep.notes:
            slines.append(f"note: {note}")
        summary.write_text("\n".join(slines) + "\n")
        paths.append(summary)
    return paths
