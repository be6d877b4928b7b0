"""Experiment orchestration: Monte Carlo versus analytic comparisons.

Every experiment is described by an ExperimentConfig and produces a
TestReport with the statistics, per-bin tables and a list of Checks, each
one statistic against one named gate constant; the report passes exactly
when all of its checks pass.
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
from pathlib import Path

import numpy as np
from scipy import special

from . import __version__
from .linalg import (MC_BLOCK, DomainError, SingularSpectrum, _mc_stack,
                     antisymmetrized, build_canonical, haar_orthogonal_batch,
                     sandwich, spectra_batch)
from .mellin import (TAIL_CUT, convolved_weight, ginibre_weight,
                     jacobi_weight, mellin_convolve, mellin_numeric, quad,
                     quad_cumulative)
from .ensembles import (PolynomialEnsembleSpec, corank2_jpdf, jpdf_fixed,
                        muttalib_borodin_weights)
from .kernels import (biorth_fixed, correlation_Rk, gram_biorth,
                      kernel_fixed, kernel_fixed_contour)
from .samplers import (GinibreSpec, JacobiSpec, ProductSpec,
                       product_spectra_batch)
from . import spherical as sph

__all__ = [
    "SCHEMA_VERSION", "ExperimentConfig", "Check", "TestReport",
    "product_from_params", "run_spectrum_experiment",
    "run_corank2_experiment", "run_prop45_check", "prop45_distribution_check",
    "run_spherical_suite", "run_kernel_suite", "run_mellin_suite",
    "run_suite", "emit_results",
]

#: Config/output schema identifier embedded in every artifact.
SCHEMA_VERSION = "antiprod/1"

#: Panels, uniform in log y, of the cdf table behind a binned comparison.
CDF_PANELS = 8192

#: Equal-probability bins of every binned comparison.
BINS = 50

#: Gates: the bound of each Check, one constant per gated quantity.
#: Binned spectrum comparisons (run_spectrum_experiment at n = 1 and above,
#: prop45_distribution_check): the KS distance and |norm - 1|.
KS_N1_TOL = 0.01
KS_TOL = 0.015
NORM_TOL = 1e-6
#: run_corank2_experiment: |norm - 1| of the projection density and the
#: least chi-square p-value.
CORANK2_NORM_TOL = 1e-10
CORANK2_PVALUE_MIN = 1e-3
#: run_prop45_check: the spread of the log ratio over PROP45_SGRID, and the
#: least spread of the perturbed negative control.
PROP45_TOL = 1e-10
PROP45_PERTURBED_MIN = 1e-2
PROP45_SGRID = np.linspace(1.0, 5.0, 20)
#: run_spherical_suite: every Monte Carlo z-score, |Phi - 1| at the a -> 1
#: limits, the n = 1 group integral against cosh, and the f_n recursion
#: relative to the closed form.
SPHERICAL_Z_MAX = 3.0
PHI_LIMIT_TOL = 1e-8
HC_N1_TOL = 1e-12
FN_RTOL = 1e-6
#: run_kernel_suite: off-diagonal Gram entries, |trace - n|, the kernel
#: routes against the series, the one-point function against the jPDF
#: marginal, and R_2 on the diagonal.
KERNEL_GRAM_TOL = 1e-8
KERNEL_TRACE_TOL = 1e-6
KERNEL_ROUTE_TOL = 1e-7
KERNEL_R1_TOL = 1e-5
KERNEL_R2_TOL = 1e-10
#: run_mellin_suite: relative error of the quadrature transforms.
MELLIN_RTOL = 1e-8


@dataclass
class ExperimentConfig:
    """Resolved description of one experiment run."""

    params: dict = field(default_factory=dict)
    nsamples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.seed is None:
            raise DomainError("seed is mandatory")

    def resolved(self) -> dict:
        d = asdict(self)
        d["schema"] = SCHEMA_VERSION
        d["version"] = __version__
        return d


@dataclass(frozen=True)
class Check:
    """One gate: the value of a statistic against its bound."""

    name: str
    value: float
    bound: float
    comparison: str = "<"

    def __post_init__(self):
        if self.comparison not in ("<", ">"):
            raise DomainError(f"unknown comparison {self.comparison!r}")

    @property
    def passed(self) -> bool:
        if self.comparison == "<":
            return bool(self.value < self.bound)
        return bool(self.value > self.bound)

    def __str__(self) -> str:
        return (f"{self.name} = {self.value:.4g} "
                f"(gate {self.comparison} {self.bound:g})")


@dataclass
class TestReport:
    """Statistics, per-bin table and checks of one experiment; it passes
    exactly when every check passes."""

    __test__ = False  # not a pytest collectible

    name: str
    statistics: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    nsamples: int = 0
    config: dict = field(default_factory=dict)
    wall_clock: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str, value: float, bound: float):
        """Record value as statistic name, gated by value < bound."""
        self.statistics[name] = value
        self.checks.append(Check(name, value, bound))


def product_from_params(params: dict) -> ProductSpec:
    """The product of a config params mapping: one `factor` (ginibre with
    `nu`, or jacobi with `N` and `K1`) around `base`.  n is `n`, else the
    length of `base`, else 1; base defaults to ones, N to n and K1 to
    2 (n + N) + 1.  ProductSpec rejects an n that disagrees with the base."""
    base = params.get("base")
    n = int(params.get("n", 1 if base is None else len(base)))
    kind = params.get("factor", "ginibre")
    if kind == "ginibre":
        factor = GinibreSpec(n, float(params.get("nu", 0.0)))
    elif kind == "jacobi":
        N = int(params.get("N", n))
        factor = JacobiSpec(n, N, int(params.get("K1", 2 * (n + N) + 1)))
    else:
        raise DomainError(f"unknown factor kind {kind!r}")
    return ProductSpec((factor,), [1.0] * n if base is None else base)


def _binned_comparison(samples: np.ndarray, density, support, kinks=()):
    """Equal-probability binning of samples into BINS bins under an
    analytic density.

    Returns (rows, ks, chi2_stat, chi2_pvalue, norm) where rows are
    (bin_lo, bin_hi, empirical fraction, analytic fraction, zscore) and
    norm is the quadrature mass of the density (should be 1).  The cdf
    table has a grid point on each of the kinks of the density.  Bins
    expecting fewer than 5 samples merge into their left neighbor (the
    last into the one before it); DomainError if fewer than two remain.
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
    levels = np.linspace(0.0, 1.0, BINS + 1)
    edges = np.interp(levels, cdf, x)
    edges[0] = lo
    edges[-1] = hi_eff
    ecdf_x = np.sort(samples)
    N = ecdf_x.size
    f_at = np.interp(ecdf_x, x, cdf, left=0.0, right=1.0)
    ks = float(np.max(np.maximum(np.arange(1, N + 1) / N - f_at,
                                 f_at - np.arange(N) / N)))
    counts, _ = np.histogram(samples, bins=edges)
    expected = np.full(BINS, N / BINS)
    # merge underpopulated bins into their left neighbor before chi-square
    cts, exps, spans = [], [], []
    for i in range(BINS):
        if exps and exps[-1] < 5.0:
            cts[-1] += counts[i]
            exps[-1] += expected[i]
            spans[-1] = (spans[-1][0], edges[i + 1])
        else:
            cts.append(int(counts[i]))
            exps.append(float(expected[i]))
            spans.append((edges[i], edges[i + 1]))
    if len(exps) > 1 and exps[-1] < 5.0:
        ct, ex, (_, span_hi) = cts.pop(), exps.pop(), spans.pop()
        cts[-1] += ct
        exps[-1] += ex
        spans[-1] = (spans[-1][0], span_hi)
    if len(exps) < 2:
        raise DomainError(
            f"chi-square needs two bins that expect 5 samples each; N = {N} "
            f"samples in bins = {BINS} leave {len(exps)}")
    cts, exps = np.asarray(cts, dtype=float), np.asarray(exps)
    z = (cts - exps) / np.sqrt(exps)
    chi2 = float(np.sum(z * z))
    pval = float(special.chdtrc(len(cts) - 1, chi2))
    rows = [(s[0], s[1], ct / N, ex / N, zz)
            for s, ct, ex, zz in zip(spans, cts, exps, z)]
    return rows, ks, chi2, pval, norm


def _pooled_marginal(prod: ProductSpec):
    """Density of one pooled spectrum entry of the product, the kernel
    diagonal K_n(y, y) / n of its base and weight, and its support."""
    system = biorth_fixed(prod.base_values, prod.weight)

    def density(y):
        return system.diagonal(y) / system.n

    return density, (0.0, prod.weight.support[1] * prod.base_values[-1])


def run_spectrum_experiment(config: ExperimentConfig) -> TestReport:
    """Sample product spectra and compare the pooled marginal with the
    kernel diagonal K_n(y, y) / n of the fixed-base product ensemble."""
    t0 = time.perf_counter()
    p = config.params
    prod = product_from_params(p)
    density, support = _pooled_marginal(prod)
    rng = np.random.default_rng(config.seed)
    samples = product_spectra_batch(prod, config.nsamples, rng).ravel()
    rows, ks, chi2, pval, _ = _binned_comparison(samples, density, support)
    lo, hi = support
    norm = float(quad(density, max(lo, 1e-12),
                      hi if np.isfinite(hi) else TAIL_CUT)[0])
    return TestReport(
        name=f"spectrum-{p.get('factor', 'ginibre')}-n{prod.n}",
        statistics={"ks": ks, "chi2": chi2, "chi2_pvalue": pval,
                    "norm": norm},
        checks=[Check("ks", ks, KS_N1_TOL if prod.n == 1 else KS_TOL),
                Check("norm_err", abs(norm - 1.0), NORM_TOL)],
        rows=rows,
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

    def projected(block, rng):
        k = haar_orthogonal_batch(2 * n, block, rng)
        return spectra_batch(antisymmetrized(sandwich(k, x))[:, :-2, :-2])

    samples = _mc_stack(projected, config.nsamples, (n - 1,), rng).ravel()

    def density(v):
        return corank2_jpdf(np.asarray(v)[..., None], a)

    rows, ks, chi2, pval, _ = _binned_comparison(
        samples, density, (0.0, float(a.values[-1])), a.values)
    # the projection density is piecewise polynomial; integrate each cell
    cells = np.concatenate([[1e-12], a.values])
    norm = float(np.sum(quad(density, cells[:-1], cells[1:])[0]))
    return TestReport(
        name=f"corank2-n{n}",
        statistics={"ks": ks, "chi2": chi2, "chi2_pvalue": pval,
                    "norm": norm},
        checks=[Check("norm_err", abs(norm - 1.0), CORANK2_NORM_TOL),
                Check("chi2_pvalue", pval, CORANK2_PVALUE_MIN, ">")],
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


def run_prop45_check(nu: float, mu: float, nparam: int,
                     perturb: bool = False) -> TestReport:
    """s-independence of the real-versus-complex Mellin factor ratio; the
    perturbed negative control passes when the ratio visibly varies."""
    t0 = time.perf_counter()
    if np.any(PROP45_SGRID + nu <= 0):
        raise DomainError("Gamma pole on the s grid")
    vals = _prop45_log_ratio(PROP45_SGRID, nu, mu, nparam, perturb=perturb)
    dev = float(np.max(np.abs(vals - np.mean(vals))))
    return TestReport(
        name=f"prop45-nu{nu:g}-mu{mu:g}-n{nparam}"
             + ("-perturbed" if perturb else ""),
        statistics={"max_deviation": dev},
        checks=[Check("max_deviation", dev, PROP45_PERTURBED_MIN, ">")
                if perturb else Check("max_deviation", dev, PROP45_TOL)],
        config={"nu": nu, "mu": mu, "n": nparam, "schema": SCHEMA_VERSION},
        wall_clock=time.perf_counter() - t0)


def prop45_distribution_check(nsamples: int = 100_000,
                              seed: int = 0) -> TestReport:
    """Distributional face of the identity at n = 1, nu = mu = 0.

    The squared singular value of the real Jacobi product (N=1, K1=5) must
    match the product of independent Beta(1/2, 3/2) and Beta(1, 3/2)
    variables, the n = 1 Jacobi weights of (nu, mu) = (-1/4, -3/4) and
    (0, -3/4); the comparator density is a quadrature Mellin convolution of
    the two.  The comparison runs on the singular-value scale, where the
    convolved density stays bounded at the origin.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    prod = product_from_params({"factor": "jacobi", "n": 1, "N": 1, "K1": 5,
                                "base": [1.0]})
    a = product_spectra_batch(prod, nsamples, rng).ravel()
    conv = convolved_weight(jacobi_weight(-0.25, -0.75, 1),
                            jacobi_weight(0.0, -0.75, 1))
    rows, ks, chi2, pval, norm = _binned_comparison(
        a, lambda y: 2.0 * y * conv(y * y), (0.0, 1.0))
    return TestReport(
        name="prop45-distribution-n1",
        statistics={"ks": ks, "norm": norm, "chi2_pvalue": pval},
        checks=[Check("ks", ks, KS_N1_TOL),
                Check("norm_err", abs(norm - 1.0), NORM_TOL)],
        rows=rows, nsamples=nsamples,
        config={"seed": seed, "nsamples": nsamples,
                "schema": SCHEMA_VERSION},
        wall_clock=time.perf_counter() - t0)


def run_spherical_suite(config: ExperimentConfig) -> TestReport:
    """Closed-form spherical function versus Monte Carlo, factorization
    identities, the 2n-dimensional group integral and the recursion."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    N = config.nsamples
    rep = TestReport(name="spherical-suite", nsamples=N,
                     config=config.resolved())

    # closed form vs MC on the convergence-domain grid
    points = [((2.0, 0.0), (1.0, 2.0)),
              ((3.0, 1.0), (1.0, 2.0)),
              ((2.5, 0.5), (0.5, 1.5)),
              ((4.0, 0.0), (1.0, 1.5)),
              ((2.0, 0.0), (2.0, 3.0))]
    for i, (s, a) in enumerate(points):
        closed = sph.phi_closed(s, a)
        mc, se = sph.phi_montecarlo(s, a, N, rng)
        rep.check(f"phi_z_{i}", sph.zscore(mc, closed, se), SPHERICAL_Z_MAX)

    # a -> 1 normalization, exact limit plus MC confirmation at n=2
    for n in (1, 2, 3, 4):
        s = tuple(2.0 * (n - j) for j in range(1, n + 1))
        lim = sph.phi_closed(s, tuple([1.0] * n))
        rep.check(f"phi_limit_n{n}", abs(lim - 1.0), PHI_LIMIT_TOL)
    mc, se = sph.phi_montecarlo((2.0, 0.0), (1.0, 1.0), N, rng)
    rep.check("phi_limit_mc_z", sph.zscore(mc, 1.0, se), SPHERICAL_Z_MAX)

    # factorization identities with induced Ginibre factors
    from .samplers import sample_induced_ginibre_batch
    g = sample_induced_ginibre_batch(GinibreSpec(2, 0), 2, rng)
    # at s = (2, 0) both sides are constants; s = (4, 0) lets them vary
    _, _, z1 = sph.factorization_check_phi((4.0, 0.0), g[0], (1.0, 2.0),
                                           N, rng)
    _, _, z2 = sph.factorization_check_psi((4.0, 0.0), g[0], g[1], N, rng)
    rep.check("factorization_phi_z", z1, SPHERICAL_Z_MAX)
    rep.check("factorization_psi_z", z2, SPHERICAL_Z_MAX)

    # group integral: n=1 is the two-component O(2) average (cosh), n=2 MC
    x1, y1 = (0.7,), (1.3,)
    exact = float(np.cosh(x1[0] * y1[0]))
    rep.check("hc_n1_err", abs(sph.harish_chandra_o2n(x1, y1) - exact),
              HC_N1_TOL)
    closed = sph.harish_chandra_o2n((0.5, 1.0), (0.8, 1.6))
    mc, se = sph.harish_chandra_o2n_mc((0.5, 1.0), (0.8, 1.6), N, rng)
    rep.check("hc_n2_z", sph.zscore(mc, closed, se), SPHERICAL_Z_MAX)

    # recursion versus closed form
    for i, (s, a) in enumerate([((2.0, 0.0), (1.0, 2.0)),
                                ((3.0, 1.0), (1.0, 2.0))]):
        rec = sph.fn_recurrence(s, a)
        clo = sph.fn_closed(s, a)
        rep.check(f"fn_rel_{i}", abs(rec - clo) / max(abs(clo), 1e-300),
                  FN_RTOL)
    rep.wall_clock = time.perf_counter() - t0
    return rep


def run_kernel_suite(config: ExperimentConfig) -> TestReport:
    """Gram, trace, series-versus-contour and correlation consistency."""
    t0 = time.perf_counter()
    rep = TestReport(name="kernel-suite", config=config.resolved())
    gw = ginibre_weight(0.0)
    jw = jacobi_weight(0.0, 0.0, 2)
    # pts stay inside the double-contour holomorphy domain (y < a_min for
    # Jacobi); trace and marginals integrate over the full support
    cases = [("ginibre", gw, [1.0, 2.0], 40.0, [0.4, 0.9, 1.5, 2.4]),
             ("jacobi", jw, [0.5, 0.9], 0.9, [0.05, 0.15, 0.25, 0.4])]
    for label, fac, at, hi, pts in cases:
        pts = np.array(pts)
        sysf = biorth_fixed(at, fac)
        rep.check(f"{label}_gram", sysf.gram_offdiag, KERNEL_GRAM_TOL)
        ker = lambda yp, y: kernel_fixed(yp, y, at, fac, method="series",
                                         system=sysf)
        tr, _ = quad(sysf.diagonal, 1e-9, hi)
        rep.check(f"{label}_trace_err", abs(tr - 2.0), KERNEL_TRACE_TOL)
        series = ker(pts[:, None], pts)
        sc = float(np.max(np.abs(
            kernel_fixed(pts[:, None], pts, at, fac, system=sysf) - series)))
        dc = float(np.max(np.abs(
            kernel_fixed_contour(pts[:, None], pts, at, fac) - series)))
        rep.check(f"{label}_series_vs_contour", sc, KERNEL_ROUTE_TOL)
        rep.check(f"{label}_double_contour", dc, KERNEL_ROUTE_TOL)
        marg, _ = quad(lambda x, y0: jpdf_fixed(
            np.stack(np.broadcast_arrays(y0, x), axis=-1), at, fac),
            1e-9, hi, pts)
        r1_sup = float(np.max(np.abs(sysf.diagonal(pts) - 2.0 * marg)))
        rep.check(f"{label}_r1_sup", r1_sup, KERNEL_R1_TOL)
        r2d = max(abs(correlation_Rk([y0, y0], ker)) for y0 in pts)
        rep.check(f"{label}_r2_diag", r2d, KERNEL_R2_TOL)
    # the polynomial-base Gram construction of the criterion examples
    mb = PolynomialEnsembleSpec(2, muttalib_borodin_weights(0.0, 0.0, 2))
    rep.check("mb_gram", gram_biorth(mb).gram_offdiag, KERNEL_GRAM_TOL)
    rep.wall_clock = time.perf_counter() - t0
    return rep


def run_mellin_suite(config: ExperimentConfig) -> TestReport:
    """Closed-form Mellin transforms versus quadrature, plus the transform
    factorization under Mellin convolution."""
    t0 = time.perf_counter()
    rep = TestReport(name="mellin-suite", config=config.resolved())
    worst = 0.0
    for nu in (0.0, 0.5, 1.0):
        for mu in (0.0, 0.5, 1.0):
            for s, w in product((1, 3, 5, 7), (ginibre_weight(nu),
                                               jacobi_weight(nu, mu, 2))):
                worst = max(worst, abs(mellin_numeric(w, s) - w.mellin(s))
                            / abs(w.mellin(s)))
    rep.check("closed_form_rel", worst, MELLIN_RTOL)
    # M[f (*) h](s) = M f(s) M h(s) by quadrature on the convolved density
    f = ginibre_weight(0.5)
    h = jacobi_weight(0.0, 0.0, 1)
    worst = 0.0
    for s in (1.0, 2.0, 3.0):
        lhs = mellin_numeric(lambda y: mellin_convolve(f, h, y), s,
                             support=(0.0, f.tail))
        rhs = f.mellin(s) * h.mellin(s)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    rep.check("factorization_rel", worst, MELLIN_RTOL)
    rep.wall_clock = time.perf_counter() - t0
    return rep


def run_suite(name: str, seed: int = 0, nsamples: int = 100_000):
    """Named verification suite -> list of TestReports."""
    reports = []
    if name in ("spectrum", "all", "quick"):
        for params in [
            {"factor": "ginibre", "n": 1, "nu": 0.0, "base": [1.0]},
            {"factor": "jacobi", "n": 1, "N": 1, "K1": 5, "base": [1.0]},
            {"factor": "ginibre", "n": 2, "nu": 0.0, "base": [1.0, 2.0]},
        ]:
            cfg = ExperimentConfig(params=params, nsamples=nsamples,
                                   seed=seed)
            reports.append(run_spectrum_experiment(cfg))
    if name in ("corank2", "all", "quick"):
        cfg = ExperimentConfig(params={"a": [1.0, 2.0]}, nsamples=nsamples,
                               seed=seed)
        reports.append(run_corank2_experiment(cfg))
    if name in ("prop45", "all", "quick"):
        reports.append(run_prop45_check(0.0, 0.0, 1))
        reports.append(run_prop45_check(1.0, 0.5, 2))
        reports.append(run_prop45_check(0.0, 0.0, 1, perturb=True))
        if name != "quick":
            reports.append(prop45_distribution_check(nsamples, seed))
    if name in ("mellin", "all", "quick"):
        reports.append(run_mellin_suite(ExperimentConfig(seed=seed)))
    if name in ("kernels", "all"):
        reports.append(run_kernel_suite(ExperimentConfig(seed=seed)))
    if name in ("spherical", "all"):
        reports.append(run_spherical_suite(
            ExperimentConfig(nsamples=nsamples, seed=seed)))
    if not reports:
        raise DomainError(f"unknown suite {name!r}")
    return reports


def _write_rows(out_dir, name: str, header: list, rows, fmt: str) -> Path:
    """Write rows as name.csv (%.17g values) or name.jsonl (one sorted-key
    object per row); refuses a table with a NaN or inf value unwritten.

    Each format has one line template, applied to MC_BLOCK rows at a time
    and written into one open file, so the text in memory stays bounded
    and the bytes are those of the template applied to the whole table.
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
    order = list(range(len(header)))
    if fmt == "csv":
        path = out / f"{name}.csv"
        head = ",".join(header) + "\n"
        line = ",".join(["%.17g"] * len(header)) + "\n"
    else:
        path = out / f"{name}.jsonl"
        order.sort(key=header.__getitem__)
        head = ""
        line = "{" + ", ".join(f"{json.dumps(header[j])}: %r"
                               for j in order) + "}\n"
    with path.open("w") as f:
        f.write(head)
        for lo in range(0, len(values), MC_BLOCK):
            block = values[lo:lo + MC_BLOCK, order]
            f.write((line * len(block)) % tuple(block.ravel().tolist()))
    return path


def emit_results(reports, out_dir, fmt: str = "csv"):
    """Write per-report tables and summaries; returns the written paths.

    CSV tables carry the header bin_lo,bin_hi,empirical,analytic,zscore;
    JSON-lines tables one object per bin.  A table with a non-finite value
    raises DomainError.  Summaries embed the schema identifier, package
    version, verdict, resolved config, statistics (%.17g) and one line per
    check: value (%.17g), comparison and bound (shortest round-trip form).
    Output bytes depend only on the report contents, never on wall-clock.
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
        for c in rep.checks:
            slines.append(f"check {c.name}: {float(c.value):.17g} "
                          f"{c.comparison} {float(c.bound)!r}")
        summary.write_text("\n".join(slines) + "\n")
        paths.append(summary)
    return paths
