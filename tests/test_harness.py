import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import stats

from antiprod import harness
from antiprod.harness import (SCHEMA_VERSION, Check, ExperimentConfig,
                              TestReport, _binned_comparison,
                              _pooled_marginal, emit_results,
                              prop45_distribution_check, product_from_params,
                              run_corank2_experiment, run_prop45_check,
                              run_spectrum_experiment, run_suite)
from antiprod.linalg import DomainError
from antiprod.samplers import GinibreSpec, ProductSpec, product_spectra_batch

import antiprod

#: The child interpreters of the CLI tests import the package under test.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(antiprod.__file__).parents[1])]
    + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


@pytest.fixture(autouse=True)
def loaders_agree(monkeypatch):
    """Every config a test here hands the CLI reads the same under the
    loader the CLI picks (libyaml's CSafeLoader, where PyYAML has it) as
    under PyYAML's SafeLoader."""
    load = yaml.load

    def checked(stream, Loader):
        cfg = load(stream, Loader=Loader)
        assert cfg == load(stream, Loader=yaml.SafeLoader)
        return cfg

    monkeypatch.setattr(yaml, "load", checked)


def test_import_loads_only_scipy_special():
    # a fresh interpreter: the CLI's cold start pays for no scipy subpackage
    # beyond special, and neither does a fold, unbounded (Ginibre^2, by FFT)
    # or bounded (the prop45 pair, by quadrature)
    heavy = ["scipy.stats", "scipy.integrate", "scipy.interpolate",
             "scipy.optimize"]
    code = ("import sys, json, antiprod, antiprod.cli; "
            "from antiprod.mellin import (convolved_weight as c, "
            "ginibre_weight as g, jacobi_weight as j); "
            "c(g(0.0), g(0.0))(0.5); "
            "c(j(-0.25, -0.75, 1), j(0.0, -0.75, 1))(0.5); "
            f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV,
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == []


def test_prop45_identity_and_negative_control():
    rep = run_prop45_check(0.5, 1.0, 2)
    assert rep.passed
    assert rep.statistics["max_deviation"] < 1e-10
    neg = run_prop45_check(0.5, 1.0, 2, perturb=True)
    # a perturbed run passes exactly when the deviation is visibly large
    assert neg.passed
    assert neg.statistics["max_deviation"] > 1e-2


def test_prop45_distribution():
    rep = prop45_distribution_check(nsamples=20_000, seed=0)
    assert rep.passed


def test_binned_comparison_on_exact_samples():
    rng = np.random.default_rng(0)
    samples = rng.exponential(size=50_000)
    rows, ks, chi2, pval, norm = _binned_comparison(
        samples, lambda y: np.exp(-y), (0.0, np.inf))
    assert len(rows) == harness.BINS == 50
    assert ks < 0.01
    assert pval > 1e-3
    # norm comes from the truncated comparison grid, so only 1e-5 here
    assert norm == pytest.approx(1.0, abs=1e-5)


def test_binned_comparison_last_bin_is_finite_with_same_counts():
    rng = np.random.default_rng(0)
    samples = rng.exponential(size=50_000)
    rows, *_ = _binned_comparison(samples, lambda y: np.exp(-y),
                                  (0.0, np.inf))
    rows = np.array(rows)
    assert np.all(np.isfinite(rows))
    # the counts are those of the same bins with an inf last edge
    edges = np.append(rows[:, 0], np.inf)
    counts, _ = np.histogram(samples, bins=edges)
    assert np.array_equal(counts / samples.size, rows[:, 2])


def test_binned_comparison_detects_mismatch():
    rng = np.random.default_rng(1)
    samples = rng.exponential(size=50_000) * 1.3
    rows, ks, chi2, pval, norm = _binned_comparison(
        samples, lambda y: np.exp(-y), (0.0, np.inf))
    assert ks > 0.05 or pval < 1e-6


def test_spectrum_experiment_quick():
    cfg = ExperimentConfig(params={"factor": "ginibre", "n": 1, "nu": 0.0,
                                   "base": [1.0]},
                           nsamples=20_000, seed=3)
    rep = run_spectrum_experiment(cfg)
    assert rep.passed, rep.statistics


def test_spectrum_experiment_n3(tmp_path):
    cfg = ExperimentConfig(params={"factor": "ginibre", "n": 3, "nu": 0.0,
                                   "base": [1.0, 2.0, 3.0]},
                           nsamples=20_000, seed=5)
    rep = run_spectrum_experiment(cfg)
    assert rep.passed, rep.statistics
    assert rep.checks[0] == Check("ks", rep.statistics["ks"], harness.KS_TOL)
    # every table value is finite, so the report can be written
    emit_results([rep], tmp_path, fmt="jsonlines")
    table = tmp_path / "spectrum-ginibre-n3.jsonl"
    rows = [list(json.loads(line).values())
            for line in table.read_text().splitlines()]
    assert len(rows) == len(rep.rows) and np.all(np.isfinite(rows))


@pytest.mark.parametrize("inner, base", [
    ({"factor": "ginibre", "nu": 0.0}, [1.0]),
    ({"factor": "ginibre", "nu": 0.0}, [1.0, 2.0]),
    ({"factor": "jacobi", "N": 2, "K1": 9}, [0.5, 0.9])],
    ids=["ginibre-n1", "ginibre-n2", "jacobi-n2"])
def test_two_factor_spectra_match_the_convolved_weight(inner, base):
    # X_2 X_1 A X_1^T X_2^T with an outer Ginibre X_2 against the product's
    # one weight A_2 (*) A_1 at the spectrum experiments' ks_tol; the twin
    # moves the outer factor to nu = 1/4 and must fail
    n = len(base)
    s1 = product_from_params(dict(inner, base=base)).factors[0]
    s2 = GinibreSpec(n, 0.0)
    samples = product_spectra_batch(ProductSpec((s1, s2), base), 40_000,
                                    np.random.default_rng(3)).ravel()
    ks_tol = harness.KS_N1_TOL if n == 1 else harness.KS_TOL

    def ks(outer):
        density, support = _pooled_marginal(ProductSpec((s1, outer), base))
        return _binned_comparison(samples, density, support)[1]

    assert ks(s2) < ks_tol
    assert ks(GinibreSpec(n, 0.25)) > ks_tol


def test_corank2_experiment_quick():
    cfg = ExperimentConfig(params={"a": [1.0, 2.0]}, nsamples=20_000,
                           seed=4)
    rep = run_corank2_experiment(cfg)
    assert rep.passed, rep.statistics
    # the p-value, bit for bit, from scipy.stats as an independent reference
    chi2, df = rep.statistics["chi2"], len(rep.rows) - 1
    assert df == harness.BINS - 1
    assert rep.statistics["chi2_pvalue"] == stats.chi2.sf(chi2, df)


def test_binned_comparison_merges_an_underpopulated_last_bin():
    # 120 samples in 50 bins expect 2.4 each: the forward merge leaves 16
    # triples (7.2) and a pair (4.8), which merges into its left neighbor
    samples = np.random.default_rng(2).exponential(size=120)
    rows, ks, chi2, pval, norm = _binned_comparison(
        samples, lambda y: np.exp(-y), (0.0, np.inf))
    rows = np.array(rows)
    assert rows[:, 3] * 120 == pytest.approx([7.2] * 15 + [12.0])
    assert rows[0, 0] == 0.0 and rows[0, 1] == rows[1, 0]
    assert rows[:, 2].sum() == pytest.approx(1.0)
    assert pval == stats.chi2.sf(chi2, 15)


def test_corank2_with_too_few_samples_for_two_bins_raises(tmp_path, capsys):
    # N = 4 merges all 50 bins into one; chi-square has no degrees of freedom
    cfg = ExperimentConfig(params={"a": [1.0, 2.0]}, nsamples=4, seed=0)
    with pytest.raises(DomainError, match=r"N = 4 .* bins = 50"):
        run_corank2_experiment(cfg)
    from antiprod.cli import main
    assert main(["verify", "--suite", "corank2", "--samples", "4",
                 "--out", str(tmp_path)]) == 2
    assert "error: chi-square needs two bins" in capsys.readouterr().err


def test_emit_results_formats(tmp_path):
    rep = run_prop45_check(0.0, 0.0, 1)
    for fmt in ("csv", "jsonlines"):
        out = tmp_path / fmt
        paths = emit_results([rep], out, fmt=fmt)
        assert all(Path(p).exists() for p in paths)
    summary = next(tmp_path.joinpath("csv").glob("*.summary.txt")).read_text()
    assert SCHEMA_VERSION in summary


def test_emit_results_deterministic(tmp_path):
    reports = run_suite("prop45", seed=0)
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        paths = emit_results(reports, out, fmt="csv")
        blobs.append(b"".join(Path(p).read_bytes() for p in sorted(paths)))
    assert blobs[0] == blobs[1]


def test_emit_results_rejects_non_finite_rows(tmp_path):
    from antiprod.linalg import DomainError
    rep = TestReport(name="bad", statistics={},
                     rows=[(0.0, 1.0, 0.5, 0.5, 0.0),
                           (1.0, np.inf, 0.5, 0.5, 0.0)])
    for fmt in ("csv", "jsonlines"):
        with pytest.raises(DomainError):
            emit_results([rep], tmp_path, fmt=fmt)
    assert not list(tmp_path.glob("bad.*"))


def test_empty_rows_csv_is_header_only(tmp_path):
    rep = TestReport(name="empty", statistics={"x": 1.0},
                     rows=[], nsamples=0,
                     config=ExperimentConfig())
    paths = emit_results([rep], tmp_path, fmt="csv")
    table = [p for p in paths if str(p).endswith(".csv")][0]
    lines = Path(table).read_text().strip().splitlines()
    assert lines == ["bin_lo,bin_hi,empirical,analytic,zscore"]


def _spectrum(n):
    base = [1.0, 2.0][:n]
    return run_spectrum_experiment(ExperimentConfig(
        params={"factor": "ginibre", "n": n, "base": base},
        nsamples=2000, seed=0))


def _small(run):
    return run(ExperimentConfig(params={"a": [1.0, 2.0]},
                                nsamples=2000, seed=0))


#: Each gate constant of the harness, its comparison, and a report it gates.
GATE_REPORTS = {
    "KS_N1_TOL": ("<", lambda: _spectrum(1)),
    "KS_TOL": ("<", lambda: _spectrum(2)),
    "NORM_TOL": ("<", lambda: _spectrum(2)),
    "CORANK2_NORM_TOL": ("<", lambda: _small(run_corank2_experiment)),
    "CORANK2_PVALUE_MIN": (">", lambda: _small(run_corank2_experiment)),
    "PROP45_TOL": ("<", lambda: run_prop45_check(0.0, 0.0, 1)),
    "PROP45_PERTURBED_MIN": (
        ">", lambda: run_prop45_check(0.0, 0.0, 1, perturb=True)),
    **{name: ("<", lambda: _small(harness.run_spherical_suite)) for name in
       ("SPHERICAL_Z_MAX", "PHI_LIMIT_TOL", "HC_N1_TOL", "FN_RTOL")},
    **{name: ("<", lambda: _small(harness.run_kernel_suite)) for name in
       ("KERNEL_GRAM_TOL", "KERNEL_TRACE_TOL", "KERNEL_ROUTE_TOL",
        "KERNEL_R1_TOL")},
    "MELLIN_RTOL": ("<", lambda: _small(harness.run_mellin_suite)),
}


def test_every_gate_constant_is_exercised():
    gates = {k for k in vars(harness)
             if k.isupper() and k.endswith(("TOL", "_MIN", "_MAX"))}
    assert gates == set(GATE_REPORTS)


@pytest.mark.parametrize("name", sorted(GATE_REPORTS))
def test_an_unmeetable_gate_fails_its_report(name, monkeypatch):
    # no value is below -inf or above +inf
    comparison, report = GATE_REPORTS[name]
    bound = -np.inf if comparison == "<" else np.inf
    monkeypatch.setattr(harness, name, bound)
    rep = report()
    gated = [c for c in rep.checks if c.bound == bound]
    assert not rep.passed
    assert gated and all(c.comparison == comparison and not c.passed
                         for c in gated)


def test_cli_fail_line_names_the_failing_checks(tmp_path, monkeypatch,
                                                capsys):
    from antiprod.cli import main
    argv = ["verify", "--suite", "corank2", "--samples", "20000",
            "--seed", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "PASS corank2-n2\n"
    monkeypatch.setattr(harness, "CORANK2_NORM_TOL", 0.0)
    assert main(argv) == 1
    summary = (tmp_path / "corank2-n2.summary.txt").read_text().splitlines()
    assert "passed: False" in summary
    norm = next(line for line in summary if line.startswith("stat norm:"))
    norm_err = abs(float(norm.split()[-1]) - 1.0)
    assert capsys.readouterr().out == (
        f"FAIL corank2-n2: norm_err = {norm_err:.4g} (gate < 0)\n")
    assert f"check norm_err: {norm_err:.17g} < 0.0" in summary


def test_cli_verify_prop45_exit_zero(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "antiprod.cli", "verify", "--suite", "prop45",
         "--out", str(tmp_path), "--seed", "1"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert out.returncode == 0, out.stderr
    assert "PASS" in out.stdout


def test_cli_sample_writes_table(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "antiprod.cli", "sample", "--samples", "200",
         "--seed", "2", "--out", str(tmp_path), "--format", "jsonlines"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert out.returncode == 0, out.stderr
    meta = json.loads((tmp_path / "spectra.meta.json").read_text())
    assert meta["schema"] == SCHEMA_VERSION


def test_cli_bad_args_exit_two(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "antiprod.cli", "verify", "--suite", "nope",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=CHILD_ENV)
    assert out.returncode == 2


#: Configs that are not YAML, or whose top level or params is not a mapping.
BAD_CONFIGS = {
    "tab-indented": "schema: antiprod/1\nparams:\n\tfactor: ginibre\n",
    "list": "- factor\n- ginibre\n",
    "scalar": "ginibre\n",
    "params-list": "schema: antiprod/1\nparams: [factor, ginibre]\n",
    "params-null": "schema: antiprod/1\nparams:\n",
}


@pytest.mark.parametrize("kind", ["tab-indented", "list", "params-list"])
def test_cli_bad_config_exits_two(tmp_path, kind):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(BAD_CONFIGS[kind])
    out = subprocess.run(
        [sys.executable, "-m", "antiprod.cli", "sample", "--config", str(cfg),
         "--samples", "10", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=CHILD_ENV)
    assert out.returncode == 2
    assert out.stderr.startswith(f"error: config {cfg}")
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "out").exists()


def test_cli_config_loader_falls_back_to_safe_loader(tmp_path, monkeypatch):
    # the README config, under libyaml's loader and, without libyaml,
    # under SafeLoader; bad configs raise DomainError under either
    from antiprod.cli import _load_config
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(readme.split("```yaml\n")[1].split("```")[0])
    want = {"schema": SCHEMA_VERSION,
            "params": {"factor": "ginibre", "n": 2, "nu": 0.0,
                       "base": [1.0, 2.0]}}
    seen = []
    load = yaml.load
    monkeypatch.setattr(yaml, "load", lambda stream, Loader: seen.append(
        Loader) or load(stream, Loader=Loader))

    def reads_with(loader):
        seen.clear()
        assert _load_config(cfg) == want
        for k, text in enumerate(BAD_CONFIGS.values()):
            bad = tmp_path / f"bad{k}.yaml"
            bad.write_text(text)
            with pytest.raises(DomainError, match=f"config {bad}"):
                _load_config(bad)
        assert seen == [loader] * (1 + len(BAD_CONFIGS))

    reads_with(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    reads_with(yaml.SafeLoader)


def test_cli_calls_in_one_process_match_fresh_runs(tmp_path):
    # main parses with one parser per process: each call writes the bytes
    # of a fresh interpreter and reads its own defaults
    from antiprod.cli import _parser, main
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schema: antiprod/1\nparams:\n  factor: ginibre\n"
                   "  n: 2\n  nu: 1.0\n  base: [1.0, 2.0]\n")
    sample = ["sample", "--config", str(cfg), "--samples", "300",
              "--seed", "3"]
    runs = [sample + ["--format", "jsonlines"],
            ["verify", "--suite", "prop45", "--seed", "1"],
            ["jpdf", "--config", str(cfg)], sample]
    tables = []
    for k, argv in enumerate(runs):
        here, fresh = tmp_path / f"here{k}", tmp_path / f"fresh{k}"
        assert main(argv + ["--out", str(here)]) == 0
        out = subprocess.run(
            [sys.executable, "-m", "antiprod.cli", *argv, "--out", str(fresh)],
            capture_output=True, text=True, env=CHILD_ENV)
        assert out.returncode == 0, out.stderr
        tables.append({p.name: p.read_bytes() for p in here.iterdir()})
        assert tables[-1] == {p.name: p.read_bytes()
                              for p in fresh.iterdir()}
    assert "spectra.jsonl" in tables[0] and "spectra.csv" in tables[3]
    assert "prop45-distribution-n1.csv" in tables[1]
    assert _parser().parse_args(["verify"]).suite == "quick"


def test_cli_kernel_readme_config_is_finite(tmp_path):
    from antiprod.cli import main
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schema: antiprod/1\nparams:\n  factor: ginibre\n  n: 2\n"
                   "  nu: 0.0\n  base: [1.0, 2.0]\n")
    assert main(["kernel", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "kernel.csv").read_text().splitlines()
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert rows.shape == (200, 2)
    assert np.all(np.isfinite(rows))


def test_cli_jpdf_and_kernel_on_the_default_base_of_ones(tmp_path):
    # {factor: ginibre, n: 2} takes the base of ones: the jpdf column is
    # the marginal of jpdf_degenerate, the kernel column n times it
    from scipy import integrate

    from antiprod.cli import main
    from antiprod.ensembles import jpdf_degenerate
    from antiprod.mellin import ginibre_weight
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schema: antiprod/1\nparams:\n  factor: ginibre\n  n: 2\n")
    rows = {}
    for command in ("jpdf", "kernel"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / f"{command}.csv").read_text().splitlines()
        rows[command] = np.array([[float(v) for v in ln.split(",")]
                                  for ln in lines[1:]])
    w = ginibre_weight(0.0)

    def marginal(y):
        return integrate.quad(lambda x: jpdf_degenerate([y, x], w), 0,
                              np.inf, epsabs=0, epsrel=1e-12)[0]

    # both grids start at y = 1e-4, then part
    assert rows["kernel"][0, 1] == 2.0 * rows["jpdf"][0, 1]
    for command, n in (("jpdf", 1), ("kernel", 2)):
        for y, val in rows[command][[0, 1, 2]]:
            assert val == pytest.approx(n * marginal(y), rel=1e-8)


def test_cli_jpdf_n3(tmp_path):
    from antiprod.cli import main
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schema: antiprod/1\nparams:\n  factor: ginibre\n  n: 3\n"
                   "  nu: 0.0\n  base: [1.0, 2.0, 3.0]\n")
    assert main(["jpdf", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "jpdf.csv").read_text().splitlines()
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert rows.shape == (200, 2)
    assert np.all(np.isfinite(rows))
    assert np.all(rows[:, 1] >= 0.0)


@pytest.mark.parametrize("command", ["jpdf", "kernel"])
@pytest.mark.parametrize("base", [[0.5, 0.9], [0.3, 0.6, 0.9]],
                         ids=["n2", "n3"])
def test_cli_n_defaults_to_the_base_length(tmp_path, command, base):
    # a Jacobi config without n writes the table of n = len(base)
    from antiprod.cli import main
    tables = []
    for k, n_line in enumerate(["", f"  n: {len(base)}\n"]):
        cfg = tmp_path / f"cfg{k}.yaml"
        cfg.write_text("schema: antiprod/1\nparams:\n  factor: jacobi\n"
                       f"{n_line}  base: {base}\n")
        out = tmp_path / f"out{k}"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        tables.append((out / f"{command}.csv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("command", ["sample", "jpdf", "kernel"])
def test_cli_n_disagreeing_with_the_base_exits_two(tmp_path, capsys,
                                                   command):
    from antiprod.cli import main
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schema: antiprod/1\nparams:\n  factor: jacobi\n  n: 1\n"
                   "  base: [0.5, 0.9]\n")
    assert main([command, "--config", str(cfg), "--samples", "10", "--out",
                 str(tmp_path / "out")]) == 2
    assert "inconsistent block counts [1, 2]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "jpdf", "kernel"])
@pytest.mark.parametrize("params, resolved", [
    (None, (1, [1.0])), ("  base: [1.0, 2.0]\n", (2, [1.0, 2.0]))],
    ids=["no-config", "base-only"])
def test_cli_meta_records_the_resolved_n_and_base(tmp_path, command, params,
                                                  resolved):
    # without a config every command reads n = 1 and the base (1,); kernel
    # keeps no defaults of its own
    from antiprod.cli import main
    argv = [command, "--samples", "10", "--out", str(tmp_path / "out")]
    if params is not None:
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("schema: antiprod/1\nparams:\n" + params)
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    name = "spectra" if command == "sample" else command
    meta = json.loads((tmp_path / "out" / f"{name}.meta.json").read_text())
    assert (meta["params"]["n"], meta["params"]["base"]) == resolved


def test_cli_table_rejects_non_finite_rows(tmp_path):
    from antiprod.cli import _write_table
    from antiprod.linalg import DomainError
    with pytest.raises(DomainError):
        _write_table(tmp_path, "t", ["y", "K"], [(1.0, 2.0), (np.inf, np.nan)],
                     "csv", {})
    assert not (tmp_path / "t.csv").exists()


def test_cli_table_bytes_match_per_value_spelling(tmp_path):
    from antiprod.cli import _write_table
    cases = [
        (["a", "b", "c"], [(0.1, 1 / 3, 5e-324), (1e-300, 2.5e17, 0.0),
                           (-0.0, 123456789.125, 7.0)]),
        # the bin header, whose sorted key order differs from its column order
        (["bin_lo", "bin_hi", "empirical", "analytic", "zscore"],
         [(0.0, 0.25, 0.02, 0.02, -1.5), (0.25, 3.0000000000000004, 0.98,
                                          0.98, 1e-17)]),
        (["a_1"], [(0.5,), (2.0 / 3.0,), (1e22,)]),
        (["a_1", "a_2"], []),
        (["a_1", "a_2"], [(0.04, -1.2345678901234567)]),
        # a report-like table: zeros of both signs, subnormals, +-1e+-300
        # and negative z-scores
        (["bin_lo", "bin_hi", "empirical", "analytic", "zscore"],
         [(0.0, 1e-300, 0.02, 0.019999999999999997, -1.2345678901234567),
          (1e-300, 5e-324, 0.0, 2.2250738585072014e-308, -3.0),
          (-0.0, 1e300, 0.98, 0.98, 2.5e-17),
          (-1e300, -1e-300, 1.0, 0.9999999999999999, -0.0)]),
    ]
    for k, (header, rows) in enumerate(cases):
        # the reference spelling: one value at a time
        csv = "\n".join([",".join(header)] + [
            ",".join(format(float(v), ".17g") for v in row)
            for row in rows]) + "\n"
        jsonl = "".join(json.dumps(dict(zip(header, [float(v) for v in row])),
                                   sort_keys=True) + "\n" for row in rows)
        _write_table(tmp_path, f"t{k}", header, rows, "csv", {})
        _write_table(tmp_path, f"t{k}", header, np.array(rows), "jsonlines", {})
        assert (tmp_path / f"t{k}.csv").read_text() == csv
        assert (tmp_path / f"t{k}.jsonl").read_text() == jsonl


@pytest.mark.parametrize("fmt", ["csv", "jsonlines"])
def test_write_rows_in_blocks_matches_one_template(tmp_path, fmt):
    # three full blocks of rows and a partial one, against the template
    # applied to the whole table at once
    from antiprod.linalg import MC_BLOCK
    header = ["b", "a", "c"]
    rows = np.random.default_rng(9).standard_normal((3 * MC_BLOCK + 5, 3))
    rows[::97] *= 1e-300
    path = harness._write_rows(tmp_path, "t", header, rows, fmt)
    if fmt == "csv":
        head, line, values = "b,a,c\n", "%.17g,%.17g,%.17g\n", rows
    else:
        head, line = "", '{"a": %r, "b": %r, "c": %r}\n'
        values = rows[:, [1, 0, 2]]
    want = head + (line * len(rows)) % tuple(values.ravel().tolist())
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("argv", [
    ["sample", "--samples", "0"],
    ["sample", "--samples", "-5"],
    ["verify", "--suite", "spectrum", "--samples", "0"],
], ids=["sample-0", "sample-negative", "verify-spectrum-0"])
def test_cli_sample_count_below_one_exits_two(tmp_path, capsys, argv):
    from antiprod.cli import main
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "error: sample count must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("suite", ["corank2", "spherical"])
def test_cli_haar_suites_reject_zero_samples(tmp_path, capsys, suite):
    # both suites draw through the shared Haar block loop
    from antiprod.cli import main
    assert main(["verify", "--suite", suite, "--samples", "0",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: nsamples must be >= 1" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("points", [
    "[[1.0, 2.0], [1.0, 2.0, 3.0]]",
    "[[1.0, 2.0, 3.0]]",
    "[[1.0, 2.0], [0.0, 2.0]]",
], ids=["ragged", "length-differs-from-s", "zero-entry"])
def test_cli_spherical_bad_points_exit_two(tmp_path, capsys, points):
    from antiprod.cli import main
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"params:\n  s: [4.0, 0.0]\n  a_points: {points}\n")
    assert main(["spherical", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_quadrature_error_exits_two(tmp_path, monkeypatch, capsys):
    from antiprod import cli
    from antiprod.mellin import QuadratureError

    def failing(*args, **kwargs):
        raise QuadratureError("gate missed", value=1.0, error=1.0)

    monkeypatch.setattr(cli, "run_suite", failing)
    assert cli.main(["verify", "--suite", "quick", "--out",
                     str(tmp_path)]) == 2
    assert "error: gate missed" in capsys.readouterr().err


def test_readme_library_sketch_runs():
    readme = Path(__file__).parents[1] / "README.md"
    block = readme.read_text().split("```python\n")[1].split("```")[0]
    scope = {}
    exec(compile(block, str(readme), "exec"), scope)
    assert scope["spectra"].shape == (100_000, 2)
    assert scope["density"].shape == (1000,)
    assert scope["phi"].shape == (1000,)
    assert np.all(scope["density"] > 0.0)
    assert scope["kernel"].shape == (50, 50)
    assert np.all(np.isfinite(scope["kernel"]))


def test_exact_spherical_gate_fails_on_a_wrong_closed_form(monkeypatch):
    # at s = (2, 0) the Monte Carlo estimate of Phi is exact (stderr 0), so
    # only an exact-match rule can catch a closed form that is 2 % off
    from antiprod import harness, spherical
    closed = spherical.phi_closed
    monkeypatch.setattr(spherical, "phi_closed",
                        lambda s, a: 1.02 * closed(s, a))
    rep = harness.run_spherical_suite(ExperimentConfig(nsamples=2000,
                                                       seed=0))
    assert not rep.passed
    assert rep.statistics["phi_z_0"] == np.inf
