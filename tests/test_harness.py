import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from antiprod.harness import (SCHEMA_VERSION, ExperimentConfig, TestReport,
                              _binned_comparison, emit_results,
                              prop45_distribution_check, run_corank2_experiment,
                              run_prop45_check, run_spectrum_experiment,
                              run_suite)

import antiprod

#: The child interpreters of the CLI tests import the package under test.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(antiprod.__file__).parents[1])]
    + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

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
        samples, lambda y: np.exp(-y), (0.0, np.inf), 50)
    assert len(rows) == 50
    assert ks < 0.01
    assert pval > 1e-3
    # norm comes from the truncated comparison grid, so only 1e-5 here
    assert norm == pytest.approx(1.0, abs=1e-5)


def test_binned_comparison_last_bin_is_finite_with_same_counts():
    rng = np.random.default_rng(0)
    samples = rng.exponential(size=50_000)
    rows, *_ = _binned_comparison(samples, lambda y: np.exp(-y),
                                  (0.0, np.inf), 50)
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
        samples, lambda y: np.exp(-y), (0.0, np.inf), 50)
    assert ks > 0.05 or pval < 1e-6


def test_spectrum_experiment_quick():
    cfg = ExperimentConfig(kind="spectrum",
                           params={"factor": "ginibre", "n": 1, "nu": 0.0,
                                   "base": [1.0]},
                           nsamples=20_000, seed=3, label="quick-n1")
    rep = run_spectrum_experiment(cfg)
    assert rep.passed, rep.statistics


def test_spectrum_experiment_n3(tmp_path):
    cfg = ExperimentConfig(kind="spectrum",
                           params={"factor": "ginibre", "n": 3, "nu": 0.0,
                                   "base": [1.0, 2.0, 3.0]},
                           nsamples=20_000, seed=5, label="quick-n3")
    rep = run_spectrum_experiment(cfg)
    assert rep.passed, rep.statistics
    assert rep.statistics["ks_tol"] == 0.015
    # every table value is finite, so the report can be written
    emit_results([rep], tmp_path, fmt="jsonlines")
    rows = [list(json.loads(line).values()) for line in
            (tmp_path / "quick-n3.jsonl").read_text().splitlines()]
    assert len(rows) == len(rep.rows) and np.all(np.isfinite(rows))


def test_corank2_experiment_quick():
    cfg = ExperimentConfig(kind="corank2", params={"a": [1.0, 2.0]},
                           nsamples=20_000, seed=4, label="quick-corank2")
    rep = run_corank2_experiment(cfg)
    assert rep.passed, rep.statistics


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
    rep = TestReport(name="bad", passed=True, statistics={},
                     rows=[(0.0, 1.0, 0.5, 0.5, 0.0),
                           (1.0, np.inf, 0.5, 0.5, 0.0)])
    for fmt in ("csv", "jsonlines"):
        with pytest.raises(DomainError):
            emit_results([rep], tmp_path, fmt=fmt)
    assert not list(tmp_path.glob("bad.*"))


def test_empty_rows_csv_is_header_only(tmp_path):
    rep = TestReport(name="empty", passed=True, statistics={"x": 1.0},
                     rows=[], nsamples=0,
                     config=ExperimentConfig(kind="none"), notes="")
    paths = emit_results([rep], tmp_path, fmt="csv")
    table = [p for p in paths if str(p).endswith(".csv")][0]
    lines = Path(table).read_text().strip().splitlines()
    assert lines == ["bin_lo,bin_hi,empirical,analytic,zscore"]


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


def test_cli_table_rejects_non_finite_rows(tmp_path):
    from antiprod.cli import _write_table
    from antiprod.linalg import DomainError
    with pytest.raises(DomainError):
        _write_table(tmp_path, "t", ["y", "K"], [(1.0, 2.0), (np.inf, np.nan)],
                     "csv", {})
    assert not (tmp_path / "t.csv").exists()


def test_cli_table_bytes_match_per_value_spelling(tmp_path):
    from antiprod.cli import _write_table
    header = ["a", "b", "c"]
    rows = [(0.1, 1 / 3, 5e-324), (1e-300, 2.5e17, 0.0),
            (-0.0, 123456789.125, 7.0)]
    # the reference spelling: one value at a time
    csv = "\n".join([",".join(header)] + [
        ",".join(format(float(v), ".17g") for v in row) for row in rows]) + "\n"
    jsonl = "\n".join(json.dumps(dict(zip(header, [float(v) for v in row])),
                                 sort_keys=True) for row in rows) + "\n"
    _write_table(tmp_path, "t", header, rows, "csv", {})
    _write_table(tmp_path, "t", header, np.array(rows), "jsonlines", {})
    assert (tmp_path / "t.csv").read_text() == csv
    assert (tmp_path / "t.jsonl").read_text() == jsonl
