"""Negative controls: each correctness check of the benchmark rejects a
perturbed copy of a real output and accepts the output itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import numpy as np
import pytest

import run
from common import CheckError, OpFailed, read_table, run_cli

SEED = 7


@pytest.fixture(scope="module", autouse=True)
def package():
    run.import_package()


def _outputs(workload, names):
    ops = {op.name: op for op in workload.ops}
    return {name: (ops[name], ops[name].run()) for name in names}


def test_spectra_scaled_by_1_01_are_rejected(tmp_path):
    from wl_sample import SampleWorkload, check_spectra, pooled_log_det_check
    work = SampleWorkload(SEED, tmp_path)
    tables = []
    for op in work.ops:
        res = op.run()
        tag, params, samples, suffix = work.tables[op.name]
        header, rows = read_table(res.out / f"spectra{suffix}")
        tables.append((rows, header, tag, params, samples))
    pooled_log_det_check([check_spectra(*t) for t in tables])
    with pytest.raises(CheckError):
        pooled_log_det_check([check_spectra(rows * 1.01, *rest)
                              for rows, *rest in tables])


def test_nan_row_in_a_table_fails_the_operation(tmp_path):
    from wl_sample import SampleWorkload
    work = SampleWorkload(SEED, tmp_path)
    op = work.ops[0]
    res = op.run()
    op.check(res)
    table = res.out / "spectra.csv"
    lines = table.read_text().splitlines()
    lines[5] = "nan"
    table.write_text("\n".join(lines) + "\n")
    with pytest.raises(OpFailed):
        op.check(res)


def test_density_scaled_by_1e_6_is_rejected(tmp_path):
    from wl_analytic import AnalyticWorkload
    work = AnalyticWorkload(SEED, tmp_path)
    outs = _outputs(work, ["jpdf-ginibre-n2-grid", "jpdf-jacobi-n2-grid",
                           "jpdf-degenerate-n2-grid", "corank2-n3-grid"])
    for op, grid in outs.values():
        op.check(grid)
        with pytest.raises(CheckError):
            op.check(grid * (1.0 + 1e-6))


def test_monte_carlo_mean_shifted_by_five_stderr_is_rejected(tmp_path):
    import antiprod.spherical as sph
    from wl_spherical import S2, SphericalWorkload
    work = SphericalWorkload(SEED, tmp_path)
    closed = {"phi-n2": sph.phi_closed(S2, work.a2),
              "hc-n2": sph.harish_chandra_o2n(*work.xy)}
    for name, (op, (mean, se)) in _outputs(work, list(closed)).items():
        op.check((mean, se))
        away = np.sign((mean - closed[name]).real) or 1.0
        with pytest.raises(CheckError):
            op.check((mean + away * 5.0 * se, se))


def test_summary_saying_passed_false_is_rejected(tmp_path):
    from wl_verify import check_summary
    res = run_cli(["verify", "--suite", "prop45", "--out", tmp_path], tmp_path)
    assert res.rc == 0
    for path in tmp_path.glob("*.summary.txt"):
        text = path.read_text()
        check_summary(text, path.name)
        with pytest.raises(CheckError):
            check_summary(text.replace("passed: True", "passed: False"), path.name)


def test_bin_table_with_a_nan_row_or_bad_sum_is_rejected(tmp_path):
    from wl_verify import check_bins
    run_cli(["verify", "--suite", "spectrum", "--samples", 20_000,
             "--out", tmp_path], tmp_path)
    header, rows = read_table(tmp_path / "spectrum-ginibre-n2.csv")
    check_bins(rows, header, "table")
    bad = rows.copy()
    bad[3] = np.nan
    with pytest.raises(OpFailed):
        check_bins(bad, header, "table")
    bad = rows.copy()
    bad[3, header.index("analytic")] *= 1.001
    with pytest.raises(CheckError):
        check_bins(bad, header, "table")


def test_cli_table_with_a_nan_row_fails_the_operation(tmp_path):
    from wl_analytic import AnalyticWorkload
    work = AnalyticWorkload(SEED, tmp_path)
    op, res = _outputs(work, ["cli-jpdf-ginibre"])["cli-jpdf-ginibre"]
    op.check(res)
    table = res.out / "jpdf.csv"
    lines = table.read_text().splitlines()
    lines[10] = "nan,nan"
    table.write_text("\n".join(lines) + "\n")
    with pytest.raises(OpFailed):
        op.check(res)
