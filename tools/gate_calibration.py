"""Pass rates and quartiles of the Monte Carlo gates over many seeds.

    PYTHONPATH=src python3 tools/gate_calibration.py --seeds 20

Runs ``run_suite("spherical")`` and ``run_suite("corank2")`` at seeds
0, ..., K - 1 with the CLI default of 100 000 samples, and prints one
markdown table: per report and statistic, the share of seeds at which the
statistic passes its gate, and its quartiles over the seeds.  The gates
are those of ``harness.run_spherical_suite`` and
``harness.run_corank2_experiment``; a statistic without a gate of its own
shows ``-``.  A report's ``passed`` row is the share of seeds at which the
whole report passes.  The package imported is the one on ``PYTHONPATH``,
so pointing it at another tree's ``src`` calibrates that tree.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from antiprod.harness import run_suite

SUITES = ("spherical", "corank2")

#: (statistic pattern, gate as text, test of a value v in a report's stats)
GATES = [
    (r".*_z(_\d+)?", "z < 3", lambda v, stats: v < 3.0),
    (r"phi_limit_n\d+", "< 1e-8", lambda v, stats: v < 1e-8),
    (r"hc_n1_err", "< 1e-12", lambda v, stats: v < 1e-12),
    (r"fn_rel_\d+", "< 1e-6", lambda v, stats: v < 1e-6),
    (r"chi2_pvalue", "> pvalue_min",
     lambda v, stats: v > stats["pvalue_min"]),
    (r"norm", "abs(v - 1) < 1e-10", lambda v, stats: abs(v - 1.0) < 1e-10),
]


def _gate(name: str):
    for pattern, text, test in GATES:
        if re.fullmatch(pattern, name):
            return text, test
    return "-", None


def calibrate(seeds, nsamples: int = 100_000) -> dict:
    """{report name: {"passed": [bool per seed],
    statistic: [value per seed], ...}} over the suites of SUITES."""
    out = {}
    for seed in seeds:
        for suite in SUITES:
            for rep in run_suite(suite, seed=seed, nsamples=nsamples):
                rows = out.setdefault(rep.name, {"passed": []})
                rows["passed"].append(rep.passed)
                for key, value in rep.statistics.items():
                    rows.setdefault(key, []).append(
                        (float(value), rep.statistics))
    return out


def table(results: dict) -> str:
    lines = ["| report | statistic | gate | pass rate | q1 | median | q3 |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for name, rows in results.items():
        passed = rows["passed"]
        lines.append(f"| {name} | passed | report | "
                     f"{sum(passed)}/{len(passed)} | | | |")
        for key, pairs in rows.items():
            if key == "passed":
                continue
            values = [v for v, _ in pairs]
            text, test = _gate(key)
            rate = ("-" if test is None else "{}/{}".format(
                sum(bool(test(v, st)) for v, st in pairs), len(pairs)))
            q1, med, q3 = np.percentile(values, [25, 50, 75])
            lines.append(f"| {name} | {key} | {text} | {rate} | "
                         f"{q1:.3g} | {med:.3g} | {q3:.3g} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=20,
                    help="K: run seeds 0, ..., K - 1")
    args = ap.parse_args(argv)
    print(table(calibrate(range(args.seeds))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
