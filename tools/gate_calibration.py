"""Pass rates and quartiles of the Monte Carlo gates over many seeds.

    PYTHONPATH=src python3 tools/gate_calibration.py --seeds 20

Runs ``run_suite(suite)`` for each suite of ``SUITES`` (the spherical
suite, the corank-2 projection, the three spectrum reports and the prop45
reports with their sampled distribution) at seeds 0, ..., K - 1 with the
CLI default of 100 000 samples, and prints one markdown table: per report
and statistic, the share of seeds at which the statistic passes its gate,
and its quartiles over the seeds.  Each gate is the bound and comparison
of the report's own check of that statistic (a ``harness.Check``); a
statistic without a check of its own shows ``-``, and a check of a derived
value (such as ``norm_err``, |norm - 1|) has a row of its own.  A report's
``passed`` row is the share of seeds at which the whole report passes.
The package imported is the one on ``PYTHONPATH``, so pointing it at
another tree's ``src`` calibrates that tree.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from antiprod.harness import run_suite

SUITES = ("spherical", "corank2", "spectrum", "prop45")


def calibrate(seeds, nsamples: int = 100_000) -> dict:
    """{report name: {"passed": [bool per seed],
    statistic: [(value, its Check or None) per seed], ...}} over the
    suites of SUITES."""
    out = {}
    for seed in seeds:
        for suite in SUITES:
            for rep in run_suite(suite, seed=seed, nsamples=nsamples):
                rows = out.setdefault(rep.name, {"passed": []})
                rows["passed"].append(rep.passed)
                checks = {c.name: c for c in rep.checks}
                for key, value in rep.statistics.items():
                    rows.setdefault(key, []).append(
                        (float(value), checks.pop(key, None)))
                for c in checks.values():
                    rows.setdefault(c.name, []).append((float(c.value), c))
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
            check = pairs[0][1]
            if check is None:
                text = rate = "-"
            else:
                text = f"{check.comparison} {check.bound:g}"
                rate = "{}/{}".format(sum(c.passed for _, c in pairs),
                                      len(pairs))
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
