"""Pass rates and quartiles of the Monte Carlo gates over many seeds.

    PYTHONPATH=src python3 tools/gate_calibration.py --seeds 20

Runs ``run_suite("spherical")`` and ``run_suite("corank2")`` at seeds
0, ..., K - 1 with the CLI default of 100 000 samples, and prints one
markdown table: per report and statistic, the share of seeds at which the
statistic passes its gate, and its quartiles over the seeds.  Each gate is
read from the report itself, where ``harness.run_spherical_suite`` and
``harness.run_corank2_experiment`` record it beside the statistics it
judges; a statistic without a gate of its own shows ``-``.  A report's
``passed`` row is the share of seeds at which the whole report passes.
The package imported is the one on ``PYTHONPATH``,
so pointing it at another tree's ``src`` calibrates that tree.
"""

from __future__ import annotations

import argparse
import re
import sys
from operator import gt, lt

import numpy as np

from antiprod.harness import run_suite

SUITES = ("spherical", "corank2")

#: (statistic pattern, key of its gate in the report's statistics, gate as
#: a format of the gate value, test of a value v against the gate value g)
GATES = [
    (r".*_z(_\d+)?", "z_max", "z < {:g}", lt),
    (r"phi_limit_n\d+", "phi_limit_tol", "< {:g}", lt),
    (r"hc_n1_err", "hc_n1_tol", "< {:g}", lt),
    (r"fn_rel_\d+", "fn_rtol", "< {:g}", lt),
    (r"chi2_pvalue", "pvalue_min", "> {:g}", gt),
    (r"norm", "norm_tol", "abs(v - 1) < {:g}", lambda v, g: abs(v - 1.0) < g),
]


def _gate(name: str):
    """(key, text, test) of the gate of statistic name, or None."""
    for pattern, key, text, test in GATES:
        if re.fullmatch(pattern, name):
            return key, text, test
    return None


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
            gate = _gate(key)
            if gate is None:
                text = rate = "-"
            else:
                gkey, fmt, test = gate
                text = fmt.format(pairs[0][1][gkey])
                rate = "{}/{}".format(
                    sum(bool(test(v, st[gkey])) for v, st in pairs),
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
