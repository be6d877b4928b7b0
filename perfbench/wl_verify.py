"""Workload ``verify``: ``antiprod verify --suite quick`` through
``cli.main``, at the CLI's default sample count.

The check reads the emitted summaries and bin tables back from disk and
compares the catalogued Mellin handles, which the suite's Mellin report
uses as its reference, with 50-digit mpmath values.
"""

from __future__ import annotations

from pathlib import Path

import mpmath as mp
import numpy as np

from common import (CheckError, OpFailed, Op, check_close, cli_seed,
                    read_table, require_finite, run_cli)
from refs import DPS, weight_mp

#: Reports of the quick suite: three spectrum experiments, the corank-2
#: projection, three Prop. 4.5 checks and the Mellin suite.
QUICK_REPORTS = 8

#: The (nu, mu) grid and Mellin arguments of the suite's Mellin report.
MELLIN_GRID = [(nu, mu) for nu in (0.0, 0.5, 1.0) for mu in (0.0, 0.5, 1.0)]
MELLIN_S = (1, 3, 5, 7)


class VerifyWorkload:
    def __init__(self, seed: int, out: Path):
        argv = ["verify", "--suite", "quick", "--seed", cli_seed(seed, 2),
                "--out", out / "quick", "--format", "csv"]
        self.ops = [Op("verify-quick",
                       lambda: run_cli(argv, out / "quick"), check_verify)]
        self._warm = (["verify", "--suite", "prop45", "--out", out / "warm"],
                      out / "warm")

    def warm_up(self):
        import antiprod.mellin as mel
        run_cli(*self._warm)
        mel.mellin_numeric(mel.ginibre_weight(0.0), 1.0)

    def check_round(self, stats_by_op: dict):
        pass


def check_verify(res):
    if res.rc != 0:
        raise OpFailed(f"exit code {res.rc}: {res.stdout.strip()}")
    lines = res.stdout.split()
    summaries = sorted(res.out.glob("*.summary.txt"))
    if len(summaries) != QUICK_REPORTS or lines.count("PASS") != QUICK_REPORTS:
        raise CheckError(f"{len(summaries)} summaries and "
                         f"{lines.count('PASS')} PASS lines, expected "
                         f"{QUICK_REPORTS}")
    for path in summaries:
        check_summary(path.read_text(), path.name)
        table = path.with_name(path.name.replace(".summary.txt", ".csv"))
        header, rows = read_table(table)
        check_bins(rows, header, table.name)
    check_mellin_handles()


def check_summary(text: str, what: str):
    if "passed: True" not in text.splitlines():
        raise CheckError(f"{what} does not say passed: True")


def check_bins(rows, header, what: str):
    """A bin table's empirical and analytic fractions each sum to 1."""
    if len(rows) == 0:
        return
    # the last bin of a density on the half line ends at bin_hi = inf
    require_finite(rows[:, [header.index(c) for c in
                            ("bin_lo", "empirical", "analytic", "zscore")]], what)
    for col in ("empirical", "analytic"):
        total = float(np.sum(rows[:, header.index(col)]))
        if not abs(total - 1.0) < 1e-9:
            raise CheckError(f"{what}: {col} column sums to {total!r}")


def check_mellin_handles():
    import antiprod.mellin as mel
    for nu, mu in MELLIN_GRID:
        for kind, weight in (("ginibre", mel.ginibre_weight(nu)),
                             ("jacobi", mel.jacobi_weight(nu, mu, 2))):
            _, mellin = weight_mp(kind, nu, mu, 2)
            with mp.workdps(DPS):
                want = [complex(mellin(s)) for s in MELLIN_S]
            got = [weight.mellin(s) for s in MELLIN_S]
            check_close(got, want, 1e-12, 0.0,
                        f"{kind}(nu={nu}, mu={mu}) Mellin handle")
