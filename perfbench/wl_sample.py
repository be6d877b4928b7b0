"""Workload ``sample``: ``antiprod sample`` through ``cli.main``.

Six factor configurations, each sampled and written once as csv and once
as jsonlines with different CLI seeds.  The tables are read back from disk
and checked against the exact law of det(M^T M) (see refs.py) and, at
n = 1, against exact distribution functions.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import stats

from common import (CheckError, OpFailed, Op, Z_LIMIT, check_z, cli_seed,
                    draw_base, read_table, require_finite, rng_for, run_cli,
                    write_config)
from refs import det_law

#: (tag, factor parameters, samples per call).  The sample counts keep a
#: round near four seconds and the K1 = 41 Jacobi call near 200 MB.
CONFIGS = (
    ("ginibre-n1", {"factor": "ginibre", "n": 1, "nu": 0.0}, 10_000),
    ("ginibre-n2", {"factor": "ginibre", "n": 2, "nu": 1.0}, 20_000),
    ("ginibre-n4", {"factor": "ginibre", "n": 4, "nu": 1.0}, 8_000),
    ("jacobi-n1", {"factor": "jacobi", "n": 1, "N": 1, "K1": 5}, 10_000),
    ("jacobi-n2-K9", {"factor": "jacobi", "n": 2, "N": 2, "K1": 9}, 10_000),
    ("jacobi-n2-K41", {"factor": "jacobi", "n": 2, "N": 2, "K1": 41}, 4_000),
)
FORMATS = {"csv": ".csv", "jsonlines": ".jsonl"}

#: Exact distribution functions of a_1 / atilde_1 at n = 1: Exp(1) for the
#: Ginibre factor with nu = 0, density 3 (1 - t)^2 for Jacobi N = 1, K1 = 5.
EXACT_CDF = {
    "ginibre-n1": lambda t: -np.expm1(-t),
    "jacobi-n1": lambda t: 1.0 - np.clip(1.0 - t, 0.0, 1.0) ** 3,
}

#: Smallest KS p-value accepted at n = 1.
KS_PMIN = 1e-5


class SampleWorkload:
    def __init__(self, seed: int, out: Path):
        self.ops = []
        #: operation name -> (tag, params, samples, table suffix)
        self.tables = {}
        for k, (tag, params, samples) in enumerate(CONFIGS):
            params = dict(params, base=draw_base(rng_for(seed, 1, k),
                                                 params["n"], 0.5, 3.0))
            cfg = write_config(out / "inputs" / f"{tag}.yaml", params)
            for j, fmt in enumerate(FORMATS):
                name = f"{tag}-{fmt}"
                self.tables[name] = (tag, params, samples, FORMATS[fmt])
                argv = ["sample", "--config", cfg, "--samples", samples,
                        "--seed", cli_seed(seed, 1, k, j), "--out",
                        out / name, "--format", fmt]
                self.ops.append(Op(
                    name,
                    lambda argv=argv, o=out / name: run_cli(argv, o),
                    lambda res, t=self.tables[name]: check_table(res, *t)))
        self._warm = [(["sample", "--config", out / "inputs" / f"{tag}.yaml",
                        "--samples", 64, "--out", out / "warm", "--format", f],
                       out / "warm")
                      for tag, _, _ in CONFIGS for f in FORMATS]

    def warm_up(self):
        for argv, o in self._warm:
            run_cli(argv, o)

    def check_round(self, stats_by_op: dict):
        pooled_log_det_check(list(stats_by_op.values()))


def check_table(res, tag: str, params: dict, samples: int, suffix: str):
    """Checks one spectra table; returns its log-determinant statistics."""
    if res.rc != 0:
        raise OpFailed(f"exit code {res.rc}")
    header, rows = read_table(res.out / f"spectra{suffix}")
    return check_spectra(rows, header, tag, params, samples)


def check_spectra(rows, header, tag: str, params: dict, samples: int):
    n = int(params["n"])
    base = np.asarray(params["base"])
    require_finite(rows, tag)
    if header != [f"a_{j + 1}" for j in range(n)] or rows.shape != (samples, n):
        raise CheckError(f"{tag}: table {header} of shape {rows.shape}")
    if np.any(rows < 0) or np.any(np.diff(rows, axis=1) < 0):
        raise CheckError(f"{tag}: rows must be nonnegative and ascending")
    if params["factor"] == "jacobi" and np.any(rows > base.max() * (1 + 1e-12)):
        raise CheckError(f"{tag}: a singular value exceeds max(base)")
    law = det_law(params)
    with np.errstate(divide="ignore"):
        logx = 2.0 * (np.sum(np.log(rows), axis=1) - np.sum(np.log(base)))
    x = np.exp(logx)
    check_z(x.mean(), x.std(ddof=1) / np.sqrt(samples), law["mean"],
            f"{tag}: Bartlett mean of prod a^2 / prod atilde^2")
    check_z(logx.mean(), np.sqrt(law["log_var"] / samples), law["log_mean"],
            f"{tag}: mean log det")
    if tag in EXACT_CDF:
        p = stats.kstest(rows[:, 0] / base[0], EXACT_CDF[tag]).pvalue
        if not p > KS_PMIN:
            raise CheckError(f"{tag}: KS p-value {p:.2e} against the exact law")
    return {"n": n, "samples": samples, "dev": logx.mean() - law["log_mean"],
            "var": law["log_var"]}


def pooled_log_det_check(tables: list):
    """Inverse-variance pooled mean-log-det deviation over all tables.

    A common scale error c in the spectra moves each table's mean log det
    by 2 n log c; weighting table t by 2 n_t / var_t gives the most
    sensitive test of such a shift.  Scaling every table of one round by
    1.01 moves this z by about 8.
    """
    w = np.array([2.0 * t["n"] / t["var"] for t in tables])
    dev = np.array([t["dev"] for t in tables])
    var = np.array([t["var"] / t["samples"] for t in tables])
    z = float(np.sum(w * dev) / np.sqrt(np.sum(w * w * var)))
    if not abs(z) < Z_LIMIT:
        raise CheckError(f"pooled mean log det: |z| = {abs(z):.2f}")
