"""Benchmark of antiprod, end to end and layer by layer.

    python3 perfbench/run.py --workload sample --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The workload repeats whole rounds of the same
operations until ``--seconds`` have passed, times each round, and checks
every round's outputs against references computed outside the package
after the round's timer stops.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from a
traced run with ``--trace 1``.  See README.md beside this file.
"""

from __future__ import annotations

import os

# One BLAS and OpenMP thread: the steadiest setting on a shared 2-core
# machine, and the package's batched small-matrix calls gain nothing from
# more.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import CheckError, OpFailed, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sample", "verify", "spherical", "analytic")

#: Fresh processes whose set-up is timed; setup_s is their median.
SETUP_PROBES = 3

#: Reported times are rescaled to the machine speed at which calibrate()
#: takes this long.  On the shared 2-core VM where the benchmark was
#: written, the speed of identical rounds drifts by up to a factor of two
#: over tens of seconds while CPU time tracks wall time, so raw times from
#: runs minutes apart spread by 7-27 % (IQR over median of ten runs).
CALIBRATION_REF_S = 0.1


@functools.cache
def _calibration_input():
    return np.random.default_rng(0).standard_normal((2000, 6, 6))


def calibrate() -> float:
    """Seconds for a fixed mix of interpreted arithmetic and batched
    small-matrix LAPACK calls that involves no antiprod code."""
    a = _calibration_input()
    t0 = time.perf_counter()
    x = 0.0
    for i in range(240_000):
        x += (i % 7) * 0.5
    for _ in range(4):
        np.linalg.qr(a)
        np.linalg.eigvalsh(a + a.transpose(0, 2, 1))
    return time.perf_counter() - t0


def rescaled(seconds: float, before: float, after: float) -> float:
    """A time measured between two calibrations, at the reference speed."""
    return seconds * CALIBRATION_REF_S / ((before + after) / 2.0)


def import_package():
    """Import antiprod from this checkout's source tree, and only from it."""
    if not (SRC / "antiprod" / "__init__.py").is_file():
        raise SystemExit(f"error: no antiprod source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import antiprod
    if Path(antiprod.__file__).resolve().parent != SRC / "antiprod":
        raise SystemExit(f"error: antiprod imported from {antiprod.__file__}, "
                         f"not from {SRC}")


def make_workload(name: str, seed: int):
    """Build the workload's inputs from the seed and warm it up."""
    if name == "sample":
        from wl_sample import SampleWorkload as cls
    elif name == "verify":
        from wl_verify import VerifyWorkload as cls
    elif name == "spherical":
        from wl_spherical import SphericalWorkload as cls
    else:
        from wl_analytic import AnalyticWorkload as cls
    work = cls(seed, OUT / name)
    work.warm_up()
    return work


def probe_setup(args) -> float:
    """Seconds from the start of a fresh interpreter until the workload is
    ready to run, at the reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", "0", "--setup-probe"]
    before = calibrate()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed ({line.strip()!r})")
    return rescaled(ready, before, calibrate())


class Rounds:
    """Runs whole rounds, times them, and judges every operation's result.

    The operations use fixed seeds, so every round must reproduce the first
    round's results exactly; a later round is judged by comparing digests,
    the first by the full checks.
    """

    def __init__(self, work):
        self.work = work
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def run(self, seconds: float, tracer=None) -> tuple[list, list]:
        """Timed rounds while another round of the mean length fits in
        ``seconds`` of timed work; at least one.  Returns the raw round
        times and each round's factor to the reference speed, from the
        calibrations just before and after it."""
        walls = []
        cal = [calibrate()]
        while not walls or sum(walls) + statistics.mean(walls) <= seconds:
            gc.collect()      # start every round with the same collector state
            if tracer is not None:
                tracer.start_round(len(walls))
            t0 = time.perf_counter()
            results = []
            for op in self.work.ops:
                try:
                    results.append(op.run())
                except Exception as exc:      # counted as a failed operation
                    results.append(exc)
            walls.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_round()
            cal.append(calibrate())
            self.judge(results)
        return walls, [rescaled(1.0, c0, c1) for c0, c1 in zip(cal, cal[1:])]

    def judge(self, results: list):
        stats = {}
        for op, res in zip(self.work.ops, results):
            self.attempted += 1
            if isinstance(res, Exception):
                verdict = f"failed: {type(res).__name__}: {res}"
                key = None
            else:
                key = digest(res)
                if op.name in self.first and self.first[op.name][0] == key:
                    verdict = self.first[op.name][1]
                elif op.name in self.first:
                    verdict = "error: result differs from the first round"
                else:
                    try:
                        stats[op.name] = op.check(res)
                        verdict = "ok"
                    except OpFailed as exc:
                        verdict = f"failed: {exc}"
                    except CheckError as exc:
                        verdict = f"error: {exc}"
            self.first.setdefault(op.name, (key, verdict))
            if verdict.startswith("failed"):
                self.failed += 1
            elif verdict.startswith("error"):
                self.errors.append(f"{op.name}: {verdict}")
        if stats:
            try:
                self.work.check_round(stats)
            except CheckError as exc:
                self.errors.append(f"round: {exc}")

    def report_failures(self):
        for name, (_, verdict) in self.first.items():
            if verdict != "ok":
                print(f"{name}: {verdict}")
        for err in dict.fromkeys(self.errors):
            print(err)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_package()
    if args.setup_probe:
        make_workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setups = [] if args.trace else [probe_setup(args)
                                     for _ in range(SETUP_PROBES)]
    work = make_workload(args.workload, args.seed)
    rounds = Rounds(work)

    if args.trace:
        from tracing import Tracer
        untraced = rounds.run(args.seconds / 2.0)
        tracer = Tracer(args.workload)
        tracer.install()
        try:
            walls, scales = rounds.run(args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json",
                     args.seed, walls, scales)
        metrics = tracer.report(walls, scales, *untraced)
        print(f"{args.workload}: {len(untraced[0])} untraced and {len(walls)} "
              f"traced rounds; spans in {OUT.name}/")
    else:
        walls, scales = rounds.run(args.seconds)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(
                w * f for w, f in zip(walls, scales)), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
        print(f"{args.workload}: {len(walls)} rounds of {len(work.ops)} "
              f"operations; raw round walls {[round(w, 3) for w in walls]}; "
              f"factors to the reference speed {[round(f, 3) for f in scales]}")
    rounds.report_failures()
    print(json.dumps({"correct": not rounds.errors,
                      "attempted": rounds.attempted, "failed": rounds.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
