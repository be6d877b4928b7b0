"""Paired benchmark runs of two trees of this repository.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \
        --workload sample --seeds 1601-1610 --out BENCH_x.json

For each seed, ``perfbench/run.py`` runs once on each side for the
``run_seconds`` of ``BENCHMARK.json``, the side that runs first alternating
by pair, each run in a fresh ``git archive`` copy of its side's tree made in
a temporary directory and removed afterwards.  The
runs are appended to ``--out`` (created if missing) and its ``summary`` is
recomputed from all the runs it holds: per workload and end-to-end metric
of ``BENCHMARK.json``, each side's median and quartiles and the number of
pairs the change wins, ties counting for neither, and per side the
failed over attempted operations and the number of runs that printed
``correct: false``; traced runs (``--trace 1``) give per-side medians of
the per-layer metrics.  After ``--out`` is written, the exit status is 1
if any run it holds is incorrect.  Keys of
``--out`` other than ``command``, ``sides``, ``runs`` and ``summary`` are
kept as they are, so notes written there survive later invocations.

Uncommitted work is benchmarked as the revision ``git stash create``
prints after ``git add -A``; that leaves the working tree, the index and
the stash list unchanged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _seeds(text: str) -> list[int]:
    """'5', '1-4' or '1,3,8-9' as a list of ints."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(rev: str, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in a fresh copy of the tree at rev; its JSON line."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--trace", str(trace),
             "--seconds", str(BENCHMARK["run_seconds"])],
            cwd=tmp, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {rev} {workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(values: list) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values)}


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload: quartiles and change wins of each end-to-end metric
    over the untraced runs, and per-side medians of the traced runs."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        plain = [r for r in runs if r["workload"] == workload
                 and r["trace"] == 0]
        traced = [r for r in runs if r["workload"] == workload
                  and r["trace"] == 1]
        summary[workload] = out = {}
        if plain:
            by_pair = {}
            for r in plain:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r
            pairs = [p for p in by_pair.values() if len(p) == 2]
            for metric in end_to_end:
                name, sign = metric["name"], (1 if metric["better"] == "lower"
                                              else -1)
                out[name] = {side: _quartiles([r[name] for r in plain
                                               if r["side"] == side])
                             for side in SIDES}
                out[name]["change_wins"] = sum(
                    sign * (p["change"][name] - p["parent"][name]) < 0
                    for p in pairs)
                out[name]["pairs"] = len(pairs)
            out["failed_over_attempted"] = {
                side: "{}/{}".format(
                    sum(r["failed"] for r in plain if r["side"] == side),
                    sum(r["attempted"] for r in plain if r["side"] == side))
                for side in SIDES}
        out["incorrect_runs"] = {
            side: sum(not r["correct"] for r in plain + traced
                      if r["side"] == side)
            for side in SIDES}
        if traced:
            summary[f"{workload}_traced_medians"] = {
                side: {k: float(np.median([r["metrics"][k] for r in traced
                                           if r["side"] == side]))
                       for k in traced[0]["metrics"]}
                for side in SIDES}
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", required=True, help="git revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=_seeds,
                    help="one pair per seed, e.g. 1601-1610")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    revs = {"parent": _git("rev-parse", "--short", args.parent),
            "change": _git("rev-parse", "--short", args.change)}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if doc.get("sides", revs) != revs:
        raise SystemExit(f"error: {args.out} holds runs of {doc['sides']}")
    runs = doc.get("runs", [])
    doc.update(command=("python3 perfbench/run.py --workload W --seed S "
                        f"--seconds {BENCHMARK['run_seconds']} --trace 0|1, "
                        "each run from a fresh git archive of its side's "
                        "tree"),
               sides=revs, runs=runs)
    pair0 = 1 + max((r["pair"] for r in runs), default=-1)
    for k, seed in enumerate(args.seeds):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            res = run_once(revs[side], args.workload, seed, args.trace)
            run = {"workload": args.workload, "seed": seed, "side": side,
                   "run_order": len(runs), "pair": pair0 + k,
                   "trace": args.trace, "correct": res["correct"],
                   "attempted": res["attempted"], "failed": res["failed"]}
            metrics = {k: m["value"] for k, m in res["metrics"].items()}
            if args.trace:
                run["metrics"] = metrics
            else:
                run.update(metrics)
            runs.append(run)
            print(json.dumps(run), flush=True)
        # written after every pair, so an interrupted series keeps its pairs
        doc["summary"] = summarize(runs, BENCHMARK["end_to_end"])
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    incorrect = sum(not r["correct"] for r in runs)
    if incorrect:
        print(f"error: {incorrect} run(s) in {args.out} printed "
              "correct: false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
