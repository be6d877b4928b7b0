"""Traced mode: spans and counters recorded from outside antiprod.

``Tracer.install`` replaces each public function listed in ``LAYERS`` by a
timing wrapper, in every ``antiprod`` module namespace that holds it, so
calls made inside the package are seen as well as the benchmark's own.  The
catalogued weight factories are wrapped so that the densities they return
count their calls and evaluated points.  Spans stay in memory and are
written to one file at the end of the run; every per-layer metric is
derived from them.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

#: Traced functions per package module.
LAYERS = {
    "cli": ["main"],
    "harness": ["run_suite", "emit_results"],
    "samplers": ["sample_induced_ginibre_batch", "sample_induced_jacobi_batch",
                 "build_product_batch"],
    "linalg": ["haar_orthogonal_batch", "spectra_batch", "singular_spectrum"],
    "mellin": ["mellin_numeric", "mellin_convolve"],
    "ensembles": ["jpdf_fixed", "jpdf_degenerate", "corank2_jpdf"],
    "kernels": ["biorth_fixed", "gram_biorth", "kernel_fixed", "kernel_poly",
                "kernel_fixed_contour"],
    "spherical": ["phi_closed", "fn_closed", "harish_chandra_o2n",
                  "phi_montecarlo", "psi_montecarlo", "factorization_check_phi",
                  "factorization_check_psi", "harish_chandra_o2n_mc",
                  "fn_recurrence"],
}

#: Factories of the catalogued weights whose densities are counted.
WEIGHT_FACTORIES = ("ginibre_weight", "jacobi_weight")

_MC = ("spherical.phi_montecarlo", "spherical.psi_montecarlo",
       "spherical.factorization_check_phi", "spherical.factorization_check_psi",
       "spherical.harish_chandra_o2n_mc")
_CLOSED = ("spherical.phi_closed", "spherical.fn_closed",
           "spherical.harish_chandra_o2n")
_JPDF = ("ensembles.jpdf_fixed", "ensembles.jpdf_degenerate",
         "ensembles.corank2_jpdf")
_KERNEL = ("kernels.kernel_fixed", "kernels.kernel_poly")

#: Per-layer metric -> traced functions whose self time it sums.
SELF_TIME = {
    "cli.self_s": ("cli.main",),
    "harness.self_s": ("harness.run_suite", "harness.emit_results"),
    "samplers.factor_s": ("samplers.sample_induced_ginibre_batch",
                          "samplers.sample_induced_jacobi_batch"),
    "samplers.sandwich_s": ("samplers.build_product_batch",),
    "linalg.haar_s": ("linalg.haar_orthogonal_batch",),
    "linalg.spectra_s": ("linalg.spectra_batch", "linalg.singular_spectrum"),
    "mellin.numeric_s": ("mellin.mellin_numeric",),
    "mellin.convolve_s": ("mellin.mellin_convolve",),
    "ensembles.jpdf_s": _JPDF,
    "kernels.biorth_s": ("kernels.biorth_fixed", "kernels.gram_biorth"),
    "kernels.kernel_s": _KERNEL,
    "kernels.double_contour_s": ("kernels.kernel_fixed_contour",),
    "spherical.closed_s": _CLOSED,
    "spherical.mc_s": _MC,
    "spherical.recurrence_s": ("spherical.fn_recurrence",),
}

#: Per-layer metric -> traced functions whose calls it counts.
CALLS = {
    "mellin.numeric_calls": ("mellin.mellin_numeric",),
    "mellin.convolve_calls": ("mellin.mellin_convolve",),
    "ensembles.jpdf_calls": _JPDF,
    "kernels.kernel_calls": _KERNEL,
    "spherical.closed_calls": _CLOSED,
}

#: Metrics in the order they are reported, with units.
METRICS = (
    [(m, "s") for m in SELF_TIME]
    + [(m, "count") for m in CALLS]
    + [("cli.bytes_written", "count"), ("harness.reports", "count"),
       ("samplers.factors", "count"), ("linalg.haar_entries", "count"),
       ("mellin.density_calls", "count"), ("mellin.density_points", "count"),
       ("spherical.mc_samples", "count"),
       ("other.self_s", "s"), ("trace.overhead_s", "s")])


def _out_bytes(argv) -> int:
    """Bytes of the files in a CLI call's --out directory.  Every CLI call
    of the benchmark has a directory of its own and rewrites all of it."""
    argv = list(argv)
    out = Path(argv[argv.index("--out") + 1])
    return sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0


def _work(name: str, args, kwargs):
    """The count a span carries: samples, matrix entries, reports or bytes."""
    if name == "linalg.haar_orthogonal_batch":
        m = args[0] if args else kwargs["m"]
        size = args[1] if len(args) > 1 else kwargs["size"]
        return [int(size), int(size) * int(m) ** 2]
    if name.startswith("samplers.sample_induced"):
        return int(args[1] if len(args) > 1 else kwargs["size"])
    if name == "harness.emit_results":
        return len(args[0])
    if name == "cli.main":
        return _out_bytes(args[0])
    return 0


class Tracer:
    """Spans ``[name, start, end, parent, round, work]`` and per-round
    density counters, recorded between ``start_round`` and ``end_round``."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []
        self.stack: list = []
        self.round = None
        self.counts: dict = {}
        self._density_calls = 0
        self._density_points = 0
        self._restore: list = []

    def start_round(self, rnd: int):
        self.round = rnd
        self._density_calls = self._density_points = 0

    def end_round(self):
        self.counts[self.round] = {"mellin.density_calls": self._density_calls,
                                   "mellin.density_points": self._density_points}
        self.round = None

    # installation -------------------------------------------------------

    def install(self):
        import antiprod
        for layer in LAYERS:
            importlib.import_module(f"antiprod.{layer}")
        mods = [m for k, m in sorted(sys.modules.items())
                if (k == "antiprod" or k.startswith("antiprod."))
                and m is not None]
        for layer, names in LAYERS.items():
            mod = sys.modules[f"antiprod.{layer}"]
            for fn_name in names:
                orig = getattr(mod, fn_name)
                self._replace(mods, orig, self._span(f"{layer}.{fn_name}", orig))
        for fn_name in WEIGHT_FACTORIES:
            orig = getattr(antiprod.mellin, fn_name)
            self._replace(mods, orig, self._counted_factory(orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _replace(self, mods, orig, wrapper):
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))

    def _span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if self.round is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                span[5] = _work(name, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _counted_factory(self, factory):
        def counted(*args, **kwargs):
            weight = factory(*args, **kwargs)
            density = weight.density

            def counting_density(a):
                if self.round is not None:
                    self._density_calls += 1
                    self._density_points += a.size if type(a) is np.ndarray else 1
                return density(a)

            return dataclasses.replace(weight, density=counting_density)

        counted.__wrapped__ = factory
        return counted

    # metrics ------------------------------------------------------------

    def round_metrics(self, rnd: int, wall: float) -> dict:
        """Every per-layer metric of one traced round, except the overhead."""
        idx = [i for i, s in enumerate(self.spans) if s[4] == rnd]
        child = Counter()
        for i in idx:
            s = self.spans[i]
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self_t = Counter()
        calls = Counter()
        work = Counter()
        mc_samples = 0
        for i in idx:
            name, t0, t1, _, _, w = self.spans[i]
            self_t[name] += (t1 - t0) - child[i]
            calls[name] += 1
            if name == "linalg.haar_orthogonal_batch":
                work["linalg.haar_entries"] += w[1]
                if self._under(i, _MC):
                    mc_samples += w[0]
            elif name.startswith("samplers.sample_induced"):
                work["samplers.factors"] += w
            elif name == "harness.emit_results":
                work["harness.reports"] += w
            elif name == "cli.main":
                work["cli.bytes_written"] += w
        out = {m: sum(self_t[f] for f in fns) for m, fns in SELF_TIME.items()}
        out.update({m: sum(calls[f] for f in fns) for m, fns in CALLS.items()})
        out.update(work)
        out.update(self.counts.get(rnd, {}))
        out["spherical.mc_samples"] = mc_samples
        out["other.self_s"] = wall - sum(self_t.values())
        return out

    def _under(self, i: int, names) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def report(self, walls: list, scales: list, untraced_walls: list,
               untraced_scales: list) -> dict:
        """Medians over the traced rounds (an observed round's value for
        counts), plus trace.overhead_s.  Times are rescaled by each round's
        factor to the reference speed, as the end-to-end times are."""
        per_round = [self.round_metrics(r, w) for r, w in enumerate(walls)]
        out = {}
        for name, unit in METRICS:
            if name == "trace.overhead_s":
                value = (statistics.median(w * f for w, f in zip(walls, scales))
                         - statistics.median(w * f for w, f in
                                             zip(untraced_walls, untraced_scales)))
            elif unit == "count":
                value = statistics.median_low(r.get(name, 0) for r in per_round)
            else:
                value = statistics.median(r.get(name, 0) * f
                                          for r, f in zip(per_round, scales))
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path: Path, seed: int, walls: list, scales: list):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"workload": self.workload, "seed": seed, "round_walls_s": walls,
               "round_speed_factors": scales,
               "fields": ["name", "start", "end", "parent", "workload",
                          "round", "work"],
               "spans": [[s[0], s[1], s[2], s[3], self.workload, s[4], s[5]]
                         for s in self.spans],
               "counters": {str(r): c for r, c in self.counts.items()}}
        path.write_text(json.dumps(doc))
