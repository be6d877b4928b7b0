"""Command-line interface.

Subcommands: sample (raw product spectra), jpdf (tabulated analytic
densities), kernel (tabulated correlation kernels), spherical (closed-form
evaluations), verify (run a named test suite).  Configuration comes from a
YAML file plus flag overrides; every artifact embeds the schema identifier
so outputs are self-describing and reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .linalg import DomainError, SingularSpectrum, spectra_batch
from .harness import (SCHEMA_VERSION, emit_results, run_suite,
                      _factor_from_params, _pooled_marginal, _write_rows)
from .samplers import ProductSpec, build_product_batch


def _load_config(path) -> dict:
    if path is None:
        return {}
    cfg = yaml.safe_load(Path(path).read_text()) or {}
    schema = cfg.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise DomainError(
            f"config schema {schema!r} not supported (expected {SCHEMA_VERSION})")
    return cfg


def _write_table(out_dir, name: str, header: list, rows, fmt: str,
                 meta: dict) -> Path:
    path = _write_rows(out_dir, name, header, rows, fmt)
    meta = dict(meta, schema=SCHEMA_VERSION, version=__version__)
    path.with_name(f"{name}.meta.json").write_text(
        json.dumps(meta, sort_keys=True, default=str) + "\n")
    return path


def _cmd_sample(args, cfg) -> int:
    params = cfg.get("params", {})
    n = int(params.get("n", 1))
    params.setdefault("n", n)
    _, fspec = _factor_from_params(params)
    base = params.get("base", [1.0] * n)
    prod = ProductSpec(factors=(fspec,),
                       base=SingularSpectrum.from_values(base))
    rng = np.random.default_rng(args.seed)
    spectra = spectra_batch(build_product_batch(prod, args.samples, rng))
    header = [f"a_{j + 1}" for j in range(n)]
    _write_table(args.out, "spectra", header, spectra, args.format,
                 {"command": "sample", "params": params,
                  "seed": args.seed, "samples": args.samples})
    return 0


def _grid(params: dict, default_hi: float):
    lo = float(params.get("grid_lo", 1e-4))
    hi = float(params.get("grid_hi", default_hi))
    npts = int(params.get("grid_points", 200))
    return np.linspace(lo, hi, npts)


def _cmd_jpdf(args, cfg) -> int:
    params = cfg.get("params", {})
    n = int(params.get("n", 1))
    params.setdefault("n", n)
    factor, _ = _factor_from_params(params)
    density, support = _pooled_marginal(params.get("base", [1.0] * n), factor)
    hi = support[1] if np.isfinite(support[1]) else 10.0
    grid = _grid(params, hi)
    rows = np.column_stack([grid, density(grid)])
    _write_table(args.out, "jpdf", ["y", "density"], rows, args.format,
                 {"command": "jpdf", "params": params})
    return 0


def _cmd_kernel(args, cfg) -> int:
    from .kernels import biorth_fixed
    params = cfg.get("params", {})
    n = int(params.get("n", 2))
    params.setdefault("n", n)
    factor, _ = _factor_from_params(params)
    base = params.get("base", [1.0, 2.0])
    system = biorth_fixed(base, factor)
    grid = _grid(params, factor.tail * max(base))
    rows = np.column_stack([grid, system.diagonal(grid)])
    _write_table(args.out, "kernel", ["y", "K"], rows, args.format,
                 {"command": "kernel", "params": params,
                  "gram_offdiag": system.gram_offdiag})
    return 0


def _cmd_spherical(args, cfg) -> int:
    from . import spherical as sph
    params = cfg.get("params", {})
    s = tuple(params.get("s", (2.0, 0.0)))
    points = params.get("a_points", [[1.0, 2.0]])
    rows = []
    for a in points:
        val = sph.phi_closed(s, tuple(a))
        rows.append(tuple(a) + (float(np.real(val)), float(np.imag(val))))
    n = len(points[0])
    header = [f"a_{j + 1}" for j in range(n)] + ["phi_re", "phi_im"]
    _write_table(args.out, "spherical", header, rows, args.format,
                 {"command": "spherical", "params": params})
    return 0


def _cmd_verify(args, cfg) -> int:
    suite = cfg.get("suite", args.suite)
    reports = run_suite(suite, seed=args.seed, nsamples=args.samples)
    emit_results(reports, args.out, fmt=args.format)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.name}")
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="antiprod",
        description="Singular-value statistics of antisymmetric matrix "
                    "products: sampling, analytic densities, kernels and "
                    "verification.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__} ({SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="YAML config file")
    common.add_argument("--seed", type=int, default=0,
                        help="64-bit RNG seed")
    common.add_argument("--samples", type=int, default=100_000,
                        help="Monte Carlo sample count")
    common.add_argument("--out", type=str, default="out",
                        help="output directory")
    common.add_argument("--format", choices=("csv", "jsonlines"),
                        default="csv")
    sub.add_parser("sample", parents=[common],
                   help="emit raw product spectra")
    sub.add_parser("jpdf", parents=[common],
                   help="tabulate analytic spectral densities")
    sub.add_parser("kernel", parents=[common],
                   help="tabulate the correlation kernel")
    sub.add_parser("spherical", parents=[common],
                   help="evaluate spherical functions")
    ver = sub.add_parser("verify", parents=[common],
                         help="run a verification suite")
    ver.add_argument("--suite", type=str, default="quick",
                     help="suite name: quick, all, spectrum, corank2, "
                          "prop45, mellin, kernels, spherical")
    args = parser.parse_args(argv)
    cfg = _load_config(args.config)
    handlers = {"sample": _cmd_sample, "jpdf": _cmd_jpdf,
                "kernel": _cmd_kernel, "spherical": _cmd_spherical,
                "verify": _cmd_verify}
    try:
        return handlers[args.command](args, cfg)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
