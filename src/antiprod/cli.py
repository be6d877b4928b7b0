"""Command-line interface.

Subcommands: sample (raw product spectra), jpdf (tabulated analytic
densities), kernel (tabulated correlation kernels), spherical (closed-form
evaluations), verify (run a named test suite).  Configuration comes from a
YAML file plus flag overrides; every artifact embeds the schema identifier
so outputs are self-describing and reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .linalg import DomainError
from .harness import (SCHEMA_VERSION, emit_results, product_from_params,
                      run_suite, _pooled_marginal, _write_rows)
from .mellin import QuadratureError
from .samplers import product_spectra_batch


def _load_config(path) -> dict:
    """The config mapping of the YAML file at path, {} for none or an empty
    file.  libyaml's CSafeLoader parses it where PyYAML has one, with the
    resolver and constructor of SafeLoader, which stays as the fallback.
    A file that is not YAML, or whose top level or params is not a
    mapping, raises DomainError."""
    if path is None:
        return {}
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        cfg = yaml.load(Path(path).read_text(), Loader=loader)
    except yaml.YAMLError as exc:
        raise DomainError(f"config {path} is not valid YAML: {exc}") from exc
    if cfg is None:
        return {}
    if not isinstance(cfg, dict) or not isinstance(cfg.get("params", {}),
                                                   dict):
        raise DomainError(
            f"config {path}: the file and its params must be mappings")
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


def _product(cfg):
    """(params, product) of a config; params records the n and base used."""
    params = cfg.get("params", {})
    prod = product_from_params(params)
    params.setdefault("n", prod.n)
    params.setdefault("base", prod.base_values.tolist())
    return params, prod


def _cmd_sample(args, cfg) -> int:
    params, prod = _product(cfg)
    rng = np.random.default_rng(args.seed)
    spectra = product_spectra_batch(prod, args.samples, rng)
    header = [f"a_{j + 1}" for j in range(prod.n)]
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
    params, prod = _product(cfg)
    density, support = _pooled_marginal(prod)
    grid = _grid(params, support[1] if np.isfinite(support[1]) else 10.0)
    rows = np.column_stack([grid, density(grid)])
    _write_table(args.out, "jpdf", ["y", "density"], rows, args.format,
                 {"command": "jpdf", "params": params})
    return 0


def _cmd_kernel(args, cfg) -> int:
    from .kernels import biorth_fixed
    params, prod = _product(cfg)
    system = biorth_fixed(prod.base_values, prod.weight)
    grid = _grid(params, prod.weight.tail * prod.base_values[-1])
    rows = np.column_stack([grid, system.diagonal(grid)])
    _write_table(args.out, "kernel", ["y", "K"], rows, args.format,
                 {"command": "kernel", "params": params,
                  "gram_offdiag": system.gram_offdiag})
    return 0


def _cmd_spherical(args, cfg) -> int:
    from . import spherical as sph
    params = cfg.get("params", {})
    s = tuple(params.get("s", (2.0, 0.0)))
    try:
        points = np.array(params.get("a_points", [[1.0, 2.0]]), dtype=float)
    except ValueError as exc:
        raise DomainError(
            f"a_points must be equal-length lists: {exc}") from exc
    if points.ndim != 2:
        raise DomainError("a_points must be a list of spectra")
    val = sph.phi_closed(s, points)
    rows = np.column_stack([points, val.real, val.imag])
    n = points.shape[1]
    header = [f"a_{j + 1}" for j in range(n)] + ["phi_re", "phi_im"]
    _write_table(args.out, "spherical", header, rows, args.format,
                 {"command": "spherical", "params": params})
    return 0


def _cmd_verify(args, cfg) -> int:
    suite = cfg.get("suite", args.suite)
    reports = run_suite(suite, seed=args.seed, nsamples=args.samples)
    emit_results(reports, args.out, fmt=args.format)
    for rep in reports:
        if rep.passed:
            print(f"PASS {rep.name}")
        else:
            failed = ", ".join(str(c) for c in rep.checks if not c.passed)
            print(f"FAIL {rep.name}: {failed}")
    return 0 if all(r.passed for r in reports) else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it is, so every call of main reads its own defaults."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"sample": _cmd_sample, "jpdf": _cmd_jpdf,
                "kernel": _cmd_kernel, "spherical": _cmd_spherical,
                "verify": _cmd_verify}
    try:
        return handlers[args.command](args, _load_config(args.config))
    except (DomainError, QuadratureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
