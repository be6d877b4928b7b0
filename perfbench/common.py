"""Pieces shared by the workloads: operations, verdicts, seeds, quadrature
rules and the in-process CLI call."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Largest |z| a Monte Carlo or moment check accepts.  A correct output
#: exceeds it with probability below 1e-5 per check; an output shifted by
#: five standard errors away from its reference always exceeds it.
Z_LIMIT = 4.5


class OpFailed(Exception):
    """The operation gave no usable result: it raised, exited nonzero or
    wrote non-finite values."""


class CheckError(Exception):
    """A usable result disagrees with its independent reference."""


@dataclass
class Op:
    """One timed call into the package and the untimed check of its result."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class CliResult:
    """Exit code, captured standard output and output directory of one CLI
    call."""

    rc: int
    stdout: str
    out: Path


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def draw_base(rng, n: int, lo: float, hi: float) -> list:
    """n sorted values in [lo, hi] whose consecutive ratios exceed 1.1."""
    while True:
        b = np.sort(rng.uniform(lo, hi, n))
        if n == 1 or np.all(b[1:] / b[:-1] > 1.1):
            return [float(v) for v in b]


def cli_seed(seed: int, *tags: int) -> int:
    """A 63-bit CLI seed derived from the benchmark seed and a tag path."""
    return int(rng_for(seed, *tags).integers(0, 2 ** 63 - 1))


def run_cli(argv: list, out: Path) -> CliResult:
    """antiprod's command line, called in-process through ``cli.main``."""
    import antiprod.cli as cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:        # argparse rejects its arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return CliResult(rc=int(rc), stdout=buf.getvalue(), out=out)


def digest(value) -> str:
    """Hash of an operation's result; for a CLI call, of its files too."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, CliResult):
            feed((v.rc, v.stdout))
            for p in sorted(v.out.iterdir()):
                h.update(p.name.encode())
                h.update(p.read_bytes())
        elif isinstance(v, np.ndarray):
            h.update(str(v.dtype).encode() + str(v.shape).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (list, tuple)):
            h.update(b"(")
            for item in v:
                feed(item)
            h.update(b")")
        elif isinstance(v, dict):
            feed(sorted(v.items()))
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


def write_config(path: Path, params: dict) -> Path:
    """A YAML config file for the CLI."""
    import yaml
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump({"schema": "antiprod/1", "params": params}))
    return path


def read_table(path: Path) -> tuple[list, np.ndarray]:
    """(header, rows) of a table written as csv or jsonlines."""
    text = path.read_text()
    if path.suffix == ".csv":
        lines = text.splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    elif path.suffix == ".jsonl":
        objs = [json.loads(ln) for ln in text.splitlines()]
        header = list(objs[0]) if objs else []
        rows = np.array([[float(o[k]) for k in header] for o in objs])
    else:
        raise CheckError(f"unknown table format {path.name}")
    return header, rows.reshape(len(rows), len(header))


def require_finite(rows: np.ndarray, what: str):
    bad = ~np.all(np.isfinite(rows), axis=1)
    if np.any(bad):
        raise OpFailed(f"{what}: {int(bad.sum())} of {len(rows)} rows are "
                       "not finite")


def gauss_legendre(breaks, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite m-point Gauss-Legendre nodes and weights on the cells
    between consecutive breakpoints."""
    x, w = np.polynomial.legendre.leggauss(m)
    xs, ws = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        xs.append((hi + lo) / 2.0 + (hi - lo) / 2.0 * x)
        ws.append((hi - lo) / 2.0 * w)
    return np.concatenate(xs), np.concatenate(ws)


def half_line_breaks(base, cells: int = 8) -> np.ndarray:
    """Breakpoints for densities decaying like exp(-y / max(base)): zero,
    then geometric cells from min(base)/8 out to 45 max(base)."""
    return np.concatenate([[0.0], np.geomspace(min(base) / 8.0,
                                               45.0 * max(base), cells)])


def check_close(got, want, rtol: float, atol: float, what: str):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    err = np.abs(got - want)
    lim = atol + rtol * np.abs(want)
    if not np.all(err <= lim):
        i = int(np.argmax(err - lim))
        raise CheckError(f"{what}: {got.ravel()[i]} differs from "
                         f"{want.ravel()[i]} by {err.ravel()[i]:.3e}")


def check_z(estimate, stderr, reference, what: str):
    if not stderr > 0:
        raise CheckError(f"{what}: standard error {stderr} tests nothing")
    z = abs(estimate - reference) / stderr
    if not z < Z_LIMIT:
        raise CheckError(f"{what}: |z| = {z:.2f} (estimate {estimate}, "
                         f"reference {reference}, stderr {stderr:.3e})")
