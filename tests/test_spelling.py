"""The table writer's float spelling against Python's own, byte for byte.

`spelling.spell` spells '%.17g' % v (csv) and repr(v) (jsonlines) from
exact numpy arithmetic; `harness._write_rows` writes the tables of every
command with it.  Each test here compares it with the per-value spelling
of CPython, on random values, random bit patterns and the edges of its
fast path, and reads tables of `antiprod sample` back bit for bit.
"""

import json

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from antiprod import harness
from antiprod.cli import main
from antiprod.spelling import spell
from antiprod.samplers import product_spectra_batch


def _python(values, shortest):
    return [(repr(v) if shortest else "%.17g" % v).encode()
            for v in np.asarray(values, dtype=float).tolist()]


def _assert_spelled_as_python(values):
    x = np.ascontiguousarray(values, dtype=float)
    for shortest in (False, True):
        got = spell(x, shortest)[0].tolist()
        want = _python(x, shortest)
        wrong = [(v, g, w) for v, g, w in zip(x.tolist(), got, want)
                 if g != w]
        assert not wrong, (shortest, len(wrong), wrong[:5])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=1, max_size=40))
def test_hypothesis_floats_spell_as_python(values):
    # subnormals and both zeros are among hypothesis's finite floats
    _assert_spelled_as_python(values)


def test_random_bit_patterns_spell_as_python():
    # most of these lie outside the fast path's decades, and Python spells
    # them inside spell; the comparison is over the values it did not
    rng = np.random.default_rng(20)
    x = rng.integers(-2 ** 63, 2 ** 63, size=10 ** 6,
                     dtype=np.int64).view(np.float64)
    x = x[np.isfinite(x)]
    for shortest in (False, True):
        spelled, python = spell(x, shortest)
        fast = np.ones(x.size, bool)
        fast[python] = False
        assert 30_000 < fast.sum() < 50_000
        assert spelled[fast].tolist() == _python(x[fast], shortest)


def test_random_mantissas_in_the_fast_window_spell_as_python():
    # uniform bit patterns rarely land in the fast path's decades
    # (1e-6 <= |x| < 1e17): biased exponents 1000..1080 cover them and
    # their edges; every seventh mantissa keeps only 12 bits, so that short
    # decimals, exact ties and integers are frequent
    rng = np.random.default_rng(21)
    biased = rng.integers(1000, 1080, 200_000)
    mantissa = rng.integers(0, 2 ** 52, 200_000)
    mantissa[::7] &= ~((1 << 40) - 1)
    sign = rng.integers(0, 2, 200_000) << 63
    bits = (sign | (biased << 52) | mantissa).astype(np.uint64)
    _assert_spelled_as_python(bits.view(np.float64))


def test_short_decimals_spell_as_python():
    rng = np.random.default_rng(22)
    k = rng.integers(1, 10 ** 6, 100_000)
    _assert_spelled_as_python(k / 10.0 ** rng.integers(0, 12, 100_000))


def test_edges_spell_as_python():
    # every power of two: below one, a double's rounding interval is half
    # as wide as above it
    edges = [2.0 ** k for k in range(-1074, 1024)]
    edges += [float(f"1e{k}") for k in range(-323, 309)]
    for v in (1e-6, 1e-5, 1e-4, 1e15, 1e16, 1e17):
        edges += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
    # exact decimal ties, at the last digit of %.17g among them
    edges += [2.5, 0.125, 9.5, 1125899906842624.25, 988185237327356.625]
    edges += [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              1e23, 0.0, 0.1, 0.3, 2.0 / 3.0, 123456789.125,
              9007199254740993.0]
    edges = np.array(edges)
    _assert_spelled_as_python(np.concatenate([edges, -edges]))


def test_sampled_spectra_rarely_fall_back_to_python():
    prod = harness.product_from_params({"factor": "ginibre", "n": 2})
    x = product_spectra_batch(prod, 100_000, np.random.default_rng(0)).ravel()
    for shortest in (False, True):
        spelled, python = spell(x, shortest)
        assert len(python) < 1e-3 * x.size
        assert spelled.tolist() == _python(x, shortest)


@pytest.mark.parametrize("fmt", ["csv", "jsonlines"])
@pytest.mark.parametrize("params", [
    {"factor": "ginibre", "n": 1},
    {"factor": "ginibre", "n": 2, "nu": 1.0, "base": [0.5, 2.0]},
    {"factor": "ginibre", "n": 4},
    {"factor": "jacobi", "n": 2, "N": 2, "K1": 9, "base": [1.0, 3.0]},
], ids=["ginibre-n1", "ginibre-n2", "ginibre-n4", "jacobi-n2"])
def test_sample_tables_read_back_bit_for_bit(tmp_path, fmt, params):
    # more than one block of rows
    samples, seed = 5000, 31
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"params": params}))
    assert main(["sample", "--config", str(cfg), "--samples", str(samples),
                 "--seed", str(seed), "--out", str(tmp_path),
                 "--format", fmt]) == 0
    prod = harness.product_from_params(params)
    want = product_spectra_batch(prod, samples, np.random.default_rng(seed))
    header = [f"a_{j + 1}" for j in range(prod.n)]
    if fmt == "csv":
        lines = (tmp_path / "spectra.csv").read_text().splitlines()
        assert lines[0] == ",".join(header)
        got = [[float(v) for v in line.split(",")] for line in lines[1:]]
    else:
        lines = (tmp_path / "spectra.jsonl").read_text().splitlines()
        got = [[row[h] for h in header] for row in map(json.loads, lines)]
    got = np.array(got)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
