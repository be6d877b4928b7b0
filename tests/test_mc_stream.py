"""The Monte Carlo block stream draws block b + 1 on a background thread
while the caller computes block b.

Each estimator runs twice from the same seed: once as the package runs it,
and once with an executor that draws inline in place of the background
thread, which is the serial loop.  The results must agree bit for bit, and
so must the generator's state afterwards.  The generator is wrapped in a
proxy that fails when two threads are inside it at once.
"""

import os
import pickle
import signal
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from antiprod import cli, harness, linalg
from antiprod.linalg import MC_BLOCK, DomainError, _mc_map
from antiprod.samplers import (GinibreSpec, JacobiSpec, ProductSpec,
                               build_product_batch, product_spectra_batch)
from antiprod.spherical import (factorization_check_phi,
                                factorization_check_psi,
                                harish_chandra_o2n_mc, phi_montecarlo,
                                psi_montecarlo)

SIZES = [1, MC_BLOCK, 3 * MC_BLOCK + 5]
S = (4.0, 0.5)
G = np.diag([1.2, 0.8, 1.1, 0.9])
GP = np.diag([0.7, 1.3, 1.0, 1.0])


class InlineExecutor:
    """Runs each submitted draw at once in the caller's thread."""

    def submit(self, fn, *args):
        fut = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


class ExclusiveGenerator:
    """A Generator whose methods fail when two threads enter them at once;
    records the threads that called it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.threads = set()
        self._inside = threading.Lock()

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def call(*args, **kwargs):
            if not self._inside.acquire(blocking=False):
                raise AssertionError("two threads inside the generator")
            try:
                self.threads.add(threading.get_ident())
                time.sleep(1e-4)    # widen the window an overlap needs
                return method(*args, **kwargs)
            finally:
                self._inside.release()

        return call


def run_both(monkeypatch, call, seed=7):
    """call(rng) drawing ahead and serially: (result bytes, generator
    state, threads) of each."""
    out = []
    for executor in (None, InlineExecutor()):
        if executor is not None:
            monkeypatch.setattr(linalg, "_executor", executor)
        rng = ExclusiveGenerator(seed)
        res = call(rng)
        out.append((pickle.dumps(res), rng.bit_generator.state, rng.threads))
    (ahead, state, threads), (serial, serial_state, _) = out
    assert ahead == serial
    assert state == serial_state
    return threads


def specs(n):
    base = np.linspace(0.5, 2.0, n)
    ginibre, jacobi = GinibreSpec(n, 1.0), JacobiSpec(n, n, 4 * n + 1)
    return [ProductSpec((), base), ProductSpec((ginibre,), base),
            ProductSpec((jacobi,), base), ProductSpec((ginibre, jacobi), base),
            ProductSpec((jacobi, ginibre), base)]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_samplers_draw_ahead_bitwise(monkeypatch, n, size):
    for spec in specs(n):
        threads = run_both(monkeypatch, lambda rng: (
            product_spectra_batch(spec, size, rng),
            build_product_batch(spec, size, rng)))
        monkeypatch.undo()
        # past one block some draws run off the caller's thread
        assert len(threads) == (2 if size > MC_BLOCK and spec.factors else
                                1 if spec.factors else 0)


ESTIMATORS = {
    "phi": lambda ns, rng: phi_montecarlo(S, (1.0, 2.0), ns, rng),
    "phi-n3": lambda ns, rng: phi_montecarlo((6.0, 2.0, 0.0),
                                             (0.7, 1.0, 2.0), ns, rng),
    "psi": lambda ns, rng: psi_montecarlo(S, G, ns, rng),
    "factorization-phi": lambda ns, rng: factorization_check_phi(
        S, G, (1.0, 2.0), ns, rng),
    "factorization-psi": lambda ns, rng: factorization_check_psi(
        S, G, GP, ns, rng),
    "harish-chandra": lambda ns, rng: harish_chandra_o2n_mc(
        (0.5, 1.0), (0.8, 1.6), ns, rng),
}


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", ESTIMATORS)
def test_estimators_draw_ahead_bitwise(monkeypatch, name, size):
    threads = run_both(monkeypatch,
                       lambda rng: ESTIMATORS[name](size, rng), seed=11)
    assert len(threads) == (2 if size > MC_BLOCK else 1)


@pytest.mark.parametrize("size", SIZES)
def test_corank2_samples_draw_ahead_bitwise(monkeypatch, size):
    seen = []
    binned = harness._binned_comparison

    def spy(samples, *args):
        seen.append(samples.tobytes())
        return binned(samples, *args)

    def report():
        try:
            rep = harness.run_corank2_experiment(harness.ExperimentConfig(
                params={"a": [1.0, 2.0]}, nsamples=size, seed=6))
        except DomainError:     # one sample fills too few bins
            assert size == 1
            return seen[-1]
        return seen[-1], pickle.dumps((rep.statistics, rep.rows))

    monkeypatch.setattr(harness, "_binned_comparison", spy)
    ahead = report()
    monkeypatch.setattr(linalg, "_executor", InlineExecutor())
    assert report() == ahead


def _tree(out: Path) -> dict:
    return {p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_cli_artifacts_draw_ahead_bytewise(monkeypatch, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("factor: jacobi\nn: 2\nN: 2\nK1: 9\nbase: [0.8, 1.7]\n")
    runs = [["sample", "--config", str(cfg), "--samples",
             str(3 * MC_BLOCK + 5), "--seed", "3", "--format", fmt]
            for fmt in ("csv", "jsonlines")]
    runs.append(["verify", "--suite", "quick", "--seed", "0"])
    trees = []
    for side in ("ahead", "serial"):
        if side == "serial":
            monkeypatch.setattr(linalg, "_executor", InlineExecutor())
        for k, argv in enumerate(runs):
            cli.main(argv + ["--out", str(tmp_path / side / str(k))])
        trees.append(_tree(tmp_path / side))
    assert trees[0] == trees[1]
    assert len(trees[0]) > 4


class Draws:
    """A draw callable that records how many draws are running and have
    ended; it raises on the call numbered `fail`."""

    def __init__(self, fail=None):
        self.fail, self.calls, self.running, self.ended = fail, 0, 0, 0

    def __call__(self, size, rng):
        self.calls += 1
        self.running += 1
        try:
            time.sleep(0.02)
            if self.calls == self.fail:
                self.error = DomainError("draw failed")
                raise self.error
            return rng.standard_normal(size)
        finally:
            self.running -= 1
            self.ended += 1


def test_compute_error_propagates_with_no_draw_running():
    draws, err = Draws(), RuntimeError("block 1")

    def compute(x):
        if compute.blocks == 1:
            raise err
        compute.blocks += 1

    compute.blocks = 0
    with pytest.raises(RuntimeError) as info:
        _mc_map((draws,), 3 * MC_BLOCK + 5, np.random.default_rng(0), compute)
    assert info.value is err
    # blocks 0 and 1, and block 2 that was drawn ahead of the failure
    assert (draws.running, draws.ended) == (0, 3)


def test_draw_error_on_the_worker_propagates_unchanged():
    draws = Draws(fail=3)
    with pytest.raises(DomainError) as info:
        _mc_map((draws,), 4 * MC_BLOCK, np.random.default_rng(0),
                lambda x: None)
    assert info.value is draws.error
    assert (draws.running, draws.ended) == (0, 3)


@pytest.mark.parametrize("serial", [False, True])
def test_unsamplable_factor_raises_as_before(monkeypatch, serial):
    if serial:
        monkeypatch.setattr(linalg, "_executor", InlineExecutor())
    spec = ProductSpec((GinibreSpec(2, 0.5),))
    with pytest.raises(DomainError, match="analytic-only parameter"):
        product_spectra_batch(spec, 3 * MC_BLOCK + 5,
                              np.random.default_rng(0))


def test_concurrent_callers_share_the_drawer(monkeypatch):
    # more caller threads than cores, switching often: every generator is
    # entered by one thread at a time and every estimate is the serial one
    def estimate(rng):
        return pickle.dumps(phi_montecarlo(S, (1.0, 2.0), 3 * MC_BLOCK + 5,
                                           rng))

    monkeypatch.setattr(linalg, "_executor", InlineExecutor())
    want = [estimate(np.random.default_rng(k)) for k in range(4)]
    monkeypatch.undo()
    got = [None] * 4

    def run(k):
        got[k] = estimate(ExclusiveGenerator(k))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_forked_child_draws_on_a_thread_of_its_own():
    def estimate():
        return phi_montecarlo(S, (1.0, 2.0), 2 * MC_BLOCK,
                              np.random.default_rng(5))

    want = estimate()          # the parent's thread exists from here on
    pid = os.fork()
    if pid == 0:               # child: a draw sent to the parent's thread
        signal.alarm(30)       # would never return
        os._exit(0 if estimate() == want else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
