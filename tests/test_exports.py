import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import antiprod

MODULES = ["antiprod"] + [f"antiprod.{m.name}"
                          for m in pkgutil.iter_modules(antiprod.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing


def _tracing():
    """perfbench/tracing.py, read from its file and never edited."""
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    # perfbench/tracing.py wraps these names by lookup; a deleted one would
    # otherwise first fail in the traced benchmark run
    tracing = _tracing()
    names = [(layer, n) for layer, fns in tracing.LAYERS.items() for n in fns]
    names += [("mellin", n) for n in tracing.WEIGHT_FACTORIES]
    missing = [f"{layer}.{n}" for layer, n in names
               if not callable(getattr(
                   importlib.import_module(f"antiprod.{layer}"), n, None))]
    assert not missing


def test_tracer_wraps_and_restores_the_package():
    # the tracer of `perfbench/run.py --trace 1` installs on the package,
    # times a density call made through a memoized weight factory, and
    # leaves every name as it found it
    from antiprod import ensembles, mellin
    before = (ensembles.jpdf_degenerate, mellin.ginibre_weight)
    tracer = _tracing().Tracer("analytic")
    tracer.install()
    try:
        tracer.start_round(0)
        ensembles.jpdf_fixed([0.5, 1.5], [1.0, 2.0], mellin.ginibre_weight(0.5))
        ensembles.jpdf_degenerate([0.5, 1.5], mellin.ginibre_weight(0.5))
        tracer.end_round()
    finally:
        tracer.uninstall()
    assert (ensembles.jpdf_degenerate, mellin.ginibre_weight) == before
    assert [s[0] for s in tracer.spans] == ["ensembles.jpdf_fixed",
                                            "ensembles.jpdf_degenerate"]
    assert tracer.counts[0]["mellin.density_calls"] == 1
