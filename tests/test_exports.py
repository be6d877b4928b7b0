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


def test_traced_names_resolve():
    # perfbench/tracing.py wraps these names by lookup; a deleted one would
    # otherwise first fail in the traced benchmark run
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(layer, n) for layer, fns in tracing.LAYERS.items() for n in fns]
    names += [("mellin", n) for n in tracing.WEIGHT_FACTORIES]
    missing = [f"{layer}.{n}" for layer, n in names
               if not hasattr(importlib.import_module(f"antiprod.{layer}"), n)]
    assert not missing
