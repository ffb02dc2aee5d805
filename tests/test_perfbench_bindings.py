"""The benchmark's span tracer wraps ews functions by module and name; a
refactor that drops one of those bindings fails here, not only in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
HOMES = {attr: (mod, attr) for mod, attr, _ in tracer.TARGETS}


@pytest.mark.parametrize("mod,attr", [(mod, attr) for mod, attr, _ in tracer.TARGETS])
def test_every_traced_function_exists(mod, attr):
    assert callable(getattr(importlib.import_module(mod), attr, None))


@pytest.mark.parametrize("mod,attr", tracer.REQUIRED_BINDINGS)
def test_every_required_binding_is_the_traced_function(mod, attr):
    # the tracer rebinds a name only where it holds the very function object
    # it wraps at the defining module
    home_mod, home_attr = HOMES[attr]
    home = getattr(importlib.import_module(home_mod), home_attr)
    assert getattr(importlib.import_module(mod), attr, None) is home
