"""Every oqho function the benchmark tracer looks up by name must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = load_tracing()
    assert tracing.FUNCTIONS
    for layer in tracing.FUNCTIONS:
        module, attr = layer.split(".")
        home = importlib.import_module(f"oqho.{module}")
        assert callable(getattr(home, attr, None)), f"{layer} is not a callable"


def test_traced_function_families_are_non_empty():
    tracing = load_tracing()
    for layer, prefix in tracing.GROUPS.items():
        home = importlib.import_module(f"oqho.{layer.split('.')[0]}")
        members = [a for a in dir(home)
                   if a.startswith(prefix) and callable(getattr(home, a))]
        assert members, f"no {prefix}* functions in oqho.{layer.split('.')[0]}"
