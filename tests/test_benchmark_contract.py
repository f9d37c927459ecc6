"""The benchmark tracer wraps package entry points by name: each one it
names must be bound on its owner itself, so that a renamed function or an
inherited method shows up here rather than as a failed benchmark run."""
import importlib.util
from pathlib import Path

import hyperpoly

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_is_bound_on_its_owner():
    entries = load_tracer().entry_points(hyperpoly)
    assert entries
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in entries if attr not in vars(owner)]
    assert missing == []
