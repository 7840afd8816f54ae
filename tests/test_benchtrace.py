"""The names the benchmark's traced run patches still exist.

perfbench/benchtrace.py wraps module-level functions where minelab looks
them up and two Solver methods; a refactor that drops one of them fails
the traced run. This test imports that file as it is and checks every
name, so such a refactor fails here first.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import minelab.sat

BENCHTRACE = Path(__file__).parent.parent / "perfbench" / "benchtrace.py"


def load_benchtrace():
    spec = importlib.util.spec_from_file_location("benchtrace", BENCHTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_names_resolve():
    benchtrace = load_benchtrace()
    patches = benchtrace.GAME_PATCHES + benchtrace.SWEEP_PATCHES
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in patches
               if not callable(getattr(module, attr, None))]
    assert not missing
    assert set(benchtrace.SOLVER_METHODS) == {"__init__", "solve"}
    for method in benchtrace.SOLVER_METHODS:
        assert callable(minelab.sat.Solver.__dict__.get(method))
