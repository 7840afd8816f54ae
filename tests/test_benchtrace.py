"""The benchmark's traced run still sees every layer it measures.

perfbench/benchtrace.py wraps module-level functions where minelab looks
them up and two Solver methods; a refactor that drops one of them, or
changes a signature the wrappers call with, fails the traced run. These
tests import that file as it is, check every name and play traced games,
so such a refactor fails here first.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import minelab.board
import minelab.harness
import minelab.player
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


def traced_game_metrics(benchtrace, policy: str, track_cores: bool) -> dict:
    """layer_metrics of one n=10 game played under the game patches."""
    tracer = benchtrace.Tracer()
    with tracer.installed(benchtrace.GAME_PATCHES, solver=True):
        board = minelab.board.generate_board(
            10, 0.15, minelab.harness.game_seed(1, 0.15, 0))
        minelab.player.play_game(board, policy, track_cores=track_cores,
                                 time_budget_s=None)
    return benchtrace.layer_metrics(tracer, 1)


def test_traced_games_read_every_layer():
    benchtrace = load_benchtrace()
    sat = traced_game_metrics(benchtrace, "sat", True)
    for name in ("sat.solve.infer.calls", "gmus.extract_gmus.calls",
                 "cnf.build_formula.calls", "sat.Solver_init.calls"):
        assert sat[name] > 0, name
    # One frontier computation per inference pass.
    assert sat["board.frontiers.calls"] == sat["player.infer_step.calls"]
    # The reveals, batched one call per pass, stay visible to the trace.
    assert sat["board.reveal.calls"] > 0
    # Cores off: the counting search decides the residual rows inside
    # infer_step, with no solver and no encoder.
    nocores = traced_game_metrics(benchtrace, "sat", False)
    for name in ("sat.solve.infer.calls", "sat.Solver_init.calls",
                 "cnf.build_formula.calls", "gmus.extract_gmus.calls"):
        assert nocores[name] == 0, name
    assert nocores["player.infer_step.self_ms"] > 0
    assert (nocores["board.frontiers.calls"]
            == nocores["player.infer_step.calls"] > 0)
    kset = traced_game_metrics(benchtrace, "kset:2", False)
    assert kset["kset.evaluated"] > 0
    assert kset["board.reveal.calls"] > 0
    assert (kset["board.frontiers.calls"]
            == kset["kset.kset_infer.calls"] > 0)
