"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import import_program  # noqa: E402

import_program()
import benchcore  # noqa: E402
import benchtrace  # noqa: E402
import minelab.sat  # noqa: E402
from benchcore import Cell, GameWorkload  # noqa: E402

TINY = GameWorkload("tiny", (Cell(10, 0.1, "sat", True),
                             Cell(10, 0.1, "kset:2", False)),
                    pool=12, traced=2)


def tiny_expected():
    boards = benchcore.make_boards(TINY, range(TINY.pool))
    return {"masters": [
        [benchcore.result_row(benchcore.play(boards[(m, c.n, c.rho)], c, m))
         for c in TINY.cells] for m in range(TINY.pool)]}


@pytest.fixture
def tiny(monkeypatch):
    expected = tiny_expected()
    monkeypatch.setattr(benchcore, "load_expected", lambda name: expected)
    monkeypatch.setattr(benchcore, "probe_setup", lambda name, seed: [0.25])
    return expected


def patch_targets(patches):
    """Every (object, attribute) a traced pass with these patches replaces."""
    return ([(module, attr) for module, attr, _ in patches]
            + [(minelab.sat.Solver, m) for m in benchtrace.SOLVER_METHODS])


def all_targets():
    return (patch_targets(benchtrace.GAME_PATCHES)
            + patch_targets(benchtrace.SWEEP_PATCHES))


def snapshot():
    return [(obj, attr, vars(obj)[attr]) for obj, attr in all_targets()]


def spec():
    return json.loads(benchcore.BENCHMARK_JSON.read_text())


def test_untraced_run_leaves_every_target_original(tiny, monkeypatch):
    before = snapshot()
    play = benchcore.play

    def checked_play(*args):
        assert all(vars(obj)[attr] is orig for obj, attr, orig in before)
        return play(*args)

    monkeypatch.setattr(benchcore, "play", checked_play)
    res = benchcore.run_games_timed(TINY, seed=0, seconds=0.01)
    assert res["failed"] == 0 and res["attempted"] == TINY.min_games
    assert all(vars(obj)[attr] is orig for obj, attr, orig in before)


def test_traced_run_patches_inside_and_restores_after(tiny):
    before = snapshot()
    seen = []
    tracer = benchtrace.Tracer()
    with tracer.installed(benchtrace.GAME_PATCHES, solver=True):
        seen = [vars(obj)[attr] is orig for obj, attr, orig in before
                if (obj, attr) in patch_targets(benchtrace.GAME_PATCHES)]
    assert seen and not any(seen)
    res = benchcore.run_games_traced(TINY, seed=0)
    assert res["failed"] == 0
    assert all(vars(obj)[attr] is orig for obj, attr, orig in before)
    m = res["metrics"]
    assert m["player.play_game.self_ms"] > 0
    assert m["kset.kset_infer.calls"] > 0 and m["kset.evaluated"] > 0
    assert m["gmus.extract_gmus.calls"] > 0


def test_a_name_no_longer_looked_up_fails_loudly():
    gone = types.SimpleNamespace()
    with pytest.raises(AttributeError, match="frontiers"):
        with benchtrace.Tracer().installed(
                [(gone, "frontiers", "board.frontiers")], solver=False):
            pass


def test_traced_counts_repeat_exactly(tiny):
    a = benchcore.run_games_traced(TINY, seed=5)["metrics"]
    b = benchcore.run_games_traced(TINY, seed=5)["metrics"]
    counts = [k for k in a if k.endswith(".calls")] + [
        "kset.evaluated", "gmus.solves_per_core", "player.passes_per_game",
        "cnf.clauses_per_pass", "gmus.core_size_mean"]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}


def test_metric_names_match_benchmark_json(tiny):
    s = spec()
    timed = benchcore.run_games_timed(TINY, seed=0, seconds=0.01)
    traced = benchcore.run_games_traced(TINY, seed=0)
    assert set(timed["metrics"]) == {m["name"] for m in s["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in s["per_layer"]}
    line = json.loads(benchcore.result_line(timed))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        ["root", -1, 0, 100],
        ["a", 0, 10, 30],
        ["b", 0, 20, 50],      # overlaps a: 10..50 covered once
        ["c", 0, 90, 120],     # sticks out of the parent: only 90..100 counts
        ["a.x", 1, 12, 18],
    ]
    assert benchtrace.self_times(spans) == [50, 14, 30, 30, 6]


def test_tail_percentile_keeps_ten_games_beyond():
    assert benchcore.tail_percentile(100) == 90
    assert benchcore.tail_percentile(99) == 75
    assert benchcore.tail_percentile(200) == 95
    assert benchcore.tail_percentile(1000) == 99
    assert benchcore.tail_percentile(20) == 50
    with pytest.raises(ValueError):
        benchcore.tail_percentile(19)
    for n in range(20, 2500, 7):
        p = benchcore.tail_percentile(n)
        values = list(range(n))
        cut = benchcore.percentile(values, p)
        assert sum(1 for v in values if v > cut) >= benchcore.TAIL_BEYOND
        higher = [q for q in benchcore.TAIL_LADDER if q > p]
        if higher:
            cut = benchcore.percentile(values, higher[0])
            assert sum(1 for v in values if v > cut) < benchcore.TAIL_BEYOND


def test_wrong_expected_game_row_is_a_failure(tiny):
    played = benchcore.seed_order(0, TINY.pool)[0]
    tiny["masters"][played][0] = [0.5, 99, "stuck"]
    res = benchcore.run_games_timed(TINY, seed=0, seconds=0.01)
    assert res["failed"] == 1
    assert json.loads(benchcore.result_line(res))["correct"] is False


def test_wrong_expected_sweep_rows_are_failures():
    w = benchcore.WORKLOADS["sweep"]
    points = [(n, r, p) for n in w.ns for r in w.rhos for p in w.policies]
    games = [dict(zip(benchcore.GAMES_CHECKED,
                      (str(n), str(r), p, str(i), "1.0", "3", "stuck")))
             for n, r, p in points for i in range(w.games)]
    summary = [dict(zip(benchcore.SUMMARY_CHECKED,
                        (str(n), str(r), p, str(w.games), "1.0", "0.0", "1.0", "0")))
               for n, r, p in points]
    want = {"games": benchcore.checked_rows(games, benchcore.GAMES_CHECKED),
            "summary": benchcore.checked_rows(summary, benchcore.SUMMARY_CHECKED)}
    tally = benchcore.SweepTally(w, {"masters": [want]})
    assert tally.check(0, games, summary, True) == 0
    want["games"][4] = want["games"][4].replace(",3,", ",4,")
    assert tally.check(0, games, summary, True) == 1
    want["summary"][2] = want["summary"][2].replace(",0.0,", ",0.5,")
    assert tally.check(0, games, summary, True) == 1 + w.games
    assert tally.check(0, games, summary, False) == w.games_per_sweep()


def test_sweep_refuses_an_outdir_that_is_not_empty(tmp_path):
    w = benchcore.WORKLOADS["sweep"]
    (tmp_path / "points").mkdir()
    with pytest.raises(RuntimeError, match="empty"):
        benchcore.sweep_pair(benchcore.sweep_config(w, 0, tmp_path))
    with pytest.raises(RuntimeError, match="empty"):
        benchcore.sweep_pair(benchcore.sweep_config(w, 0, tmp_path / "missing"))


def test_expected_files_cover_each_pool():
    for name, w in benchcore.WORKLOADS.items():
        doc = benchcore.load_expected(name)
        assert len(doc["masters"]) == w.pool
        if isinstance(w, GameWorkload):
            assert doc["cells"] == [[c.n, c.rho, c.policy, c.cores] for c in w.cells]
            assert all(len(m) == len(w.cells) for m in doc["masters"])
        else:
            assert all(len(m["games"]) == w.games_per_sweep() for m in doc["masters"])


def test_seed_order_is_a_reproducible_permutation():
    a = benchcore.seed_order(7, 50)
    assert a == benchcore.seed_order(7, 50)
    assert sorted(a) == list(range(50))
    assert a != benchcore.seed_order(8, 50)
