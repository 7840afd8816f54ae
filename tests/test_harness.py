"""Sweep harness tests: grid construction, seed pairing, resumable storage,
canonical CSV bytes, aggregation cross-checks, and config parsing."""
from __future__ import annotations

import csv
import math
import multiprocessing
import re
import statistics
import time
from dataclasses import replace
from itertools import chain
from pathlib import Path

import pytest

import minelab.harness
from minelab.board import Boundary, generate_board
from minelab.harness import (DESK_GAMES, DESK_NS, DESK_RHOS, GAMES_COLUMNS,
                             SUMMARY_COLUMNS, SweepConfig, SweepRecord,
                             float_range, game_seed, parse_grid,
                             parse_sweep_config, record_cells, run_sweep,
                             validate_config, write_games_csv,
                             write_summary_csv)
from minelab.player import GameRecord, Outcome

from conftest import mine_sites, read_games_csv


def small_config(tmp_path, **overrides) -> SweepConfig:
    base = dict(ns=(6,), rhos=(0.1, 0.15), policies=("sat", "kset:1"),
                games=4, seed=1, outdir=tmp_path / "out")
    base.update(overrides)
    return SweepConfig(**base)


# The cells of an exhausted board's row, set over a played one.
EXHAUSTED = {"outcome": "generation_exhausted", "alpha": "", "max_core": ""}
# Edits of a stored row that no engine could have written:
# (policy, {column: cell}, record_timing).
STALE_EDITS = [
    ("sat", {"alpha": ""}, False),
    ("sat", {"alpha": "nan"}, False),
    ("sat", {"max_core": ""}, False),
    ("kset:1", {"max_core": "3"}, False),
    ("sat", {"wall_ms": "999.0"}, False),
    ("sat", {"turns": "-7"}, False),
    ("sat", {"alpha": "1.0"}, False),
    ("sat", {"outcome": "all_mines_flagged"}, False),
    ("sat", {**EXHAUSTED, "turns": "3"}, False),
    ("sat", {**EXHAUSTED, "turns": "0"}, True),     # wall_ms stays timed
]

# Edits of the first stored game, stuck with alpha 1/3 under the sat policy
# with cores on, that leave a row this config could have written; the
# second changes one byte, the last digit of alpha.
PLAUSIBLE_EDITS = [("alpha", "0.9"), ("alpha", "0.3333333333333334"),
                   ("max_core", "7"), ("turns", "9")]


def _edit_id(policy, cells, timing):
    return "-".join([policy, *chain(*cells.items())] + ["timed"] * timing)


class TestFloatRange:
    def test_exact_micro_values(self):
        got = float_range(0.025, 0.45, 0.025)
        assert got == tuple(k / 1_000_000
                            for k in range(25_000, 450_001, 25_000))
        assert len(got) == 18
        assert got[0] == 0.025 and got[-1] == 0.45

    def test_simple_range(self):
        assert float_range(0.1, 0.3, 0.1) == (0.1, 0.2, 0.3)

    def test_inclusive_stop_only_when_hit(self):
        assert float_range(0.1, 0.25, 0.1) == (0.1, 0.2)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            float_range(0.1, 0.2, 0.0)

    def test_desk_grid(self):
        rhos = DESK_RHOS
        assert len(rhos) == 18
        assert DESK_NS == (20, 40)
        assert DESK_GAMES == 50


class TestGameSeed:
    def test_same_inputs_same_board(self):
        a = generate_board(10, 0.2, game_seed(0, 0.2, 3))
        b = generate_board(10, 0.2, game_seed(0, 0.2, 3))
        assert (mine_sites(a), a.start) == (mine_sites(b), b.start)

    def test_policy_and_size_independent_by_construction(self):
        ss = game_seed(7, 0.125, 11)
        assert ss.entropy == 7
        assert ss.spawn_key == (125_000, 11)

    def test_distinct_indices_distinct_boards(self):
        boards = {mine_sites(generate_board(10, 0.2, game_seed(0, 0.2, i)))
                  for i in range(8)}
        assert len(boards) > 1


class TestCsvRoundTrip:
    def test_games_rows_round_trip(self, tmp_path):
        def game(seed, policy, alpha, max_core, turns, outcome, wall_ms):
            return GameRecord(n=6, rho=0.1, seed=seed, policy=policy,
                              alpha=alpha, max_core=max_core, turns=turns,
                              outcome=outcome, wall_ms=wall_ms)

        records = [
            game(0, "sat", 1.0, 3, 4, Outcome.ALL_MINES_FLAGGED, 0.0),
            game(1, "sat", 0.75, 0, 2, Outcome.STUCK, 12.5),
            game(2, "kset:2", 0.5, None, 1, Outcome.STUCK_TIMEOUT, 0.0),
            game(3, "sat", 0.0, None, 0, Outcome.STUCK_BUDGET, 3.25),
            game(4, "kset:2", float("nan"), None, 0,
                 Outcome.GENERATION_EXHAUSTED, 0.0),
        ]
        assert {r.outcome for r in records} == set(Outcome)
        path = write_games_csv(tmp_path / "games.csv", records)
        with open(path, newline="") as fh:
            header, *lines = csv.reader(fh)
        assert header == list(GAMES_COLUMNS)
        assert lines == [record_cells(r) for r in records]
        assert lines[4][GAMES_COLUMNS.index("alpha")] == ""
        back = [minelab.harness._parse_record(cells) for cells in lines]
        assert math.isnan(back[4].alpha)

        def nan_free(r):    # NaN never equals itself
            return replace(r, alpha=None) if math.isnan(r.alpha) else r

        assert list(map(nan_free, back)) == list(map(nan_free, records))
        rows = read_games_csv(path)
        assert rows[4]["alpha"] is None and rows[0]["alpha"] == 1.0

    def test_summary_round_trip(self, tmp_path):
        records = [SweepRecord(n=6, rho=0.1, policy="sat", games=4,
                               alpha_mean=0.5, alpha_se=0.1,
                               maxcore_mean=2.0, maxcore_se=0.5,
                               stuck_fraction=0.25, mean_wall_time=0.0,
                               generation_exhausted=0),
                   SweepRecord(n=6, rho=0.2, policy="kset:1", games=3,
                               alpha_mean=0.25, alpha_se=0.0,
                               maxcore_mean=None, maxcore_se=None,
                               stuck_fraction=1.0, mean_wall_time=0.0,
                               generation_exhausted=1)]
        path = write_summary_csv(tmp_path / "summary.csv", records)
        assert path.read_text().splitlines() == [
            ",".join(SUMMARY_COLUMNS),
            "6,0.1,sat,4,0.5,0.1,2.0,0.5,0.25,0.0,0",
            "6,0.2,kset:1,3,0.25,0.0,,,1.0,0.0,1"]


class TestRunSweep:
    def test_points_and_files(self, tmp_path):
        config = small_config(tmp_path)
        records = run_sweep(config)
        assert len(records) == 4
        assert [(r.n, r.rho, r.policy) for r in records] == sorted(
            (r.n, r.rho, r.policy) for r in records)
        for r in records:
            assert r.games == 4
            assert 0.0 <= r.alpha_mean <= 1.0
            assert r.generation_exhausted == 0
            if r.policy == "sat":
                assert r.maxcore_mean is not None
            else:
                assert r.maxcore_mean is None
        outdir = tmp_path / "out"
        assert (outdir / "games.csv").exists()
        assert (outdir / "summary.csv").exists()
        assert len(list((outdir / "points").glob("*.csv"))) == 4
        header = (outdir / "games.csv").read_text().splitlines()[0]
        assert header == ",".join(GAMES_COLUMNS)
        assert (outdir / "summary.csv").read_text().splitlines()[0] == \
            ",".join(SUMMARY_COLUMNS)

    def test_seed_pairing_across_policies(self, tmp_path):
        run_sweep(small_config(tmp_path))
        rows = read_games_csv(tmp_path / "out" / "games.csv")
        by_policy = {}
        for row in rows:
            by_policy.setdefault(row["policy"], set()).add(
                (row["rho"], row["seed"]))
        assert by_policy["sat"] == by_policy["kset:1"]
        # Paired boards: the k-set policy can never flag more mines.
        sat_alpha = {(r["rho"], r["seed"]): r["alpha"] for r in rows
                     if r["policy"] == "sat"}
        for row in rows:
            if row["policy"] == "kset:1":
                key = (row["rho"], row["seed"])
                assert row["alpha"] <= sat_alpha[key] + 1e-12

    def test_rerun_is_byte_identical(self, tmp_path):
        config = small_config(tmp_path)
        run_sweep(config)
        games = (tmp_path / "out" / "games.csv").read_bytes()
        summary = (tmp_path / "out" / "summary.csv").read_bytes()
        run_sweep(config)
        assert (tmp_path / "out" / "games.csv").read_bytes() == games
        assert (tmp_path / "out" / "summary.csv").read_bytes() == summary

    def test_resume_replays_only_missing_points(self, tmp_path):
        config = small_config(tmp_path)
        run_sweep(config)
        games = (tmp_path / "out" / "games.csv").read_bytes()
        points = sorted((tmp_path / "out" / "points").glob("*.csv"))
        points[0].unlink()
        kept_stat = points[1].stat().st_mtime_ns
        run_sweep(config)
        assert (tmp_path / "out" / "games.csv").read_bytes() == games
        assert points[1].stat().st_mtime_ns == kept_stat
        assert points[0].exists()

    def test_stale_token_forces_replay(self, tmp_path):
        config = small_config(tmp_path, rhos=(0.1,), policies=("sat",))
        run_sweep(config)
        point = next((tmp_path / "out" / "points").glob("*.csv"))
        before = point.stat().st_mtime_ns
        run_sweep(small_config(tmp_path, rhos=(0.1,), policies=("sat",),
                               seed=2))
        assert point.stat().st_mtime_ns != before
        rows = read_games_csv(tmp_path / "out" / "games.csv")
        assert len(rows) == 4

    def test_other_engine_forces_replay(self, tmp_path, monkeypatch):
        # The engine field hashes minelab's source, read once per sweep; a
        # point stored by other code is replayed, as a clean run plays it.
        config = small_config(tmp_path)
        run_sweep(replace(config, outdir=tmp_path / "clean"))
        clean = tmp_path / "clean"
        reads = []
        engine_id = minelab.harness._engine_id
        monkeypatch.setattr(minelab.harness, "_engine_id",
                            lambda: reads.append(1) or engine_id())
        run_sweep(config)
        assert len(reads) == 1
        stale, kept = sorted((tmp_path / "out" / "points").glob("*.csv"))[:2]
        header, rows = stale.read_text().split("\n", 1)
        head, engine = header.rsplit(" engine=", 1)
        assert re.fullmatch("[0-9a-f]{16}", engine)
        stale.write_text(f"{head} engine={'0' * 16}\n{rows}")
        kept_stat = kept.stat().st_mtime_ns
        run_sweep(config)
        assert stale.read_bytes() == (clean / "points" / stale.name).read_bytes()
        assert kept.stat().st_mtime_ns == kept_stat
        for name in ("games.csv", "summary.csv"):
            assert ((tmp_path / "out" / name).read_bytes()
                    == (clean / name).read_bytes()), name

    def test_engine_id_follows_the_source(self, tmp_path, monkeypatch):
        src = Path(minelab.harness.__file__).parent
        for path in src.glob("*.py"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        engine_id = minelab.harness._engine_id()
        monkeypatch.setattr(minelab.harness, "__file__",
                            str(tmp_path / "harness.py"))
        assert minelab.harness._engine_id() == engine_id
        with open(tmp_path / "board.py", "a") as fh:
            fh.write("\n")
        assert minelab.harness._engine_id() != engine_id

    def test_outdir_required_before_any_game(self, tmp_path, monkeypatch):
        def no_game(*args, **kwargs):
            raise AssertionError("a game was played")

        monkeypatch.setattr(minelab.harness, "play_seeded_game", no_game)
        config = small_config(tmp_path, outdir=None)
        for check in (validate_config, run_sweep):
            with pytest.raises(ValueError, match="outdir"):
                check(config)

    def test_workers_do_not_change_bytes(self, tmp_path):
        serial = small_config(tmp_path, outdir=tmp_path / "serial",
                              rhos=(0.1,), games=3)
        run_sweep(serial)
        pooled = small_config(tmp_path, outdir=tmp_path / "pooled",
                              rhos=(0.1,), games=3, workers=2)
        run_sweep(pooled)
        assert ((tmp_path / "serial" / "games.csv").read_bytes()
                == (tmp_path / "pooled" / "games.csv").read_bytes())

    def test_pooled_and_serial_match_across_points(self, tmp_path):
        grid = dict(ns=(6, 7), rhos=(0.1, 0.15, 0.2), games=3)
        run_sweep(small_config(tmp_path, outdir=tmp_path / "clean", **grid))
        clean = tmp_path / "clean"
        stored = sorted((clean / "points").glob("*.csv"))
        assert len(stored) == 12
        for workers in (1, 2):
            outdir = tmp_path / f"w{workers}"
            (outdir / "points").mkdir(parents=True)
            valid, malformed = stored[5], stored[8]
            (outdir / "points" / valid.name).write_bytes(valid.read_bytes())
            (outdir / "points" / malformed.name).write_bytes(
                _cut_last_row(malformed.read_bytes()))
            kept = (outdir / "points" / valid.name).stat().st_mtime_ns
            run_sweep(small_config(tmp_path, outdir=outdir, workers=workers,
                                   **grid))
            for name in ("games.csv", "summary.csv"):
                assert ((outdir / name).read_bytes()
                        == (clean / name).read_bytes()), (workers, name)
            assert (outdir / "points" / valid.name).stat().st_mtime_ns == kept
            assert ((outdir / "points" / malformed.name).read_bytes()
                    == malformed.read_bytes())

    @pytest.mark.parametrize("damage", ["cut_row", "other_point"])
    def test_malformed_point_replayed(self, tmp_path, damage):
        config = small_config(tmp_path, rhos=(0.1, 0.15), policies=("sat",))
        run_sweep(replace(config, outdir=tmp_path / "clean"))
        clean = tmp_path / "clean"
        first, second = sorted((clean / "points").glob("*.csv"))
        damaged = tmp_path / "out" / "points" / first.name
        damaged.parent.mkdir(parents=True)
        if damage == "cut_row":
            damaged.write_bytes(_cut_last_row(first.read_bytes()))
        else:   # the other point's rows, under the same token
            damaged.write_bytes(second.read_bytes())
        run_sweep(config)
        assert damaged.read_bytes() == first.read_bytes()
        assert ((tmp_path / "out" / "games.csv").read_bytes()
                == (clean / "games.csv").read_bytes())

    @pytest.mark.parametrize("policy, cells, timing", STALE_EDITS,
                             ids=[_edit_id(*e) for e in STALE_EDITS])
    def test_row_config_could_not_write_replayed(self, tmp_path, policy,
                                                 cells, timing):
        # The first stored game is stuck with alpha 1/3. alpha is blank only
        # for an exhausted board, and in [0, 1] otherwise, 1 exactly when
        # all mines were flagged; turns is never negative, and 0 for an
        # exhausted board; max_core is blank exactly when the point tracks
        # no cores; wall_ms is 0.0 when timing is off or the board was
        # exhausted.
        config = small_config(tmp_path, rhos=(0.1,), policies=(policy,),
                              games=2, record_timing=timing)
        run_sweep(replace(config, outdir=tmp_path / "clean"))
        clean = tmp_path / "clean"
        (stored,) = (clean / "points").glob("*.csv")
        assert read_games_csv(clean / "games.csv")[0]["outcome"] == "stuck"
        damaged = tmp_path / "out" / "points" / stored.name
        damaged.parent.mkdir(parents=True)
        data = stored.read_bytes()
        for column, cell in cells.items():
            data = _set_cell(data, column, cell)
        damaged.write_bytes(data)
        assert damaged.read_bytes() != stored.read_bytes()
        run_sweep(config)
        if timing:      # the replay times its games anew
            def untimed(path):
                return [{**r, "wall_ms": None} for r in read_games_csv(path)]

            assert (untimed(tmp_path / "out" / "games.csv")
                    == untimed(clean / "games.csv"))
            return
        assert damaged.read_bytes() == stored.read_bytes()
        for name in ("games.csv", "summary.csv"):
            assert ((tmp_path / "out" / name).read_bytes()
                    == (clean / name).read_bytes()), name

    @pytest.mark.parametrize("column, cell", PLAUSIBLE_EDITS)
    def test_plausible_row_edit_replayed(self, tmp_path, column, cell):
        # The digest, not the row's values, tells an edited point file.
        _assert_damage_replayed(
            tmp_path, lambda data: _set_cell(data, column, cell))

    def test_changed_digest_replayed(self, tmp_path):
        def change(data):   # the digest's first hex digit
            at = len(b"# sha256=")
            return data[:at] + (b"1" if data[at:at + 1] == b"0" else b"0") \
                + data[at + 1:]

        _assert_damage_replayed(tmp_path, change)

    def test_raising_game_stops_pooled_sweep(self, tmp_path, monkeypatch):
        play = minelab.harness.play_game
        finished = tmp_path / "finished"
        finished.mkdir()

        def play_or_raise(board, *args, rho, seed, **kwargs):
            if rho == 0.1:
                raise RuntimeError("game failed at rho=0.1")
            if rho > 0.1:   # queued behind the failure; slow to finish
                time.sleep(1.0)
            rec = play(board, *args, rho=rho, seed=seed, **kwargs)
            (finished / f"{rho}-{seed}").touch()
            return rec

        # The fork pool's workers inherit the patched module.
        monkeypatch.setattr(minelab.harness, "play_game", play_or_raise)
        config = small_config(tmp_path, rhos=(0.05, 0.1, 0.15, 0.2),
                              policies=("kset:1",), games=3, workers=2)
        with pytest.raises(RuntimeError, match="rho=0.1"):
            run_sweep(config)
        points = tmp_path / "out" / "points"
        assert [p.name for p in points.glob("*.csv")] == [
            "point_n6_r50000_kset-1.csv"]
        assert multiprocessing.active_children() == []
        later = [p.name for p in finished.iterdir()
                 if not p.name.startswith("0.05-")]
        assert len(later) < 6, "the pool played out its queue"

    def test_pool_no_larger_than_games_left(self, tmp_path, monkeypatch):
        config = small_config(tmp_path, rhos=(0.1,), policies=("sat",),
                              games=2)
        run_sweep(replace(config, outdir=tmp_path / "serial"))
        fork = multiprocessing.get_context("fork")
        sizes = []

        class RecordingContext:
            def Pool(self, processes):
                sizes.append(processes)
                return fork.Pool(processes)

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: RecordingContext())
        run_sweep(replace(config, workers=4))
        assert sizes == [2]
        assert ((tmp_path / "out" / "games.csv").read_bytes()
                == (tmp_path / "serial" / "games.csv").read_bytes())

    def test_workers_environment_variable_ignored(self, tmp_path,
                                                  monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a sweep with workers=1 forked a pool")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        monkeypatch.setenv("MINELAB_WORKERS", "2")
        (record,) = run_sweep(small_config(tmp_path, rhos=(0.1,),
                                           policies=("sat",), games=2))
        assert record.games == 2

    def test_time_budget_off_by_default(self, tmp_path, hour_clock):
        run_sweep(small_config(tmp_path, rhos=(0.15,), games=2))
        rows = read_games_csv(tmp_path / "out" / "games.csv")
        assert "stuck_timeout" not in {r["outcome"] for r in rows}
        assert all(r["turns"] > 0 for r in rows)

    def test_resume_of_complete_outdir_never_forks(self, tmp_path,
                                                  monkeypatch):
        config = small_config(tmp_path, rhos=(0.1,), games=3)
        run_sweep(config)
        games = (tmp_path / "out" / "games.csv").read_bytes()

        def no_pool(*args, **kwargs):
            raise AssertionError("a fully cached sweep forked a pool")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        run_sweep(replace(config, workers=2))
        assert (tmp_path / "out" / "games.csv").read_bytes() == games

    def test_summary_matches_independent_aggregation(self, tmp_path):
        config = small_config(tmp_path, time_budget_s=10.0)
        records = run_sweep(config)
        rows = read_games_csv(tmp_path / "out" / "games.csv")
        for rec in records:
            mine = [r for r in rows if (r["n"], r["rho"], r["policy"])
                    == (rec.n, rec.rho, rec.policy)
                    and r["outcome"] != "generation_exhausted"]
            alphas = [r["alpha"] for r in mine]
            assert rec.games == len(mine)
            assert abs(rec.alpha_mean - statistics.fmean(alphas)) < 1e-12
            if len(alphas) > 1:
                se = statistics.stdev(alphas) / math.sqrt(len(alphas))
                assert abs(rec.alpha_se - se) < 1e-12
            stuck = sum(1 for r in mine
                        if r["outcome"] in ("stuck", "stuck_timeout",
                                            "stuck_budget"))
            assert abs(rec.stuck_fraction - stuck / len(mine)) < 1e-12
            cores = [r["max_core"] for r in mine
                     if r["max_core"] is not None]
            if cores:
                assert abs(rec.maxcore_mean
                           - statistics.fmean(cores)) < 1e-12

    def test_expired_budget_rows_marked(self, tmp_path):
        # A budget must be positive; a nanosecond has run out by the first
        # pass, since the start reveal alone takes longer.
        config = small_config(tmp_path, rhos=(0.2,), policies=("sat",),
                              games=2, time_budget_s=1e-9)
        (record,) = run_sweep(config)
        assert record.stuck_fraction == 1.0
        rows = read_games_csv(tmp_path / "out" / "games.csv")
        assert all(r["outcome"] == "stuck_timeout" for r in rows)
        assert all(r["alpha"] == 0.0 for r in rows)

    def test_exhausted_conflict_budget_rows_marked(self, tmp_path):
        config = small_config(tmp_path, rhos=(0.2,), policies=("sat",),
                              conflict_budget=0)
        (record,) = run_sweep(config)
        rows = read_games_csv(tmp_path / "out" / "games.csv")
        outcomes = [r["outcome"] for r in rows]
        assert "stuck_budget" in outcomes
        assert set(outcomes) <= {"stuck", "stuck_budget", "all_mines_flagged"}
        stuck = sum(1 for o in outcomes if o != "all_mines_flagged")
        assert record.stuck_fraction == stuck / len(rows)

    def test_exhausted_conflict_budget_rows_marked_with_cores_off(
            self, tmp_path):
        # The counting search of cores-off passes counts its conflicts
        # against the same budget.
        config = small_config(tmp_path, ns=(12,), rhos=(0.2,),
                              policies=("sat",), track_cores=False,
                              conflict_budget=0)
        run_sweep(config)
        rows = read_games_csv(tmp_path / "out" / "games.csv")
        outcomes = [r["outcome"] for r in rows]
        assert "stuck_budget" in outcomes
        assert all(r["max_core"] is None for r in rows)

    def test_impossible_generation_reported(self, tmp_path):
        # 9 mines on a 4x4 torus leave no mine-free 3x3 block, so board
        # generation must give up on every game.
        config = small_config(tmp_path, ns=(4,), rhos=(0.5625,),
                              policies=("sat",), games=2)
        (record,) = run_sweep(config)
        assert record.games == 0
        assert record.generation_exhausted == 2
        assert math.isnan(record.alpha_mean)
        rows = read_games_csv(tmp_path / "out" / "games.csv")
        assert all(r["outcome"] == "generation_exhausted" for r in rows)
        assert all(r["alpha"] is None for r in rows)
        # The exhausted rows are ones this config writes: a rerun keeps them.
        (point,) = (tmp_path / "out" / "points").glob("*.csv")
        kept = point.stat().st_mtime_ns
        run_sweep(config)
        assert point.stat().st_mtime_ns == kept

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(small_config(tmp_path, ns=()))
        with pytest.raises(ValueError):
            run_sweep(small_config(tmp_path, rhos=(1.0,)))
        with pytest.raises(ValueError):
            run_sweep(small_config(tmp_path, games=0))
        with pytest.raises(ValueError):
            run_sweep(small_config(tmp_path, policies=("magic",)))
        with pytest.raises(ValueError, match="policies must be nonempty"):
            run_sweep(small_config(tmp_path, policies=()))
        with pytest.raises(ValueError, match="n >= 3"):
            run_sweep(small_config(tmp_path, ns=(5, 2)))
        for budget in (-2.0, 0.0, float("nan")):
            with pytest.raises(ValueError, match="time budget"):
                run_sweep(small_config(tmp_path, time_budget_s=budget))
        with pytest.raises(ValueError, match="conflict budget"):
            run_sweep(small_config(tmp_path, conflict_budget=-3))
        assert not (tmp_path / "out").exists()   # before any game

    @pytest.mark.parametrize("overrides, message", [
        (dict(ns=(8, 6, 8)), "n lists 8 and 8"),
        # One rho_key, so one point file and one seed stream.
        (dict(rhos=(0.1, 0.1000000001)), "rho lists 0.1 and 0.1000000001"),
        (dict(policies=("kset:1", "sat", "kset:01")),
         "policies lists 'kset:1' and 'kset:01'"),
    ])
    def test_repeated_grid_points_rejected(self, tmp_path, overrides,
                                           message):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_sweep(small_config(tmp_path, **overrides))
        assert not (tmp_path / "out").exists()

    def test_distinct_grid_points_accepted(self, tmp_path):
        validate_config(small_config(tmp_path, ns=(6, 8),
                                     rhos=(0.1, 0.100001),
                                     policies=("kset:1", "kset:2", "sat")))


def _assert_damage_replayed(tmp_path, damage) -> None:
    """A sat point of two games, stored with damage(bytes) over its file,
    is replayed: the file and both CSVs come out as a clean run's."""
    config = small_config(tmp_path, rhos=(0.1,), policies=("sat",), games=2)
    run_sweep(replace(config, outdir=tmp_path / "clean"))
    clean = tmp_path / "clean"
    (stored,) = (clean / "points").glob("*.csv")
    first = read_games_csv(clean / "games.csv")[0]
    assert (first["outcome"], first["alpha"]) == ("stuck", 1 / 3)
    damaged = tmp_path / "out" / "points" / stored.name
    damaged.parent.mkdir(parents=True)
    damaged.write_bytes(damage(stored.read_bytes()))
    assert damaged.read_bytes() != stored.read_bytes()
    run_sweep(config)
    assert damaged.read_bytes() == stored.read_bytes()
    for name in ("games.csv", "summary.csv"):
        assert ((tmp_path / "out" / name).read_bytes()
                == (clean / name).read_bytes()), name


def _cut_last_row(data: bytes) -> bytes:
    """A point file whose last row keeps only its n and rho cells."""
    lines = data.decode().splitlines(keepends=True)
    lines[-1] = ",".join(lines[-1].split(",")[:2]) + "\n"
    return "".join(lines).encode()


def _set_cell(data: bytes, column: str, cell: str) -> bytes:
    """A point file whose first row has cell in the named column."""
    lines = data.decode().splitlines(keepends=True)
    row = lines[2].rstrip("\r\n")
    cells = row.split(",")
    cells[GAMES_COLUMNS.index(column)] = cell
    lines[2] = ",".join(cells) + lines[2][len(row):]
    return "".join(lines).encode()


class TestParseSweepConfig:
    def test_full_configuration(self, tmp_path):
        text = """
        # experiment grid
        n = 10,20
        rho = 0.05:0.15:0.05, 0.3
        policies = sat, kset:2
        games = 7
        seed = 99
        boundary = open
        outdir = {out}
        track_cores = false
        time_budget_s = none
        conflict_budget = 5000
        record_timing = true
        workers = 3
        """.format(out=tmp_path / "exp")
        config = parse_sweep_config(text)
        assert config.ns == (10, 20)
        assert config.rhos == (0.05, 0.1, 0.15, 0.3)
        assert config.policies == ("sat", "kset:2")
        assert config.games == 7
        assert config.seed == 99
        assert config.boundary is Boundary.OPEN
        assert config.outdir == tmp_path / "exp"
        assert config.track_cores is False
        assert config.time_budget_s is None
        assert config.conflict_budget == 5000
        assert config.record_timing is True
        assert config.workers == 3

    def test_committed_configs_are_valid(self):
        # Every probe in configs/ parses, is playable, and writes under
        # runs/, which the repository ignores.
        paths = sorted((Path(__file__).parent.parent / "configs").glob("*"))
        assert len(paths) >= 2
        for path in paths:
            config = parse_sweep_config(path.read_text())
            validate_config(config)
            assert config.outdir.parts[0] == "runs", path.name

    def test_defaults_preserved(self):
        config = parse_sweep_config("games = 3\n")
        assert config.games == 3
        assert config.ns == DESK_NS
        assert config.rhos == DESK_RHOS
        assert config.boundary is Boundary.TORUS

    def test_error_lines_reported(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_sweep_config("games = 3\nnonsense\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_sweep_config("cadence = 3\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_sweep_config("\n\ntrack_cores = maybe\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_sweep_config("n = 5\ngames = x\n")
        with pytest.raises(ValueError,
                           match="line 3: games is already set on line 1"):
            parse_sweep_config("games = 5\nn = 6\n games=7 # again\n")
        for rho in ("0.1:inf:0.1", "0.1:0.3:inf", "nan:0.3:0.1"):
            with pytest.raises(ValueError,
                               match="line 2: range bounds and step must "
                                     "be finite"):
                parse_sweep_config(f"n = 5\nrho = {rho}\n")

    @pytest.mark.parametrize("text, message", [
        *(pytest.param(text, f"bad range '{text}', expected start:stop:step",
                       id=text) for text in ("0.1:0.2", "0.1:0.2:0.05:1", ":")),
        pytest.param("0.7:0.5:0.1", "empty range '0.7:0.5:0.1'",
                     id="0.7:0.5:0.1")])
    def test_malformed_range_named(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_grid(f"0.05, {text}")
        with pytest.raises(ValueError, match=re.escape("line 2: " + message)):
            parse_sweep_config(f"n = 5\nrho = {text}\n")
