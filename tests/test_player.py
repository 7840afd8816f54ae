"""Game-player tests: inference passes against an exhaustive placement
oracle, full-game invariants, policies, budgets, and tracing."""
from __future__ import annotations

import pytest

from minelab.board import Board, Boundary, GameState, generate_board, parse_overlay
from minelab.cnf import build_formula, split_components
from minelab.player import (GameRecord, Inference, Outcome, Policy, Verdict,
                            consistency_check, infer_step, play_game)
from minelab.sat import solve

from conftest import forced_verdicts, load_state, random_reachable_state


class TestInferStep:
    def test_matches_exhaustive_oracle(self, rng):
        checked = 0
        for _ in range(80):
            state = random_reachable_state(rng, max_outer=12)
            if state is None or not consistency_check(state):
                continue
            oracle = forced_verdicts(state)
            got = {inf.site: inf.verdict is Verdict.MINE
                   for inf in infer_step(state)}
            assert got == oracle
            checked += 1
        assert checked >= 30

    def test_sites_in_row_major_order(self, rng):
        for _ in range(20):
            state = random_reachable_state(rng, max_outer=12)
            if state is None or not consistency_check(state):
                continue
            sites = [inf.site for inf in infer_step(state)]
            assert sites == sorted(sites)

    def test_cores_attached_and_unsat_with_pivot(self, rng):
        # Cores come from per-part solvers but name global groups and
        # pivots: each lies inside its pivot's part and is minimal on the
        # whole formula.
        checked = multi_part = 0
        for _ in range(120):
            state = random_reachable_state(rng, max_outer=12)
            if state is None or not consistency_check(state):
                continue
            formula = build_formula(state)
            parts = split_components(formula)
            multi_part += len(parts) >= 2
            part_of = {v: p for p in parts for v in p.global_vars}
            for inf in infer_step(state):
                assert inf.core is not None
                assert inf.core.size == len(inf.core.core) >= 1
                var = formula.var_sites.index(inf.site) + 1
                expected_pivot = var if inf.verdict is Verdict.SAFE else -var
                assert inf.core.pivot == expected_pivot
                core = sorted(inf.core.core)
                assert set(core) <= set(part_of[var].groups)
                assert not solve(formula, core, [inf.core.pivot]).sat
                for g in core:
                    assert solve(formula, [h for h in core if h != g],
                                 [inf.core.pivot]).sat
                checked += 1
            if checked >= 25 and multi_part >= 10:
                break
        assert checked >= 25 and multi_part >= 10

    def test_core_extraction_off_keeps_verdicts(self, rng):
        for _ in range(30):
            state = random_reachable_state(rng, max_outer=12)
            if state is None or not consistency_check(state):
                continue
            with_cores = infer_step(state, extract_cores=True)
            without = infer_step(state, extract_cores=False)
            assert ([(i.site, i.verdict) for i in with_cores]
                    == [(i.site, i.verdict) for i in without])
            assert all(i.core is None for i in without)

    def test_empty_frontier_returns_nothing(self):
        board = Board(4, Boundary.OPEN, {(0, 0)})
        assert infer_step(GameState(board)) == []

    def test_inconsistent_state_rejected(self):
        state = load_state("mine_row_swapped.state", Boundary.OPEN)
        with pytest.raises(ValueError):
            infer_step(state)

    def test_mine_row_single_mine_inference(self):
        state = load_state("mine_row.state", board_name="mine_row.board")
        inferences = infer_step(state)
        assert len(inferences) == 1
        inf = inferences[0]
        assert inf.site == (2, 2)
        assert inf.verdict is Verdict.MINE
        assert inf.core.size == 1

    def test_diagonal_wall_defeats_full_inference(self):
        state = load_state("ambiguous_pocket.state", Boundary.OPEN)
        assert infer_step(state) == []


class TestConsistencyCheck:
    def test_fixture_states(self):
        assert consistency_check(
            load_state("mine_row.state", board_name="mine_row.board"))
        assert not consistency_check(load_state("mine_row_swapped.state", Boundary.OPEN))

    def test_empty_frontier_is_consistent(self):
        board = Board(4, Boundary.OPEN, {(1, 1)})
        assert consistency_check(GameState(board))

    def test_infeasible_label_is_inconsistent(self):
        state = parse_overlay("8#\n##\n", Boundary.OPEN)
        assert not consistency_check(state)


class TestPlayGame:
    def test_zero_density_immediate_win(self):
        board = generate_board(8, 0.0, 0)
        record = play_game(board)
        assert record.outcome is Outcome.ALL_MINES_FLAGGED
        assert record.alpha == 1.0
        assert record.turns == 0
        assert record.max_core == 0

    def test_alpha_one_iff_all_flagged(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 9))
            rho = float(rng.uniform(0.05, 0.3))
            try:
                board = generate_board(n, rho, rng, max_attempts=50)
            except Exception:
                continue
            record = play_game(board, time_budget_s=30.0)
            assert 0.0 <= record.alpha <= 1.0
            assert ((record.alpha == 1.0)
                    == (record.outcome is Outcome.ALL_MINES_FLAGGED))
            assert record.turns >= 0
            assert record.wall_ms >= 0.0

    def test_record_metadata_echoed(self):
        board = generate_board(6, 0.1, 3)
        record = play_game(board, rho=0.123, seed=42)
        assert record.rho == 0.123
        assert record.seed == 42
        assert record.n == 6
        default = play_game(board)
        assert default.rho == len(board.mines) / 36
        assert default.seed is None

    def test_expired_time_budget_marks_timeout(self):
        board = generate_board(8, 0.15, 1)
        record = play_game(board, time_budget_s=0.0)
        assert record.outcome is Outcome.STUCK_TIMEOUT
        assert record.turns == 0
        assert record.alpha == 0.0

    def test_no_time_budget(self):
        board = generate_board(5, 0.1, 2)
        record = play_game(board, time_budget_s=None)
        assert record.outcome in (Outcome.ALL_MINES_FLAGGED, Outcome.STUCK)

    def test_exhausted_conflict_budget_ends_stuck(self):
        board = generate_board(7, 0.18, 5)
        full = play_game(board)
        assert full.alpha > 0.0
        tiny = play_game(board, conflict_budget=0)
        assert tiny.outcome is Outcome.STUCK_BUDGET
        assert tiny.alpha <= full.alpha

    def test_kset_policy_never_beats_sat(self):
        for seed in range(6):
            board = generate_board(7, 0.15, seed)
            sat_rec = play_game(board, "sat")
            for k in (1, 2, 3):
                kset_rec = play_game(board, f"kset:{k}")
                assert kset_rec.policy == f"kset:{k}"
                assert kset_rec.max_core is None
                assert kset_rec.alpha <= sat_rec.alpha + 1e-12

    def test_track_cores_off(self):
        board = generate_board(6, 0.12, 7)
        record = play_game(board, track_cores=False)
        assert record.max_core is None
        on = play_game(board, track_cores=True)
        assert on.alpha == record.alpha
        assert on.turns == record.turns

    def test_board_without_start_rejected(self):
        board = Board(4, Boundary.OPEN, {(0, 0)})
        with pytest.raises(ValueError):
            play_game(board)

    def test_trace_matches_turn_count(self):
        board = generate_board(7, 0.15, 11)
        traces = []
        record = play_game(board, trace_fn=lambda t, infs: traces.append(
            (t, len(infs))))
        assert [t for t, _ in traces] == list(range(1, len(traces) + 1))
        nonempty = sum(1 for _, k in traces if k > 0)
        assert record.turns == nonempty
        if record.outcome is Outcome.STUCK:
            assert traces[-1][1] == 0


class TestPolicy:
    def test_parse_and_str(self):
        assert Policy.parse("sat") == Policy("sat")
        assert Policy.parse("kset:2") == Policy("kset", 2)
        assert str(Policy.parse("kset:3")) == "kset:3"
        assert str(Policy.parse("sat")) == "sat"
        assert Policy.parse(Policy("kset", 1)) == Policy("kset", 1)

    def test_parse_errors(self):
        for bad in ("kset:0", "kset:-1", "kset:x", "dpll", ""):
            with pytest.raises(ValueError):
                Policy.parse(bad)
