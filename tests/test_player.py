"""Game-player tests: inference passes against an exhaustive placement
oracle and against the pass that queries every unwitnessed literal, the
cores-off pass's counting propagation against unit propagation on the
formula, its counting search against truth tables, its quiet-part memory
against passes played without it, pinned digests of pass output, full-game
invariants and soundness checks (also under python -O), policies,
budgets, and tracing."""
from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from minelab.board import (COVERED, Board, Boundary, GameState,
                           GenerationExhausted, flag, frontiers,
                           generate_board, reveal)
import minelab.player
from minelab.cnf import InfeasibleLabel
from minelab.gmus import extract_gmus
from minelab.player import (Inference, Outcome, Policy, Verdict, _backbone,
                            _Rows, _settle, infer_step, play_game)
from minelab.sat import Solver

from conftest import (budget_board, consistency_check, dihedral_board,
                      dihedral_site, forced_verdicts, formula_parts,
                      inference_pivot, load_state, mine_sites, parse_overlay,
                      random_reachable_state, solve, state_formula)


def reference_infer_step(state: GameState, *,
                         extract_cores: bool = True) -> list:
    """infer_step from the SAT reduction alone, on the whole frontier
    formula (state_formula), without counting propagation, counting search
    or quiet parts.

    Verdicts come from one selector solver: per part, every literal that
    no witness rules out is asked. With cores, a second solver over the
    same formula, built only when some site was inferred, asks every
    pivot with all groups active, in ascending site order, and then
    extracts each core, in the same order, from its pivot query's core."""
    formula = state_formula(state)
    if not formula.groups:
        return []
    solver = Solver(formula)
    seen_true = bytearray(formula.num_vars + 1)
    seen_false = bytearray(formula.num_vars + 1)

    def witness(model):
        for v, value in model.items():
            (seen_true if value else seen_false)[v] = 1

    found = []
    for groups, part_vars in formula_parts(formula):
        base = solver.solve(groups)
        assert base.sat
        witness(base.model)
        for v in part_vars:
            for lit, seen, verdict in ((v, seen_true, Verdict.SAFE),
                                       (-v, seen_false, Verdict.MINE)):
                if seen[v]:
                    continue
                res = solver.solve(groups, [lit])
                if res.sat:
                    witness(res.model)
                    continue
                found.append((v, verdict))
                break
    found.sort()
    cores = [None] * len(found)
    if extract_cores and found:
        solver = Solver(formula)
        pivots = [v if verdict is Verdict.SAFE else -v for v, verdict in found]
        pivot_cores = []
        for pivot in pivots:
            res = solver.solve(solver.group_ids, [pivot])
            assert not res.sat
            pivot_cores.append(res.core)
        cores = [extract_gmus(solver, pivot, initial_core=core)
                 for pivot, core in zip(pivots, pivot_cores)]
    outer = frontiers(state).outer
    return [Inference(outer[v - 1], verdict, core)
            for (v, verdict), core in zip(found, cores)]


def unit_facts(formula) -> dict:
    """Unit propagation on every clause of formula to a fixpoint, from no
    assignment: variable -> the value it is forced to."""
    clauses = [c for group in formula.groups.values() for c in group]
    occurs = {}
    for c in clauses:
        for lit in c:
            occurs.setdefault(abs(lit), []).append(c)
    facts = {}
    pending = list(clauses)
    while pending:
        c = pending.pop()
        if any(facts.get(abs(lit)) == (lit > 0) for lit in c):
            continue
        free = [lit for lit in c if abs(lit) not in facts]
        assert free, "unit propagation met a conflict"
        if len(free) == 1:
            facts[abs(free[0])] = free[0] > 0
            pending.extend(occurs[abs(free[0])])
    return facts


def system_backbone(supports, labels, columns):
    """The values every 0/1 solution of the exact-count rows gives a column
    of some row, by truth table, or None when the rows have no solution."""
    used = sorted({j for support in supports for j in support})
    models = [bits for bits in itertools.product((0, 1), repeat=columns)
              if all(sum(bits[j] for j in support) == e
                     for support, e in zip(supports, labels))]
    if not models:
        return None
    return [(j, models[0][j]) for j in used
            if len({bits[j] for bits in models}) == 1]


def random_row_system(rng: random.Random):
    """Random exact-count rows over at most 8 columns, each label within
    [0, support size]."""
    columns = rng.randint(1, 8)
    supports = [sorted(rng.sample(range(columns),
                                  rng.randint(1, min(4, columns))))
                for _ in range(rng.randint(1, 6))]
    labels = [rng.randint(0, len(s)) for s in supports]
    return supports, labels, columns


def pass_states(board: Board):
    """The state before every sat pass of a game on board, each pass applied
    as play_game applies it (flags first, then reveals)."""
    state = GameState(board)
    reveal(state, board.start)
    while True:
        yield state
        inferences = infer_step(state, extract_cores=False)
        if not inferences:
            return
        for inf in inferences:
            if inf.verdict is Verdict.MINE:
                flag(state, inf.site)
        for inf in inferences:
            if (inf.verdict is Verdict.SAFE
                    and int(state.status[inf.site]) == COVERED):
                reveal(state, inf.site)


def seeded_boards(count: int):
    """Boards of n = 8..20 near the hardness peak, seeded by index; boards
    that cannot be generated are skipped."""
    for i in range(count):
        try:
            yield generate_board(8 + i % 13, (0.14, 0.18, 0.22, 0.25)[i % 4],
                                 i)
        except GenerationExhausted:
            continue


def pass_output(inferences) -> list:
    """Sites, verdicts and sorted core groups of a pass."""
    return [(inf.site, inf.verdict.value,
             sorted(inf.core.core) if inf.core is not None else None)
            for inf in inferences]


def check_quiet_part_memory(extract_cores: bool) -> None:
    """Each pass with the memory of the last pass's quiet parts gives the
    inferences, whole cores included, of the same pass played without
    it."""
    games = reused = 0
    for board in seeded_boards(24):
        quiet = set()
        for state in pass_states(board):
            last = set(quiet)
            got = infer_step(state, extract_cores=extract_cores, quiet=quiet)
            assert got == infer_step(state, extract_cores=extract_cores)
            reused += len(last & quiet)
        games += 1
    assert games >= 20 and reused >= 20


def pass_digest(extract_cores: bool, quiet: bool) -> str:
    """sha256 of the output of every pass of games on 40 seeded boards,
    each game's passes sharing one quiet-part memory when quiet is set."""
    digest = hashlib.sha256()
    boards = 0
    for i, board in enumerate(seeded_boards(40)):
        boards += 1
        memory = set() if quiet else None
        for turn, state in enumerate(pass_states(board)):
            out = pass_output(infer_step(state, extract_cores=extract_cores,
                                         quiet=memory))
            digest.update(f"{i} {turn} {out}\n".encode())
    assert boards >= 35
    return digest.hexdigest()


class TestInferStep:
    def test_matches_exhaustive_oracle(self, rng):
        checked = 0
        for _ in range(80):
            state = random_reachable_state(rng, max_outer=12)
            if state is None or not consistency_check(state):
                continue
            oracle = forced_verdicts(state)
            for extract_cores in (True, False):
                got = {inf.site: inf.verdict is Verdict.MINE
                       for inf in infer_step(state,
                                             extract_cores=extract_cores)}
                assert got == oracle, extract_cores
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
        # Each core lies inside its pivot's part and is minimal on the
        # whole formula.
        checked = multi_part = 0
        for _ in range(120):
            state = random_reachable_state(rng, max_outer=12)
            if state is None or not consistency_check(state):
                continue
            formula = state_formula(state)
            outer = frontiers(state).outer
            parts = formula_parts(formula)
            multi_part += len(parts) >= 2
            part_of = {v: groups for groups, vs in parts for v in vs}
            for inf in infer_step(state):
                assert inf.core is not None
                assert inf.core.size == len(inf.core.core) >= 1
                pivot = inference_pivot(outer, inf)
                core = sorted(inf.core.core)
                assert set(core) <= set(part_of[abs(pivot)])
                assert not solve(formula, core, [pivot]).sat
                for g in core:
                    assert solve(formula, [h for h in core if h != g],
                                 [pivot]).sat
                checked += 1
            if checked >= 25 and multi_part >= 10:
                break
        assert checked >= 25 and multi_part >= 10

    def test_one_solver_per_pass(self, monkeypatch):
        # One solver for a pass with an inference whose core has two groups
        # or more. None for a pass without one, even with undecided rows
        # left: a one-group core on a frontier formula is a group that
        # refutes its pivot by counting, so a pass of such inferences only
        # asks no query.
        built = []

        class CountingSolver(Solver):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(minelab.player, "Solver", CountingSolver)
        queried = singles = stuck = 0
        for board in seeded_boards(24):
            for state in pass_states(board):
                del built[:]
                got = infer_step(state)
                query = any(inf.core.size > 1 for inf in got)
                assert len(built) == (1 if query else 0)
                queried += query
                singles += bool(got) and not query
                stuck += not got and bool(_settle(frontiers(state))[1])
        assert queried >= 50 and singles >= 5 and stuck >= 5

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

    def test_wrong_verdict_fails_its_pivot_query(self, monkeypatch):
        # With cores on, every counting verdict is confirmed by an
        # unsatisfiable pivot query before any core is extracted: a
        # backbone that sets a site it did not force is caught there.
        backbone = minelab.player._backbone
        extracted = []

        def wrong(rows, cols, budget):
            backbone(rows, cols, budget)
            free = [j for j in cols if rows.value[j] < 0]
            rows.value[free[0]] = 1
            return True

        monkeypatch.setattr(minelab.player, "_backbone", wrong)
        monkeypatch.setattr(minelab.player, "extract_gmus",
                            lambda *args, **kwargs: extracted.append(args))
        state = load_state("ambiguous_pocket.state", Boundary.OPEN)
        with pytest.raises(ValueError, match="satisfiable"):
            infer_step(state)
        assert not extracted
        assert infer_step(state, extract_cores=False)

    def test_matches_the_pass_that_queries_every_literal(self, monkeypatch):
        # Same inferences, order and cores. With cores on, a pass asks its
        # one solver the queries that the reference asks of its core
        # solver, the pivot queries and the extractions, but for the pivot
        # query of each inference whose core is one group: that group
        # refutes the pivot by counting, and the pass builds no solver when
        # every core is such a group. With cores off, counting propagation
        # and the counting search leave no solver query at all.
        solve = Solver.solve

        def counted(infer, state, cores):
            calls = {}

            def solve_counted(solver, *args):
                calls[solver] = calls.get(solver, 0) + 1
                return solve(solver, *args)

            monkeypatch.setattr(Solver, "solve", solve_counted)
            try:
                return infer(state, extract_cores=cores), list(calls.values())
            finally:
                monkeypatch.setattr(Solver, "solve", solve)

        passes = with_cores = skipped = 0
        cores_off = {infer_step: 0, reference_infer_step: 0}
        for board in seeded_boards(24):
            for state in pass_states(board):
                for cores in (True, False):
                    got, got_calls = counted(infer_step, state, cores)
                    want, want_calls = counted(reference_infer_step, state,
                                               cores)
                    assert pass_output(got) == pass_output(want)
                    assert [i.core for i in got] == [i.core for i in want]
                    if cores:
                        # The reference's first solver decides verdicts.
                        singles = sum(i.core.size == 1 for i in got)
                        assert len(got_calls) == (len(got) > singles)
                        assert (sum(got_calls)
                                == sum(want_calls[1:]) - singles)
                        with_cores += len(got) > singles
                        skipped += singles
                    else:
                        cores_off[infer_step] += sum(got_calls)
                        cores_off[reference_infer_step] += sum(want_calls)
                passes += 1
        assert passes >= 100 and with_cores >= 50 and skipped >= 100
        assert cores_off[infer_step] == 0 < cores_off[reference_infer_step]

    def test_quiet_part_memory_keeps_every_pass_with_cores(self):
        # Cores come from the whole frontier formula, whichever parts the
        # search skipped.
        check_quiet_part_memory(extract_cores=True)

    def test_empty_frontier_returns_nothing(self):
        board = Board(4, Boundary.OPEN, {(0, 0)})
        assert infer_step(GameState(board)) == []

    def test_inconsistent_state_rejected(self):
        state = load_state("mine_row_swapped.state", Boundary.OPEN)
        for extract_cores in (True, False):
            with pytest.raises(ValueError):
                infer_step(state, extract_cores=extract_cores)

    def test_infeasible_label_raises_in_both_modes(self):
        # A label above its support size is rejected before any
        # propagation or query, with the encoder's exception.
        state = parse_overlay("8#\n##\n", Boundary.OPEN)
        for extract_cores in (True, False):
            with pytest.raises(InfeasibleLabel):
                infer_step(state, extract_cores=extract_cores)

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


class TestCoresOffPass:
    def test_settled_columns_are_the_level0_facts(self):
        # Counting propagation is unit propagation on the binomial
        # encoding: it settles exactly what unit propagation on the whole
        # frontier formula forces.
        passes = settled = 0
        for board in seeded_boards(24):
            for state in pass_states(board):
                value = _settle(frontiers(state))[0].value
                facts = {v - 1: b
                         for v, b in unit_facts(state_formula(state)).items()}
                assert {j: b == 1 for j, b in enumerate(value)
                        if b >= 0} == facts
                passes += 1
                settled += len(facts)
        assert passes >= 100 and settled >= 1000

    def test_settled_and_residual_verdicts_match_the_reference(self):
        passes = from_residual = 0
        for board in seeded_boards(24):
            for state in pass_states(board):
                fr = frontiers(state)
                value = _settle(fr)[0].value
                settled = {fr.outer[j]: (Verdict.MINE if b else Verdict.SAFE)
                           for j, b in enumerate(value) if b >= 0}
                got = infer_step(state, extract_cores=False)
                want = reference_infer_step(state, extract_cores=False)
                assert pass_output(got) == pass_output(want)
                verdicts = {inf.site: inf.verdict for inf in got}
                assert settled.items() <= verdicts.items()
                from_residual += len(verdicts) - len(settled)
                passes += 1
        assert passes >= 100 and from_residual >= 50

    @pytest.mark.parametrize("n, rho, count", [(40, 0.2, 3), (40, 0.25, 3)])
    def test_large_board_passes_match_the_reference(self, n, rho, count):
        # Parts on larger boards are longer than the n <= 20 ones above.
        passes = from_residual = 0
        for seed in range(count):
            for state in pass_states(generate_board(n, rho, seed)):
                got = infer_step(state, extract_cores=False)
                want = reference_infer_step(state, extract_cores=False)
                assert pass_output(got) == pass_output(want)
                settled = sum(b >= 0 for b in _settle(frontiers(state))[0].value)
                from_residual += len(got) - settled
                passes += 1
        assert passes >= 20 and from_residual >= 20

    def test_quiet_part_memory_keeps_every_pass(self):
        check_quiet_part_memory(extract_cores=False)


class TestCountingSearch:
    """_backbone on exact-count row systems, alone and after counting
    propagation, against truth tables."""

    @staticmethod
    def backbone(supports, labels, columns, propagate):
        rows = _Rows(supports, labels, columns)
        if propagate and not rows.propagate(rows.forced()):
            raise ValueError("conflict in propagation")
        settled = sum(b >= 0 for b in rows.value)
        cols = sorted({j for s in supports for j in s if rows.value[j] < 0})
        inferred = _backbone(rows, cols, 1_000_000)
        got = [(j, b) for j, b in enumerate(rows.value) if b >= 0]
        assert inferred == (len(got) > settled)
        return got

    @pytest.mark.parametrize("propagate", [False, True])
    def test_matches_truth_table(self, propagate):
        rng = random.Random(5150)
        forced = unsat = 0
        for _ in range(400):
            supports, labels, columns = random_row_system(rng)
            want = system_backbone(supports, labels, columns)
            if want is None:
                with pytest.raises(ValueError):
                    self.backbone(supports, labels, columns, propagate)
                unsat += 1
                continue
            got = self.backbone(supports, labels, columns, propagate)
            assert got == want, (supports, labels)
            forced += len(got)
        assert forced >= 300 and unsat >= 50

    def test_search_leaves_the_counts_as_found(self):
        # Every search undoes its model and its failures; only inferences
        # and their propagation stay, and they match a fresh propagation.
        rng = random.Random(77)
        for _ in range(200):
            supports, labels, columns = random_row_system(rng)
            if system_backbone(supports, labels, columns) is None:
                continue
            rows = _Rows(supports, labels, columns)
            cols = sorted({j for s in supports for j in s})
            _backbone(rows, cols, 1_000_000)
            fresh = _Rows(supports, labels, columns)
            for j, b in enumerate(rows.value):
                if b >= 0:
                    assert fresh.propagate([], (j,), b)
            assert fresh.value == rows.value
            assert fresh.need == rows.need and fresh.free == rows.free


class TestPinnedPasses:
    # sha256 of every pass of games on 40 seeded boards, cores on: sites,
    # verdicts and sorted core groups. A change that claims to keep the
    # engine's results must keep it.
    DIGEST = "36e5e359da54a99f16ffccadad9cf139641de9cac9bd5e5fe4662b205992215c"

    def test_pass_output_digest(self):
        assert pass_digest(extract_cores=True, quiet=False) == self.DIGEST

    def test_pass_output_digest_with_quiet_memory(self):
        # Cores on, each pass with the memory of the last pass's quiet
        # parts: the same digest as without it.
        assert pass_digest(extract_cores=True, quiet=True) == self.DIGEST

    # The same boards and passes with cores off: sites and verdicts, each
    # pass with the memory of the last pass's quiet parts.
    DIGEST_CORES_OFF = (
        "c105745dc250bb26c6a3ff3d1152e4a250e266109f1ab0ecd42c9a36bd17bfab")

    def test_cores_off_pass_output_digest(self):
        assert (pass_digest(extract_cores=False, quiet=True)
                == self.DIGEST_CORES_OFF)


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
                board = budget_board(n, rho, rng)
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
        assert default.rho == len(mine_sites(board)) / 36
        assert default.seed is None

    def test_expired_time_budget_marks_timeout(self, hour_clock):
        board = generate_board(8, 0.15, 1)
        record = play_game(board, time_budget_s=1.0)
        assert record.outcome is Outcome.STUCK_TIMEOUT
        assert record.turns == 0
        assert record.alpha == 0.0

    @pytest.mark.parametrize("budgets", [
        {"time_budget_s": 0.0}, {"time_budget_s": -1},
        {"conflict_budget": -1}])
    def test_bad_budget_rejected(self, budgets):
        board = generate_board(8, 0.15, 1)
        with pytest.raises(ValueError, match="budget"):
            play_game(board, **budgets)

    def test_no_time_budget(self):
        board = generate_board(5, 0.1, 2)
        record = play_game(board, time_budget_s=None)
        assert record.outcome in (Outcome.ALL_MINES_FLAGGED, Outcome.STUCK)

    def test_time_budget_off_by_default(self, hour_clock):
        board = generate_board(8, 0.15, 1)
        record = play_game(board)
        assert record.outcome is not Outcome.STUCK_TIMEOUT
        assert record.turns > 0

    def test_exhausted_conflict_budget_ends_stuck(self):
        board = generate_board(7, 0.18, 5)
        full = play_game(board)
        assert full.alpha > 0.0
        tiny = play_game(board, conflict_budget=0)
        assert tiny.outcome is Outcome.STUCK_BUDGET
        assert tiny.alpha <= full.alpha

    def test_exhausted_conflict_budget_ends_stuck_with_cores_off(self):
        # The board's cores-off game needs a failed search, and so a
        # conflict, on some pass; with no conflict allowed the counting
        # search stops the game there.
        board = generate_board(20, 0.2, 2)
        from_search = []

        def residual(turn, inferences):
            state = states.pop(0)
            settled = sum(b >= 0 for b in _settle(frontiers(state))[0].value)
            from_search.append(len(inferences) - settled)

        states = list(itertools.islice(pass_states(board), 1000))
        full = play_game(board, track_cores=False, trace_fn=residual)
        assert full.outcome is not Outcome.STUCK_BUDGET
        assert any(from_search)
        tiny = play_game(board, track_cores=False, conflict_budget=0)
        assert tiny.outcome is Outcome.STUCK_BUDGET
        assert tiny.alpha <= full.alpha
        assert tiny.turns < full.turns

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

    @pytest.mark.parametrize("verdict, validate, message", [
        (Verdict.MINE, True, "unsound mine verdict at"),
        (Verdict.SAFE, True, "unsound safe verdict at"),
        (Verdict.SAFE, False, "^$"),    # the reveal explodes
    ])
    def test_unsound_verdict_raises(self, monkeypatch, verdict, validate,
                                    message):
        board = generate_board(8, 0.15, 1)
        mines = mine_sites(board)
        wrong = verdict is Verdict.SAFE     # a wrong SAFE names a mine

        def unsound_pass(state, **_):
            site = next((r, c) for r, row in enumerate(state.status.tolist())
                        for c, s in enumerate(row)
                        if s == COVERED and ((r, c) in mines) == wrong)
            return [Inference(site, verdict)]

        monkeypatch.setattr(minelab.player, "infer_step", unsound_pass)
        with pytest.raises(AssertionError, match=message):
            play_game(board, validate=validate)

    def test_soundness_check_survives_optimize_flag(self):
        # python -O drops assert statements, not these checks.
        script = textwrap.dedent("""
            import sys
            from minelab import player
            from minelab.board import COVERED, generate_board
            board = generate_board(8, 0.15, 1)
            def infer_step(state, **_):
                site = next((r, c) for r in range(8) for c in range(8)
                            if state.status[r, c] == COVERED
                            and not board.mine_grid[r, c])
                return [player.Inference(site, player.Verdict.MINE)]
            player.infer_step = infer_step
            try:
                print(sys.flags.optimize, player.play_game(board).outcome)
            except AssertionError as exc:
                print(sys.flags.optimize, exc)
            """)
        src = str(Path(minelab.player.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("1 unsound mine verdict at ")

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


def traced_game(board: Board, policy: str):
    """(alpha, turns, outcome) of a game on board with cores off, and the
    set of (site, verdict) inferences of each of its passes."""
    passes = []
    rec = play_game(board, policy, track_cores=False,
                    trace_fn=lambda turn, inferences: passes.append(
                        {(inf.site, inf.verdict) for inf in inferences}))
    return (rec.alpha, rec.turns, rec.outcome), passes


class TestMetamorphic:
    @pytest.mark.parametrize("boundary, shift", [
        (Boundary.TORUS, (3, 7)), (Boundary.OPEN, (0, 0))])
    def test_symmetric_boards_play_the_same_game(self, boundary, shift):
        # A game is a property of the board, not of where its sites sit:
        # under each of the 8 symmetries of the square, translated on a
        # torus, the image board gives the same (alpha, turns, outcome),
        # and each of its passes infers the images of the original's.
        games = turns = 0
        for i in range(10):
            board = generate_board(20, (0.15, 0.2, 0.225)[i % 3], i, boundary)
            for policy in ("sat", "kset:2"):
                want, want_passes = traced_game(board, policy)
                for k in range(8):
                    got, got_passes = traced_game(
                        dihedral_board(board, k, shift), policy)
                    assert got == want, (i, policy, k)
                    assert got_passes == [
                        {(dihedral_site(site, k, 20, shift), verdict)
                         for site, verdict in inferences}
                        for inferences in want_passes], (i, policy, k)
                    games += 1
                turns += want[1]
        assert games == 160 and turns >= 100


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
