"""Core extraction tests: both result invariants re-checked by direct
solver calls, exhaustive subset minimality on small cases, and the
single-group guarantee."""
from __future__ import annotations

import itertools

import pytest

from minelab.board import (Boundary, COVERED, GameState, flag,
                           generate_board, parse_overlay, reveal)
from minelab.cnf import GroupedCnf, build_formula
from minelab.gmus import GmusResult, NotUnsat, extract_gmus, max_core_size
from minelab.harness import game_seed
from minelab.player import Verdict, infer_step
from minelab.sat import Solver, solve

from conftest import load_state, random_reachable_state


def assert_core_invariants(formula: GroupedCnf, result: GmusResult) -> None:
    """Re-check both invariants with fresh direct solve calls."""
    assert result.size == len(result.core) >= 1
    core = sorted(result.core)
    assert not solve(formula, core, [result.pivot]).sat
    for g in core:
        rest = [h for h in core if h != g]
        assert solve(formula, rest, [result.pivot]).sat, (
            f"group {g} is removable, core not minimal")


class TestKnownCases:
    def test_single_contradicting_group(self):
        # Group 1 forces the pivot false; group 2 never matters.
        formula = GroupedCnf(num_vars=3, groups={1: [(-1,)], 2: [(2, 3)]})
        result = extract_gmus(formula, 1)
        assert result.core == frozenset({1})
        assert result.size == 1
        assert result.pivot == 1
        assert_core_invariants(formula, result)

    def test_mine_row_pivot_negated(self):
        # Every inner site forces the lone covered centre to be a mine, so
        # assuming it safe yields a singleton core: the first group in
        # row-major order. Minimality is re-checked over all subsets.
        state = load_state("mine_row.state", board_name="mine_row.board")
        formula = build_formula(state)
        assert formula.num_vars == 1
        centre_var = formula.var_sites.index((2, 2)) + 1
        result = extract_gmus(formula, -centre_var)
        assert result.size == 1
        assert result.core == frozenset({0})
        assert_core_invariants(formula, result)
        # Exhaustive subset re-check: the core with the pivot is Unsat and
        # every proper subset of it is Sat.
        for r in range(result.size):
            for sub in itertools.combinations(sorted(result.core), r):
                assert solve(formula, list(sub), [result.pivot]).sat

    def test_effective_label_zero_neighbor(self):
        # A revealed 1 with its mine flagged: effective label 0, so
        # asserting the remaining neighbor mined contradicts that one group.
        state = parse_overlay("1F\n1#\n", Boundary.OPEN)
        formula = build_formula(state)
        assert formula.num_vars == 1
        result = extract_gmus(formula, 1)
        assert result.size == 1
        assert_core_invariants(formula, result)

    def test_not_unsat_on_satisfiable_pivot(self):
        formula = GroupedCnf(num_vars=2, groups={1: [(1, 2)]})
        with pytest.raises(NotUnsat):
            extract_gmus(formula, 1)

    def test_single_group_beats_plain_deletion_order(self):
        # Plain in-order deletion would drop group 1 (groups 2+3 stay
        # jointly contradictory) and report {2, 3}; the extractor must
        # still find the size-1 core.
        formula = GroupedCnf(num_vars=2,
                             groups={1: [(-1,)], 2: [(2,)], 3: [(-2, -1)]})
        result = extract_gmus(formula, 1)
        assert result.core == frozenset({1})
        assert result.size == 1

    def test_multi_group_core(self):
        # No single group contradicts the pivot; two of them together do.
        formula = GroupedCnf(num_vars=2,
                             groups={1: [(2,)], 2: [(-2, -1)], 3: [(1, 2)]})
        result = extract_gmus(formula, 1)
        assert result.core == frozenset({1, 2})
        assert result.size == 2
        assert_core_invariants(formula, result)


class TestOptions:
    def test_initial_core_seeds_the_deletion(self):
        # Two disjoint two-group cores exist and no single group conflicts,
        # so the result comes from deleting inside the seed.
        formula = GroupedCnf(num_vars=3,
                             groups={1: [(2,)], 2: [(-2, -1)],
                                     3: [(3, 1)],
                                     4: [(3,)], 5: [(-3, -1)]})
        unseeded = extract_gmus(formula, 1)
        assert unseeded.core == frozenset({1, 2})
        seeded = extract_gmus(formula, 1, initial_core=[4, 5])
        assert seeded.core == frozenset({4, 5})
        assert_core_invariants(formula, seeded)

    def test_out_of_range_pivot_rejected(self):
        formula = GroupedCnf(num_vars=2,
                             groups={1: [(2,)], 2: [(-2, -1)], 3: [(1, 2)]})
        for pivot in (0, 3, -3, 99):
            for seed in (None, [1, 2]):
                with pytest.raises(ValueError, match=f"pivot {pivot} "):
                    extract_gmus(formula, pivot, initial_core=seed)

    def test_shared_solver_reuse(self):
        formula = GroupedCnf(num_vars=2,
                             groups={1: [(2,)], 2: [(-2, -1)], 3: [(1, 2)]})
        solver = Solver(formula)
        a = extract_gmus(formula, 1, solver=solver)
        b = extract_gmus(formula, 1, solver=solver)
        assert a == b
        assert_core_invariants(formula, a)


class TestMaxCoreSize:
    def test_empty(self):
        assert max_core_size([]) == 0

    def test_mixed_sizes(self):
        records = [GmusResult(core=frozenset({1}), pivot=1, size=1),
                   GmusResult(core=frozenset({1, 2, 3}), pivot=-2, size=3),
                   GmusResult(core=frozenset({4, 5}), pivot=3, size=2)]
        assert max_core_size(records) == 3


class TestRandomExtraction:
    def test_invariants_on_reachable_states(self, rng):
        extracted = 0
        tried = 0
        while extracted < 60 and tried < 400:
            tried += 1
            state = random_reachable_state(rng, max_outer=12)
            if state is None:
                continue
            formula = build_formula(state)
            solver = Solver(formula)
            for v in range(1, formula.num_vars + 1):
                pivot = None
                if not solver.solve(None, [v]).sat:
                    pivot = v
                elif not solver.solve(None, [-v]).sat:
                    pivot = -v
                if pivot is None:
                    continue
                result = extract_gmus(formula, pivot, solver=solver)
                assert_core_invariants(formula, result)
                extracted += 1
        assert extracted >= 60


def first_singleton_core(formula: GroupedCnf, pivot: int):
    """The first group, ascending, that mentions the pivot variable and
    contradicts the pivot on its own, by a clause scan and fresh solves."""
    for g in sorted(formula.groups):
        if any(abs(l) == abs(pivot) for clause in formula.groups[g]
               for l in clause):
            if not solve(formula, [g], [pivot]).sat:
                return g
    return None


class TestGameCores:
    def test_cores_from_played_games(self):
        # Every pass of a few n=16 games: each core is minimal, and a
        # size-1 core is exactly what the scan over all groups finds first.
        cores = multi = 0
        for rho in (0.15, 0.2, 0.225):
            for i in range(2):
                board = generate_board(16, rho, game_seed(7, rho, i),
                                       Boundary.TORUS)
                state = GameState(board)
                reveal(state, board.start)
                while True:
                    inferences = infer_step(state)
                    if not inferences:
                        break
                    formula = build_formula(state)
                    for inf in inferences:
                        assert_core_invariants(formula, inf.core)
                        single = first_singleton_core(formula, inf.core.pivot)
                        if single is None:
                            multi += 1
                        else:
                            assert inf.core.core == frozenset({single})
                        cores += 1
                    for inf in inferences:
                        if inf.verdict is Verdict.MINE:
                            flag(state, inf.site)
                    for inf in inferences:
                        if (inf.verdict is Verdict.SAFE
                                and int(state.status[inf.site]) == COVERED):
                            reveal(state, inf.site)
        assert cores >= 500 and multi >= 100
