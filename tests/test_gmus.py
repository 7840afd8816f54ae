"""Core extraction tests: both result invariants re-checked by direct
solver calls, exhaustive subset minimality on small cases, and the
single-group guarantee."""
from __future__ import annotations

import itertools

import pytest

import minelab.player
from minelab.board import (Boundary, COVERED, GameState, flag, frontiers,
                           generate_board, reveal)
from minelab.cnf import GroupedCnf
from minelab.gmus import GmusResult, NotUnsat, _refutes, extract_gmus
from minelab.harness import game_seed
from minelab.player import Verdict, infer_step
from minelab.sat import Solver

from conftest import (load_state, parse_overlay, random_reachable_state, solve,
                      state_formula)


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
        result = extract_gmus(Solver(formula), 1)
        assert result.core == frozenset({1})
        assert result.size == 1
        assert result.pivot == 1
        assert_core_invariants(formula, result)

    def test_mine_row_pivot_negated(self):
        # Every inner site forces the lone covered centre to be a mine, so
        # assuming it safe yields a singleton core: the first group in
        # row-major order. Minimality is re-checked over all subsets.
        state = load_state("mine_row.state", board_name="mine_row.board")
        formula = state_formula(state)
        assert formula.num_vars == 1
        centre_var = frontiers(state).outer.index((2, 2)) + 1
        result = extract_gmus(Solver(formula), -centre_var)
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
        formula = state_formula(state)
        assert formula.num_vars == 1
        result = extract_gmus(Solver(formula), 1)
        assert result.size == 1
        assert_core_invariants(formula, result)

    def test_not_unsat_on_satisfiable_pivot(self):
        formula = GroupedCnf(num_vars=2, groups={1: [(1, 2)]})
        with pytest.raises(NotUnsat):
            extract_gmus(Solver(formula), 1)

    def test_single_group_beats_plain_deletion_order(self):
        # Plain in-order deletion would drop group 1 (groups 2+3 stay
        # jointly contradictory) and report {2, 3}; the extractor must
        # still find the size-1 core.
        formula = GroupedCnf(num_vars=2,
                             groups={1: [(-1,)], 2: [(2,)], 3: [(-2, -1)]})
        result = extract_gmus(Solver(formula), 1)
        assert result.core == frozenset({1})
        assert result.size == 1

    def test_multi_group_core(self):
        # No single group contradicts the pivot; two of them together do.
        formula = GroupedCnf(num_vars=2,
                             groups={1: [(2,)], 2: [(-2, -1)], 3: [(1, 2)]})
        result = extract_gmus(Solver(formula), 1)
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
        unseeded = extract_gmus(Solver(formula), 1)
        assert unseeded.core == frozenset({1, 2})
        seeded = extract_gmus(Solver(formula), 1, initial_core=[4, 5])
        assert seeded.core == frozenset({4, 5})
        assert_core_invariants(formula, seeded)

    def test_out_of_range_pivot_rejected(self):
        formula = GroupedCnf(num_vars=2,
                             groups={1: [(2,)], 2: [(-2, -1)], 3: [(1, 2)]})
        for pivot in (0, 3, -3, 99):
            for seed in (None, [1, 2]):
                with pytest.raises(ValueError, match=f"pivot {pivot} "):
                    extract_gmus(Solver(formula), pivot, initial_core=seed)

    def test_shared_solver_reuse(self):
        formula = GroupedCnf(num_vars=2,
                             groups={1: [(2,)], 2: [(-2, -1)], 3: [(1, 2)]})
        solver = Solver(formula)
        a = extract_gmus(solver, 1)
        b = extract_gmus(solver, 1)
        assert a == b
        assert_core_invariants(formula, a)


class CountingSolver(Solver):
    """A Solver that records the active groups of every query."""

    def __init__(self, formula: GroupedCnf, **kwargs) -> None:
        super().__init__(formula, **kwargs)
        self.queries = []

    def solve(self, active_groups, assumptions=()):
        self.queries.append(sorted(active_groups))
        return super().solve(active_groups, assumptions)


class TestModelRotation:
    def test_chain_needs_one_trial(self):
        # x1 -> x2 -> ... -> x9, then not x9: with the pivot x1 every group
        # is in the core. Plain deletion proves each group necessary with
        # its own satisfiable trial; rotating the first trial's model along
        # the chain proves all of them. The singleton scan then asks group
        # 0, the only group that mentions the pivot variable, once.
        k = 9
        groups = {i: [(-(i + 1), i + 2)] for i in range(k - 1)}
        groups[k - 1] = [(-k,)]
        formula = GroupedCnf(num_vars=k, groups=groups)
        solver = CountingSolver(formula)
        result = extract_gmus(solver, 1, initial_core=range(k))
        assert result.core == frozenset(range(k))
        assert solver.queries == [list(range(1, k)), [0]]
        assert_core_invariants(formula, result)

    def test_size_one_initial_core_scans_only_below_it(self):
        # Groups 1, 2 and 3 each contradict the pivot x1 alone; group 0
        # mentions x1 but does not. Seeded with {2}, the scan queries only
        # groups below 2 and still returns the lowest singleton, 1.
        formula = GroupedCnf(num_vars=2,
                             groups={0: [(1, 2)], 1: [(-1, 2), (-1, -2)],
                                     2: [(-1,)], 3: [(-1,)], 4: [(1, -2)]})
        solver = CountingSolver(formula)
        result = extract_gmus(solver, 1, initial_core=[2])
        assert result.core == frozenset({1})
        assert all(max(q) < 2 for q in solver.queries), solver.queries
        # Seeded with the lowest singleton itself, only group 0 is queried.
        solver = CountingSolver(formula)
        result = extract_gmus(solver, 1, initial_core=[1])
        assert result.core == frozenset({1})
        assert solver.queries == [[0]]


def random_grouped_formula(rng, num_vars: int) -> GroupedCnf:
    """A grouped CNF that is not a frontier formula: clauses of width 1 to
    4, groups of one to four clauses over overlapping variable windows
    (so groups share variables), and about a fifth of the groups a single
    unit clause."""
    groups = {}
    for g in range(int(rng.integers(3, 9))):
        lo = int(rng.integers(1, num_vars))
        window = list(range(lo, min(num_vars, lo + 3) + 1))
        if rng.random() < 0.2:
            width, count = 1, 1
        else:
            width, count = None, int(rng.integers(1, 5))
        clauses = []
        for _ in range(count):
            w = width or int(rng.integers(1, 5))
            pool = sorted(set(window) | {int(rng.integers(1, num_vars + 1))})
            vs = rng.choice(pool, size=min(w, len(pool)), replace=False)
            clauses.append(tuple(int(v) if rng.random() < 0.5 else -int(v)
                                 for v in vs))
        groups[g] = clauses
    return GroupedCnf(num_vars=num_vars, groups=groups)


class TestRandomGroupedFormulas:
    def test_invariants_and_singleton_rule(self, rng):
        # No exact-count structure to lean on: each core is minimal, and
        # when some group that mentions the pivot variable contradicts it
        # alone, the core is the lowest such group.
        extracted = singles = multi = 0
        for _ in range(300):
            formula = random_grouped_formula(rng, int(rng.integers(3, 8)))
            solver = Solver(formula)
            for v in range(1, formula.num_vars + 1):
                for pivot in (v, -v):
                    res = solver.solve(solver.group_ids, [pivot])
                    if res.sat:
                        continue
                    seed = solver.core_groups(res.core)
                    for result in (extract_gmus(Solver(formula), pivot),
                                   extract_gmus(solver, pivot,
                                                initial_core=seed)):
                        assert_core_invariants(formula, result)
                        single = first_singleton_core(formula, pivot)
                        if single is not None:
                            assert result.core == frozenset({single})
                            singles += 1
                        elif result.size > 1:
                            multi += 1
                        extracted += 1
        assert extracted >= 1000 and singles >= 300 and multi >= 300


class TestRandomExtraction:
    def test_invariants_on_reachable_states(self, rng):
        extracted = 0
        tried = 0
        while extracted < 60 and tried < 400:
            tried += 1
            state = random_reachable_state(rng, max_outer=12)
            if state is None:
                continue
            formula = state_formula(state)
            solver = Solver(formula)
            for v in range(1, formula.num_vars + 1):
                pivot = None
                if not solver.solve(solver.group_ids, [v]).sat:
                    pivot = v
                elif not solver.solve(solver.group_ids, [-v]).sat:
                    pivot = -v
                if pivot is None:
                    continue
                result = extract_gmus(solver, pivot)
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


def played_passes(master: int):
    """(formula, inferences) for every pass of two n=16 cores-on games at
    each of rho 0.15, 0.2 and 0.225, played from the given master seed."""
    for rho in (0.15, 0.2, 0.225):
        for i in range(2):
            board = generate_board(16, rho, game_seed(master, rho, i),
                                   Boundary.TORUS)
            state = GameState(board)
            reveal(state, board.start)
            while True:
                inferences = infer_step(state)
                if not inferences:
                    break
                yield state_formula(state), inferences
                for inf in inferences:
                    if inf.verdict is Verdict.MINE:
                        flag(state, inf.site)
                for inf in inferences:
                    if (inf.verdict is Verdict.SAFE
                            and int(state.status[inf.site]) == COVERED):
                        reveal(state, inf.site)


class TestGameCores:
    def test_cores_from_played_games(self):
        # Every pass of a few n=16 games: each core is minimal, and a
        # size-1 core is exactly what the scan over all groups finds first.
        cores = multi = 0
        for formula, inferences in played_passes(7):
            for inf in inferences:
                assert_core_invariants(formula, inf.core)
                single = first_singleton_core(formula, inf.core.pivot)
                if single is None:
                    multi += 1
                else:
                    assert inf.core.core == frozenset({single})
                cores += 1
        assert cores >= 500 and multi >= 100

    def test_counting_rule_matches_solver(self):
        # The labels of a frontier formula answer "does this group alone
        # contradict this literal" for every literal of its variables
        # exactly as a fresh query on that group alone does.
        refuted = kept = 0
        for formula, _ in played_passes(3):
            for g, clauses in formula.groups.items():
                vs = sorted({abs(l) for clause in clauses for l in clause})
                for lit in (*vs, *(-v for v in vs)):
                    counted = _refutes(formula.labels[g], len(vs), lit)
                    assert counted == (not solve(formula, [g], [lit]).sat)
                    refuted += counted
                    kept += not counted
        assert refuted >= 300 and kept >= 2000

    def test_extraction_asks_no_single_group_query(self, monkeypatch):
        # With labels, extraction settles every single-group question by
        # counting: none of its queries has one active group, and its cores
        # are still minimal with the lowest singleton as the size-1 core.
        solvers = []

        def recording_solver(formula, **kwargs):
            solvers.append(CountingSolver(formula, **kwargs))
            return solvers[-1]

        asked = []

        def recording_extract(solver, pivot, **kwargs):
            before = len(solver.queries)
            result = extract_gmus(solver, pivot, **kwargs)
            asked.extend(solver.queries[before:])
            return result

        monkeypatch.setattr(minelab.player, "Solver", recording_solver)
        monkeypatch.setattr(minelab.player, "extract_gmus",
                            recording_extract)
        cores = multi = 0
        for formula, inferences in played_passes(11):
            for inf in inferences:
                assert_core_invariants(formula, inf.core)
                if inf.core.size == 1:
                    assert inf.core.core == frozenset(
                        {first_singleton_core(formula, inf.core.pivot)})
                else:
                    multi += 1
                cores += 1
        assert cores >= 500 and multi >= 300 and len(asked) >= 300
        assert all(len(active) > 1 for active in asked), [
            active for active in asked if len(active) == 1]
