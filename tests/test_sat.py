"""Solver tests: differential checks against truth tables, assumption and
core semantics, group activation, core-to-group mapping, query sequences on
one instance (kept assumption prefixes, dropping the learned clauses and
budget exhaustion between queries) and connected parts."""
from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minelab.board import Boundary, frontiers
from minelab.cnf import GroupedCnf
from minelab.cnf import _encode_exact_count as encode_exact_count
from minelab.player import _settle
from minelab.sat import ResourceLimit, Solver

from conftest import (eval_formula, formula_parts, random_reachable_state,
                      rows_formula, solve, state_formula, truth_table_models)


def random_grouped_cnf(rng: random.Random, *, max_vars: int = 8,
                       max_groups: int = 4, max_clauses: int = 5,
                       max_width: int = 4) -> GroupedCnf:
    nv = rng.randint(1, max_vars)
    groups = {}
    for g in range(1, rng.randint(1, max_groups) + 1):
        clauses = []
        for _ in range(rng.randint(1, max_clauses)):
            width = rng.randint(1, min(max_width, nv))
            vs = rng.sample(range(1, nv + 1), width)
            clauses.append(tuple(v if rng.random() < 0.5 else -v
                                 for v in vs))
        groups[g] = clauses
    return GroupedCnf(num_vars=nv, groups=groups)


class TestDifferential:
    def test_random_formulas_match_truth_table(self):
        rng = random.Random(8123)
        for trial in range(300):
            formula = random_grouped_cnf(rng)
            res = solve(formula)
            models = truth_table_models(formula)
            assert res.sat == bool(models), f"trial {trial}"
            if res.sat:
                assert eval_formula(formula, res.model)

    def test_random_formulas_with_assumptions(self):
        rng = random.Random(977)
        for trial in range(200):
            formula = random_grouped_cnf(rng)
            k = rng.randint(1, formula.num_vars)
            vs = rng.sample(range(1, formula.num_vars + 1), k)
            assumptions = [v if rng.random() < 0.5 else -v for v in vs]
            res = solve(formula, assumptions=assumptions)
            forced = {abs(l): l > 0 for l in assumptions}
            models = [m for m in truth_table_models(formula)
                      if all(m[v] == b for v, b in forced.items())]
            assert res.sat == bool(models), f"trial {trial}"
            if res.sat:
                assert eval_formula(formula, res.model)
                for l in assumptions:
                    assert res.model[abs(l)] == (l > 0)

    def test_random_formulas_with_active_subset(self):
        rng = random.Random(5150)
        for trial in range(200):
            formula = random_grouped_cnf(rng)
            gids = sorted(formula.groups)
            active = rng.sample(gids, rng.randint(0, len(gids)))
            res = solve(formula, active=active)
            models = truth_table_models(formula, active=active)
            assert res.sat == bool(models), f"trial {trial}"
            if res.sat:
                assert eval_formula(formula, res.model, active=active)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_hypothesis_formula_agreement(self, data):
        nv = data.draw(st.integers(1, 6))
        lit = st.integers(1, nv).flatmap(
            lambda v: st.sampled_from((v, -v)))
        clause = st.lists(lit, min_size=1, max_size=4).map(tuple)
        ngroups = data.draw(st.integers(1, 3))
        groups = {g: data.draw(st.lists(clause, min_size=1, max_size=4))
                  for g in range(1, ngroups + 1)}
        formula = GroupedCnf(num_vars=nv, groups=groups)
        res = solve(formula)
        models = truth_table_models(formula)
        assert res.sat == bool(models)
        if res.sat:
            assert eval_formula(formula, res.model)


class TestAssumptionSemantics:
    def test_forced_value_under_assumption(self):
        # (b or c) and (not b or not c), assuming b: satisfiable, c False.
        formula = GroupedCnf(num_vars=2, groups={1: [(1, 2), (-1, -2)]})
        res = solve(formula, assumptions=[1])
        assert res.sat
        assert res.model == {1: True, 2: False}

    def test_conflicting_assumption_core(self):
        formula = GroupedCnf(num_vars=1, groups={1: [(-1,)]})
        res = solve(formula, assumptions=[1])
        assert not res.sat
        assert 1 in res.core

    def test_core_contains_only_assumed_literals(self):
        # x1 and x2 forced true by groups, assumptions demand them false.
        formula = GroupedCnf(num_vars=2, groups={1: [(1,)], 2: [(2,)]})
        solver = Solver(formula)
        res = solver.solve(solver.group_ids, [-1, -2])
        assert not res.sat
        selectors = set(solver.selector_of.values())
        assert res.core <= {-1, -2} | selectors
        assert res.core & {-1, -2}

    def test_core_groups_maps_selectors_to_sparse_group_ids(self):
        # Only group 3 clashes with the assumption; the problem literal in
        # the core is not a group.
        formula = GroupedCnf(num_vars=2,
                             groups={3: [(2,)], 8: [(1, 2)], 11: [(-1,)]})
        solver = Solver(formula)
        res = solver.solve(solver.group_ids, [-2])
        assert not res.sat
        assert -2 in res.core
        assert solver.core_groups(res.core) == [3]
        full = solver.solve([3, 8, 11], [1])
        assert solver.core_groups(full.core) == [11]

    def test_unknown_assumption_variable_rejected(self):
        formula = GroupedCnf(num_vars=1, groups={1: [(1,)]})
        with pytest.raises(ValueError):
            solve(formula, assumptions=[2])

    def test_contradictory_assumptions(self):
        formula = GroupedCnf(num_vars=2, groups={1: [(1, 2)]})
        res = solve(formula, assumptions=[1, -1])
        assert not res.sat

    def test_empty_clause_unsat_without_assumptions(self):
        formula = GroupedCnf(num_vars=1, groups={1: [()]})
        res = solve(formula)
        assert not res.sat
        assert res.core == frozenset() or all(
            l > 1 for l in res.core)  # only the selector may appear


class TestGroupActivation:
    def test_inactive_groups_ignored(self):
        formula = GroupedCnf(num_vars=1, groups={1: [(1,)], 2: [(-1,)]})
        assert solve(formula, active=[1]).model[1] is True
        assert solve(formula, active=[2]).model[1] is False
        assert not solve(formula).sat

    def test_no_groups_active_is_sat(self):
        formula = GroupedCnf(num_vars=2, groups={1: [(1,), (-1,)]})
        res = solve(formula, active=[])
        assert res.sat
        assert res.model == {}   # no active group, no assumption

    def test_reuse_across_queries_shares_state_safely(self):
        # Same solver instance answers interleaved queries correctly.
        formula = GroupedCnf(num_vars=2,
                             groups={1: [(1,)], 2: [(-1,)], 3: [(2,)]})
        solver = Solver(formula)
        seq = [([1, 3], [], True), ([1, 2], [], False),
               ([1, 3], [-2], False), ([2, 3], [], True),
               ([1], [1], True), ([1], [-1], False)]
        for active, assumptions, expect in seq * 3:
            res = solver.solve(active, assumptions)
            assert res.sat == expect
            if res.sat:
                assert eval_formula(formula, res.model, active=active)
                for l in assumptions:
                    assert res.model[abs(l)] == (l > 0)

    def test_incremental_matches_one_shot(self):
        rng = random.Random(31337)
        for trial in range(60):
            formula = random_grouped_cnf(rng, max_vars=7)
            solver = Solver(formula)
            gids = sorted(formula.groups)
            for _ in range(6):
                active = rng.sample(gids, rng.randint(0, len(gids)))
                v = rng.randint(1, formula.num_vars)
                assumptions = [v if rng.random() < 0.5 else -v]
                res = solver.solve(active, assumptions)
                fresh = solve(formula, active, assumptions)
                assert res.sat == fresh.sat, f"trial {trial}"


class TestDeterminism:
    def test_repeated_solves_identical(self):
        rng = random.Random(4)
        for _ in range(40):
            formula = random_grouped_cnf(rng)
            first = solve(formula)
            for _ in range(3):
                again = solve(formula)
                assert again.sat == first.sat
                assert again.model == first.model
                assert again.core == first.core

    def test_exact_count_pigeonhole_budget(self):
        # 12 vars forced to sum to 6 twice over disjoint halves, plus a
        # clause pattern that makes the counts clash; exhausts tiny budgets.
        vars12 = list(range(1, 13))
        groups = {
            1: encode_exact_count(7, vars12),
            2: encode_exact_count(5, vars12),
        }
        formula = GroupedCnf(num_vars=12, groups=groups)
        with pytest.raises(ResourceLimit):
            solve(formula, conflict_budget=1)
        res = solve(formula)   # default budget decides it: no overlap
        assert not res.sat

    def test_decisions_try_false_first(self):
        formula = GroupedCnf(num_vars=3, groups={1: [(1, 2, 3)]})
        assert Solver(formula).solve([1]).model == {1: False, 2: False,
                                                    3: True}

    def test_sat_models_verify(self):
        rng = random.Random(99)
        sat = 0
        for _ in range(30):
            formula = random_grouped_cnf(rng)
            res = solve(formula)
            if res.sat:
                assert eval_formula(formula, res.model)
                sat += 1
        assert sat >= 10


def frontier_formulas(seed: int, count: int, max_outer: int = 16):
    """Frontier formulas of random mid-game states."""
    rng = np.random.default_rng(seed)
    formulas = []
    while len(formulas) < count:
        state = random_reachable_state(rng, max_outer=max_outer)
        if state is not None:
            formulas.append(state_formula(state))
    return formulas


def group_vars(formula: GroupedCnf, groups) -> set:
    """The variables the clauses of the given groups mention."""
    return {abs(l) for g in groups for clause in formula.groups[g]
            for l in clause}


def decided_vars(formula: GroupedCnf, active, assumptions) -> set:
    """The variables a query's model holds: those of the active groups and
    the assumptions."""
    return group_vars(formula, active) | {abs(l) for l in assumptions}


def check_answer(solver, formula, active, assumptions, res) -> None:
    """res must agree with a fresh solver, and its model or core must hold
    up on its own."""
    assert res.sat == Solver(formula).solve(active, assumptions).sat
    nv = formula.num_vars
    if res.sat:
        assert set(res.model) == decided_vars(formula, active, assumptions)
        assert eval_formula(formula, res.model, active=active)
        assert all(res.model[abs(l)] == (l > 0) for l in assumptions)
        return
    allowed = {solver.selector_of[g] for g in active} | set(assumptions)
    assert res.core <= allowed
    lits = [l for l in res.core if abs(l) <= nv]
    assert not Solver(formula).solve(solver.core_groups(res.core), lits).sat


def query_sequence(rng: random.Random, formula: GroupedCnf, count: int):
    """(active, assumptions) pairs interleaved as inference passes and core
    extraction interleave them: all-groups queries on one literal, singleton
    pre-scans, deletion trials that drop one group at a time, and queries
    that repeat, extend or change the previous assumption list."""
    gids = sorted(formula.groups)
    nv = formula.num_vars

    def lit():
        v = rng.randint(1, nv)
        return v if rng.random() < 0.5 else -v

    active, assumptions = gids, [lit()]
    for _ in range(count):
        r = rng.random()
        if r < 0.3:
            active, assumptions = gids, [lit()]
        elif r < 0.45:
            active, assumptions = [rng.choice(gids)], [lit()]
        elif r < 0.7:
            if len(active) > 1:
                drop = rng.choice(active)
                active = [g for g in active if g != drop]
        elif r < 0.85:
            assumptions = assumptions + [lit()]
        else:
            active = sorted(rng.sample(gids, rng.randint(0, len(gids))))
            assumptions = [lit() for _ in range(rng.randint(0, 3))]
        yield active, list(assumptions)


class TestQuerySequences:
    def formulas(self):
        rng = random.Random(7411)
        return ([random_grouped_cnf(rng, max_vars=10, max_groups=7,
                                    max_clauses=6) for _ in range(40)]
                + frontier_formulas(5521, 30))

    def test_one_solver_agrees_with_fresh_solvers(self):
        rng = random.Random(1203)
        kept = 0
        for formula in self.formulas():
            solver = Solver(formula)
            for active, assumptions in query_sequence(rng, formula, 25):
                levels = len(solver.trail_lim)
                res = solver.solve(active, assumptions)
                check_answer(solver, formula, active, assumptions, res)
                kept += levels > 0
        assert kept > 500   # most queries start from a kept trail

    def test_repeated_query_reassumes_nothing(self):
        formula = frontier_formulas(88, 1, max_outer=20)[0]
        solver = Solver(formula)
        opened = []     # the decision level below each new level
        new_level = solver._new_level
        solver._new_level = lambda: (opened.append(len(solver.trail_lim)),
                                     new_level())
        first = solver.solve(solver.group_ids, [1])
        n_first = len(opened)
        second = solver.solve(solver.group_ids, [1])
        assert second.sat == first.sat
        assert min(opened[:n_first]) == 0
        assert min(opened[n_first:], default=len(solver.group_ids)) >= len(
            solver.group_ids)   # no selector level opened again

    def test_resource_limit_mid_sequence(self):
        rng = random.Random(4242)
        limits = 0
        for formula in self.formulas():
            solver = Solver(formula)
            for active, assumptions in query_sequence(rng, formula, 25):
                if rng.random() < 0.2:
                    solver.conflict_budget = 0
                    try:
                        solver.solve(active, assumptions)
                    except ResourceLimit:
                        limits += 1
                        assert not solver.trail_lim
                    finally:
                        solver.conflict_budget = 1_000_000
                # The same query again, now within budget.
                res = solver.solve(active, assumptions)
                check_answer(solver, formula, active, assumptions, res)
        assert limits >= 10


class TestActiveSets:
    def test_matches_fresh_solve_of_the_subformula(self):
        rng = random.Random(3030)
        checked = 0
        for formula in frontier_formulas(7070, 40, max_outer=20):
            solver = Solver(formula)
            gids = sorted(formula.groups)
            for _ in range(8):
                active = sorted(rng.sample(gids, rng.randint(1, len(gids))))
                v = rng.randint(1, formula.num_vars)
                pivot = v if rng.random() < 0.5 else -v
                res = solver.solve(active, [pivot])
                sub = GroupedCnf(num_vars=formula.num_vars,
                                 groups={g: formula.groups[g] for g in active})
                assert res.sat == solve(sub, None, [pivot]).sat
                if res.sat:
                    assert eval_formula(formula, res.model, active=active)
                    assert res.model[v] == (pivot > 0)
                checked += not res.sat
        assert checked >= 20

    def test_branches_only_on_active_variables(self):
        formula = frontier_formulas(1999, 1, max_outer=20)[0]
        solver = Solver(formula)
        g = solver.group_ids[0]
        pivot = solver.group_vars[g][0]
        res = solver.solve([g], [pivot])
        assigned = {abs(l) for l in solver.trail if abs(l) <= formula.num_vars}
        assert assigned <= set(solver.group_vars[g])
        assert res.sat
        assert set(res.model) == group_vars(formula, [g]) == assigned
        assert eval_formula(formula, res.model, active=[g])

    def test_changed_active_list_is_not_stale(self):
        # The same list object, extended between two queries: the second
        # query must branch on the new group's variables too.
        formula = GroupedCnf(num_vars=3, groups={1: [(1,)], 2: [(2, 3)]})
        solver = Solver(formula)
        active = [1]
        assert solver.solve(active).model == {1: True}
        active.append(2)
        res = solver.solve(active)
        assert set(res.model) == {1, 2, 3}
        assert eval_formula(formula, res.model, active=active)

    def test_var_groups_match_a_clause_scan(self):
        rng = random.Random(515)
        formulas = (frontier_formulas(2424, 30, max_outer=20)
                    + [random_grouped_cnf(rng, max_groups=6) for _ in range(30)])
        for formula in formulas:
            solver = Solver(formula)
            for v in range(1, formula.num_vars + 1):
                scan = [g for g in solver.group_ids
                        if any(abs(l) == v for clause in formula.groups[g]
                               for l in clause)]
                assert solver.var_groups[v] == scan
            for g in solver.group_ids:
                assert solver.group_vars[g] == sorted(
                    {abs(l) for clause in formula.groups[g] for l in clause})


class TestParts:
    """Queries that name one part's groups: a part is a set of groups that
    shares no variable with the others."""

    def test_loose_variable_and_empty_group(self):
        # Variables 2 and 4 are in no group; group 2 has no clause. A
        # part's query decides exactly the part's variables.
        formula = GroupedCnf(num_vars=5,
                             groups={0: [(3, -5)], 1: [(-1,)], 2: [],
                                     3: [(5, 1)]})
        parts = formula_parts(formula)
        assert parts == [([0, 1, 3], [1, 3, 5]), ([2], [])]
        solver = Solver(formula)
        for groups, vs in parts:
            res = solver.solve(groups)
            assert res.sat and set(res.model) == set(vs)

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_parts_partition_reachable_formulas(self, rng, boundary):
        # The player's parts (the rows that counting propagation leaves
        # undecided, joined through their undecided columns) are the
        # connected parts of those rows' formula, and their models, with
        # the settled columns, join into a model of the whole formula.
        states = multi = 0
        for _ in range(400):
            if states >= 60 and multi >= 5:
                break
            state = random_reachable_state(rng, boundary=boundary)
            if state is None:
                continue
            fr = frontiers(state)
            rows, parts = _settle(fr)
            if not parts:
                continue
            formula = rows_formula((row for part in parts for row in part),
                                   len(fr.outer))
            groups_of = [[i for i, _, _ in part] for part in parts]
            assert (sorted((groups, sorted(group_vars(formula, groups)))
                           for groups in groups_of)
                    == sorted(formula_parts(formula)))
            firsts = [groups[0] for groups in groups_of]
            assert firsts == sorted(firsts)
            solver = Solver(formula)
            joined = {j + 1: b == 1 for j, b in enumerate(rows.value)
                      if b >= 0}
            for groups in groups_of:
                assert groups == sorted(groups)
                res = solver.solve(groups)
                assert res.sat
                assert set(res.model) == group_vars(formula, groups)
                for v, value in res.model.items():
                    joined[v] = value
            assert eval_formula(state_formula(state), joined)
            states += 1
            multi += len(parts) >= 2
        assert states >= 60 and multi >= 5
