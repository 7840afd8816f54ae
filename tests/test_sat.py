"""Solver tests: differential checks against truth tables, assumption and
core semantics, group activation, and core-to-group mapping."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minelab.cnf import GroupedCnf, encode_exact_count
from minelab.sat import ResourceLimit, Solver, solve, verify_model

from conftest import eval_formula, truth_table_models


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
            res = solve(formula, active_groups=active)
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
        res = solver.solve(assumptions=[-1, -2])
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
        res = solver.solve(assumptions=[-2])
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
        assert solve(formula, active_groups=[1]).model[1] is True
        assert solve(formula, active_groups=[2]).model[1] is False
        assert not solve(formula).sat

    def test_no_groups_active_is_sat(self):
        formula = GroupedCnf(num_vars=2, groups={1: [(1,), (-1,)]})
        res = solve(formula, active_groups=[])
        assert res.sat
        assert set(res.model) == {1, 2}

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

    def test_sat_models_verify(self):
        rng = random.Random(99)
        sat = 0
        for _ in range(30):
            formula = random_grouped_cnf(rng)
            res = Solver(formula).solve()
            if res.sat:
                assert verify_model(formula, None, res.model)
                sat += 1
        assert sat >= 10


class TestVerifyModel:
    def test_trivial(self):
        formula = GroupedCnf(num_vars=2, groups={1: [(1, -2)]})
        assert verify_model(formula, None, {1: True, 2: True})
        assert verify_model(formula, None, {1: False, 2: False})
        assert not verify_model(formula, None, {1: False, 2: True})
        assert verify_model(formula, [], {1: False, 2: True})

    def test_matches_independent_evaluation(self):
        rng = random.Random(642)
        for _ in range(200):
            formula = random_grouped_cnf(rng, max_vars=10)
            assign = {v: rng.random() < 0.5
                      for v in range(1, formula.num_vars + 1)}
            gids = sorted(formula.groups)
            active = rng.sample(gids, rng.randint(0, len(gids)))
            assert (verify_model(formula, active, assign)
                    == eval_formula(formula, assign, active=active))
