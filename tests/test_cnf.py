"""Exactly-e encoding, grouped formula construction, DIMACS/GCNF formats."""
from __future__ import annotations

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minelab.board import Board, Boundary, GameState, flag, frontiers, reveal
from minelab.cnf import (GroupedCnf, InfeasibleLabel, build_formula,
                         export_dimacs, export_gcnf, parse_dimacs, parse_gcnf)
from minelab.cnf import _encode_exact_count as encode_exact_count

from conftest import (budget_board, consistent_placements, eval_clause,
                      parse_overlay, state_formula, truth_table_models)


class TestEncodeExactCount:
    def test_all_safe(self):
        assert sorted(encode_exact_count(0, [2, 3, 4])) == [(-4,), (-3,),
                                                            (-2,)]

    def test_weight_two_truth_table(self):
        clauses = encode_exact_count(2, [1, 2, 3])
        sats = []
        for bits in itertools.product((False, True), repeat=3):
            assign = {v: bits[v - 1] for v in (1, 2, 3)}
            if all(eval_clause(c, assign) for c in clauses):
                sats.append(bits)
        assert sats == [(False, True, True), (True, False, True),
                        (True, True, False)]

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_clause_count_and_models(self, m, data):
        e = data.draw(st.integers(0, m))
        variables = list(range(1, m + 1))
        clauses = encode_exact_count(e, variables)
        assert len(clauses) == comb(m, e + 1) + comb(m, m - e + 1)
        for bits in itertools.product((False, True), repeat=m):
            assign = {v: bits[v - 1] for v in variables}
            ok = all(eval_clause(c, assign) for c in clauses)
            assert ok == (sum(bits) == e)

    def test_infeasible(self):
        with pytest.raises(InfeasibleLabel):
            encode_exact_count(-1, [1, 2])
        with pytest.raises(InfeasibleLabel):
            encode_exact_count(3, [1, 2])


def _state_after_start(board: Board) -> GameState:
    state = GameState(board)
    reveal(state, board.start)
    return state


def _random_frontier_state(rng, max_outer=12):
    for _ in range(100):
        n = int(rng.integers(5, 9))
        board = budget_board(n, float(rng.uniform(0.1, 0.3)), rng)
        state = _state_after_start(board)
        fr = frontiers(state)
        if fr.inner and 1 <= len(fr.outer) <= max_outer:
            return state
    pytest.skip("no frontier state found")


class TestBuildFormula:
    def test_zero_label_units(self):
        # One revealed site with label 0 and 8 covered neighbors would have
        # flood-filled; flags around it stop the flood while keeping its
        # effective label 0... instead build label-0-after-flags directly:
        # a site labeled 1 with one flagged mined neighbor.
        board = Board(5, Boundary.OPEN, [(1, 1)])
        state = GameState(board)
        reveal(state, (2, 2))
        flag(state, (1, 1))
        formula = state_formula(state)
        # 7 remaining covered neighbors, all forced safe: unit negatives.
        assert formula.num_vars == 7
        clauses = formula.groups[0]
        assert sorted(clauses) == [(-v,) for v in range(7, 0, -1)]
        assert all(len(c) == 1 and c[0] < 0 for c in clauses)

    def test_group_per_inner_site(self, rng):
        # Group i is row i with its label; VarId j + 1 is outer site j.
        state = _random_frontier_state(rng)
        fr = frontiers(state)
        formula = build_formula(fr)
        assert formula.num_vars == len(fr.outer)
        assert formula.labels == dict(enumerate(fr.labels))
        assert formula.groups == {
            i: encode_exact_count(e, [j + 1 for j in support])
            for i, (e, support) in enumerate(zip(fr.labels, fr.supports))}

    def test_models_equal_bruteforce_placements(self, rng):
        for _ in range(25):
            state = _random_frontier_state(rng)
            formula = state_formula(state)
            fr = frontiers(state)
            placements = {frozenset(p) for p in consistent_placements(state)}
            models = truth_table_models(formula)
            model_sets = {
                frozenset(fr.outer[v - 1] for v in m if m[v])
                for m in models}
            assert model_sets == placements

    def test_no_global_count_constraint(self):
        # Two "1" labels with overlapping neighborhoods admit both a shared
        # single mine and two separate mines: the encoding carries no global
        # mine-count constraint, so both weights satisfy it.
        state = parse_overlay("1#1\n###\n###\n", Boundary.OPEN)
        formula = state_formula(state)
        models = truth_table_models(formula)
        weights = {sum(1 for v in m if m[v]) for m in models}
        assert weights == {1, 2}

    def test_empty_frontier_gives_empty_formula(self):
        # Nothing revealed: no inner site, so no group and no variable.
        formula = state_formula(GameState(Board(3, Boundary.OPEN, [])))
        assert (formula.num_vars, formula.groups) == (0, {})

    def test_infeasible_label_reported(self):
        # A lone "8" with a single covered neighbor cannot be satisfied.
        state = parse_overlay("8#\n##\n", Boundary.OPEN)
        with pytest.raises(InfeasibleLabel):
            state_formula(state)


class TestFormats:
    def test_dimacs_transcription(self):
        formula = GroupedCnf(num_vars=2, groups={0: [(1, 2), (-1, -2)]})
        text = export_dimacs(formula)
        lines = text.strip().splitlines()
        assert lines[0] == "p cnf 2 2"
        assert lines[1:] == ["1 2 0", "-1 -2 0"]

    def test_empty_formula(self):
        formula = GroupedCnf(num_vars=0, groups={})
        assert export_dimacs(formula).strip().splitlines()[0] == "p cnf 0 0"

    def test_gcnf_header_and_tags(self):
        formula = GroupedCnf(num_vars=2,
                             groups={0: [(1,)], 1: [(-1, 2), (-2,)]})
        text = export_gcnf(formula)
        lines = text.strip().splitlines()
        assert lines[0] == "p gcnf 2 3 2"
        assert lines[1] == "{1} 1 0"
        assert lines[2] == "{2} -1 2 0"
        assert lines[3] == "{2} -2 0"

    def test_gcnf_round_trip_preserves_groups(self, rng):
        state = _random_frontier_state(rng)
        formula = state_formula(state)
        back = parse_gcnf(export_gcnf(formula))
        assert back.num_vars == formula.num_vars
        # The format carries no labels.
        assert back.labels is None
        assert set(back.groups) == set(formula.groups)
        for g in formula.groups:
            assert [tuple(c) for c in back.groups[g]] == \
                [tuple(c) for c in formula.groups[g]]

    def test_gcnf_reference_grammar_round_trip(self, rng):
        # Re-parse with an independent minimal reader of the GCNF grammar.
        state = _random_frontier_state(rng)
        formula = state_formula(state)
        text = export_gcnf(formula)
        header = None
        groups = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                header = line.split()
                continue
            assert line.startswith("{")
            tag, rest = line[1:].split("}", 1)
            lits = [int(x) for x in rest.split()]
            assert lits[-1] == 0
            groups.setdefault(int(tag), []).append(tuple(lits[:-1]))
        assert header == ["p", "gcnf", str(formula.num_vars),
                          str(formula.num_clauses()), str(len(formula.groups))]
        assert len(groups) == len(formula.groups)

    def test_dimacs_round_trip(self):
        formula = GroupedCnf(num_vars=3, groups={0: [(1, -2), (2, 3), (-3,)]})
        back = parse_dimacs(export_dimacs(formula))
        assert back.num_vars == 3
        assert back.groups == formula.groups

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 2\n1 0\n")
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 1 1\n2 0\n")
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 1 2\n1 0\n")
        with pytest.raises(ValueError):
            parse_gcnf("p gcnf 1 1 1\n1 0\n")
