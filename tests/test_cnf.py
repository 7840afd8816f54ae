"""Exactly-e encoding, grouped formula construction, DIMACS/GCNF formats."""
from __future__ import annotations

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minelab.board import Board, Boundary, GameState, flag, frontiers, reveal
from minelab.cnf import (GroupedCnf, InfeasibleLabel, build_formula,
                         encode_exact_count, export_dimacs, export_gcnf,
                         parse_dimacs, parse_gcnf, split_components)
from minelab.sat import solve, verify_model

from conftest import (consistent_placements, eval_clause,
                      random_reachable_state, truth_table_models)


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
    from minelab.board import generate_board
    for _ in range(100):
        n = int(rng.integers(5, 9))
        board = generate_board(n, float(rng.uniform(0.1, 0.3)), rng,
                               max_attempts=50)
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
        formula = build_formula(state)
        # 7 remaining covered neighbors, all forced safe: unit negatives.
        assert formula.num_vars == 7
        clauses = formula.all_clauses()
        assert sorted(clauses) == [(-v,) for v in range(7, 0, -1)]
        assert all(len(c) == 1 and c[0] < 0 for c in clauses)

    def test_group_per_inner_site(self, rng):
        state = _random_frontier_state(rng)
        fr = frontiers(state)
        formula = build_formula(state)
        assert set(formula.groups) == set(range(len(fr.inner)))
        assert list(formula.var_sites) == list(fr.outer)

    def test_models_equal_bruteforce_placements(self, rng):
        for _ in range(25):
            state = _random_frontier_state(rng)
            formula = build_formula(state)
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
        from minelab.board import parse_overlay
        state = parse_overlay("1#1\n###\n###\n", Boundary.OPEN)
        formula = build_formula(state)
        models = truth_table_models(formula)
        weights = {sum(1 for v in m if m[v]) for m in models}
        assert weights == {1, 2}

    def test_empty_frontier_rejected(self):
        board = Board(3, Boundary.OPEN, [])
        state = GameState(board)
        with pytest.raises(ValueError):
            build_formula(state)

    def test_infeasible_label_reported(self):
        from minelab.board import parse_overlay
        # A lone "8" with a single covered neighbor cannot be satisfied.
        state = parse_overlay("8#\n##\n", Boundary.OPEN)
        with pytest.raises(InfeasibleLabel):
            build_formula(state)


def _group_vars(formula: GroupedCnf, g: int) -> set:
    return {abs(l) for clause in formula.groups[g] for l in clause}


class TestSplitComponents:
    def test_loose_variable_and_empty_group(self):
        formula = GroupedCnf(num_vars=5,
                             groups={0: [(3, -5)], 1: [(-1,)], 2: [],
                                     3: [(5, 1)]},
                             var_sites=[(0, c) for c in range(5)])
        parts = split_components(formula)
        assert [p.global_vars for p in parts] == [(1, 3, 5), (2,), (4,), ()]
        assert [sorted(p.groups) for p in parts] == [[0, 1, 3], [], [], [2]]
        assert parts[0].groups == {0: [(2, -3)], 1: [(-1,)], 3: [(3, 1)]}
        assert parts[0].var_sites == ((0, 0), (0, 2), (0, 4))
        assert parts[3].num_vars == 0 and parts[3].var_sites == ()

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_parts_partition_reachable_formulas(self, rng, boundary):
        states = multi = 0
        for _ in range(200):
            if states >= 60 and multi >= 5:
                break
            state = random_reachable_state(rng, boundary=boundary)
            if state is None:
                continue
            formula = build_formula(state)
            parts = split_components(formula)
            assert sorted(g for p in parts for g in p.groups) == \
                sorted(formula.groups)
            assert sorted(v for p in parts for v in p.global_vars) == \
                list(range(1, formula.num_vars + 1))
            joined = {}
            for part in parts:
                gvars = part.global_vars
                assert list(gvars) == sorted(gvars)
                assert part.num_vars == len(gvars)
                assert part.var_sites == tuple(formula.var_sites[v - 1]
                                               for v in gvars)
                for g, clauses in part.groups.items():
                    assert [tuple(gvars[l - 1] if l > 0 else -gvars[-l - 1]
                                  for l in c) for c in clauses] == \
                        [tuple(c) for c in formula.groups[g]]
                # The part's groups are connected through shared variables.
                reached, todo = set(), [min(part.groups)]
                while todo:
                    g = todo.pop()
                    if g not in reached:
                        reached.add(g)
                        todo.extend(h for h in part.groups
                                    if _group_vars(formula, g)
                                    & _group_vars(formula, h))
                assert reached == set(part.groups)
                res = solve(part)
                assert res.sat
                joined.update((gvars[u - 1], val)
                              for u, val in res.model.items())
            # No variable is mentioned by groups of two parts.
            owner = {v: k for k, p in enumerate(parts) for v in p.global_vars}
            for k, part in enumerate(parts):
                for g in part.groups:
                    assert {owner[v] for v in _group_vars(formula, g)} == {k}
            assert verify_model(formula, None, joined)
            states += 1
            multi += len(parts) >= 2
        assert states >= 60 and multi >= 5


class TestFormats:
    def test_dimacs_transcription(self):
        formula = GroupedCnf(num_vars=2, groups={0: [(1, 2), (-1, -2)]},
                             var_sites=[(0, 0), (0, 1)])
        text = export_dimacs(formula)
        lines = text.strip().splitlines()
        assert lines[0] == "p cnf 2 2"
        assert lines[1:] == ["1 2 0", "-1 -2 0"]

    def test_empty_formula(self):
        formula = GroupedCnf(num_vars=0, groups={}, var_sites=[])
        assert export_dimacs(formula).strip().splitlines()[0] == "p cnf 0 0"

    def test_gcnf_header_and_tags(self):
        formula = GroupedCnf(num_vars=2,
                             groups={0: [(1,)], 1: [(-1, 2), (-2,)]},
                             var_sites=[(0, 0), (0, 1)])
        text = export_gcnf(formula)
        lines = text.strip().splitlines()
        assert lines[0] == "p gcnf 2 3 2"
        assert lines[1] == "{1} 1 0"
        assert lines[2] == "{2} -1 2 0"
        assert lines[3] == "{2} -2 0"

    def test_gcnf_round_trip_preserves_groups(self, rng):
        state = _random_frontier_state(rng)
        formula = build_formula(state)
        back = parse_gcnf(export_gcnf(formula))
        assert back.num_vars == formula.num_vars
        assert set(back.groups) == set(formula.groups)
        for g in formula.groups:
            assert [tuple(c) for c in back.groups[g]] == \
                [tuple(c) for c in formula.groups[g]]

    def test_gcnf_reference_grammar_round_trip(self, rng):
        # Re-parse with an independent minimal reader of the GCNF grammar.
        state = _random_frontier_state(rng)
        formula = build_formula(state)
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
        formula = GroupedCnf(num_vars=3, groups={0: [(1, -2), (2, 3), (-3,)]},
                             var_sites=[(0, 0), (0, 1), (0, 2)])
        back = parse_dimacs(export_dimacs(formula))
        assert back.num_vars == 3
        assert back.all_clauses() == formula.all_clauses()

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 2\n1 0\n")
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 1 1\n2 0\n")
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 1 2\n1 0\n")
        with pytest.raises(ValueError):
            parse_gcnf("p gcnf 1 1 1\n1 0\n")
