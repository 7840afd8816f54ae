"""k-set search tests: constraint extraction, single-combination algebra,
soundness against exhaustive enumeration, and enumeration accounting."""
from __future__ import annotations

import itertools
import math
from typing import List, Tuple

import numpy as np
import pytest

from minelab.board import Boundary, parse_overlay
from minelab.kset import (ConstraintSystem, ForcedAssignment, build_constraints,
                          combine_and_infer, kset_infer)

from conftest import load_state, random_reachable_state


def make_system(a, e) -> ConstraintSystem:
    a = np.asarray(a, dtype=np.int8)
    e = np.asarray(e, dtype=np.int64)
    return ConstraintSystem(a=a, e=e,
                            row_sites=tuple((0, i) for i in range(a.shape[0])),
                            col_sites=tuple((1, j) for j in range(a.shape[1])))


def planted_system(rng: np.random.Generator, n_rows: int, n_cols: int,
                   density: float = 0.35) -> ConstraintSystem:
    """Random 0/1 system with labels from a hidden solution, so consistent."""
    a = (rng.random((n_rows, n_cols)) < density).astype(np.int8)
    x = (rng.random(n_cols) < 0.5).astype(np.int64)
    return make_system(a, a @ x)


def all_solutions(cs: ConstraintSystem) -> np.ndarray:
    """Every x in {0,1}^n with a @ x = e, as a (n_solutions, n) array."""
    n = cs.n_cols
    xs = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    ok = np.all(xs @ cs.a.T.astype(np.int64) == cs.e, axis=1)
    return xs[ok]


def forced_by_enumeration(cs: ConstraintSystem) -> List[ForcedAssignment]:
    sols = all_solutions(cs)
    assert len(sols) > 0, "oracle needs a consistent system"
    out = []
    for j in range(cs.n_cols):
        col = sols[:, j]
        if np.all(col == col[0]):
            out.append(ForcedAssignment(j, int(col[0])))
    return out


def all_combinations_forced(cs: ConstraintSystem,
                            k: int) -> List[ForcedAssignment]:
    """Union of combine_and_infer over every row set of size <= k and every
    sign vector: the enumeration kset_infer prunes."""
    forced = set()
    for s in range(1, k + 1):
        for rows in itertools.combinations(range(cs.n_rows), s):
            for signs in itertools.product((0, 1), repeat=s):
                forced.update(combine_and_infer(cs, rows, signs))
    return sorted(forced)


class TestBuildConstraints:
    def test_single_inner_two_covered(self):
        # One revealed site, one flagged neighbor: a single [1 1] row with
        # effective label 1.
        state = parse_overlay("2#\n#F\n", Boundary.OPEN)
        cs = build_constraints(state)
        assert cs.a.tolist() == [[1, 1]]
        assert cs.e.tolist() == [1]
        assert cs.row_sites == ((0, 0),)
        assert cs.col_sites == ((0, 1), (1, 0))

    def test_mine_row_six_rows(self):
        # The ring of labeled sites around the lone covered centre gives six
        # identical rows; the two flags lower every label to 1.
        state = load_state("mine_row.state", board_name="mine_row.board")
        cs = build_constraints(state)
        assert cs.a.shape == (6, 1)
        assert np.all(cs.a == 1)
        assert cs.e.tolist() == [1] * 6
        assert cs.row_sites == ((1, 1), (1, 2), (1, 3), (3, 1), (3, 2), (3, 3))
        assert cs.col_sites == ((2, 2),)

    def test_disjoint_components_block_diagonal(self):
        text = "#1000\n11000\n00000\n00011\n0001#\n"
        cs = build_constraints(parse_overlay(text, Boundary.OPEN))
        assert cs.col_sites == ((0, 0), (4, 4))
        assert cs.row_sites == ((0, 1), (1, 0), (1, 1), (3, 3), (3, 4), (4, 3))
        assert cs.a[:3].tolist() == [[1, 0]] * 3
        assert cs.a[3:].tolist() == [[0, 1]] * 3
        assert cs.e.tolist() == [1] * 6

    def test_labels_within_row_sums(self, rng):
        for _ in range(40):
            state = random_reachable_state(rng, max_outer=14)
            if state is None:
                continue
            cs = build_constraints(state)
            sums = cs.a.sum(axis=1)
            assert np.all(cs.e >= 0)
            assert np.all(cs.e <= sums)
            assert np.all(sums >= 1)


class TestCombineAndInfer:
    def test_single_row_label_zero(self):
        cs = make_system([[1, 1, 1]], [0])
        out = combine_and_infer(cs, [0], [0])
        assert out == [ForcedAssignment(0, 0), ForcedAssignment(1, 0),
                       ForcedAssignment(2, 0)]

    def test_single_row_saturated(self):
        cs = make_system([[1, 0, 1]], [2])
        out = combine_and_infer(cs, [0], [0])
        assert out == [ForcedAssignment(0, 1), ForcedAssignment(2, 1)]

    def test_signed_pair_minimum_tight(self):
        # Subtracting a 1-labeled pair row from a 2-labeled triple row
        # leaves c = [0 0 -1], r = -1 = min, forcing the third column to 1.
        cs = make_system([[1, 1, 0], [1, 1, 1]], [1, 2])
        out = combine_and_infer(cs, [0, 1], [0, 1])
        assert out == [ForcedAssignment(2, 1)]
        # Verified against all eight assignments of the full system.
        sols = all_solutions(cs)
        assert len(sols) == 2
        assert np.all(sols[:, 2] == 1)
        assert forced_by_enumeration(cs) == [ForcedAssignment(2, 1)]

    def test_mid_range_label_infers_nothing(self):
        cs = make_system([[1, 1, 1]], [1])
        assert combine_and_infer(cs, [0], [0]) == []

    def test_cancelled_combination_infers_nothing(self):
        cs = make_system([[1, 1, 0], [1, 1, 1]], [1, 2])
        assert combine_and_infer(cs, [0, 0], [0, 1]) == []

    def test_length_mismatch(self):
        cs = make_system([[1]], [1])
        with pytest.raises(ValueError):
            combine_and_infer(cs, [0], [0, 1])

    def test_sound_on_random_combinations(self, rng):
        for trial in range(150):
            cs = planted_system(rng, int(rng.integers(1, 6)),
                                int(rng.integers(2, 9)))
            sols = all_solutions(cs)
            size = int(rng.integers(1, 4))
            rows = [int(r) for r in rng.integers(0, cs.n_rows, size)]
            signs = [int(b) for b in rng.integers(0, 2, size)]
            for fa in combine_and_infer(cs, rows, signs):
                assert np.all(sols[:, fa.col] == fa.value), (
                    f"trial {trial}: unsound {fa} for rows={rows} "
                    f"signs={signs}")


class TestKsetInfer:
    def test_k1_is_the_single_point_rule(self, rng):
        checked = 0
        for _ in range(60):
            state = random_reachable_state(rng, max_outer=14)
            if state is None:
                continue
            cs = build_constraints(state)
            expect = set()
            for i in range(cs.n_rows):
                support = [int(j) for j in np.flatnonzero(cs.a[i])]
                if cs.e[i] == 0:
                    expect.update((j, 0) for j in support)
                elif cs.e[i] == len(support):
                    expect.update((j, 1) for j in support)
            got = kset_infer(cs, 1)
            assert got == [ForcedAssignment(j, v) for j, v in sorted(expect)]
            checked += 1
        assert checked >= 20

    def test_mine_row_k1_forces_centre_mine(self):
        state = load_state("mine_row.state", board_name="mine_row.board")
        cs = build_constraints(state)
        assert kset_infer(cs, 1) == [ForcedAssignment(0, 1)]

    def test_diagonal_wall_no_inference_for_any_k(self):
        state = load_state("ambiguous_pocket.state", Boundary.OPEN)
        cs = build_constraints(state)
        for k in (1, 2, 3, 4):
            assert kset_infer(cs, k) == []

    def test_monotone_in_k(self, rng):
        for _ in range(40):
            cs = planted_system(rng, int(rng.integers(2, 8)),
                                int(rng.integers(3, 10)))
            prev: set = set()
            for k in (1, 2, 3):
                cur = set(kset_infer(cs, k))
                assert prev <= cur
                prev = cur

    def test_sound_against_enumeration(self, rng):
        for trial in range(25):
            cs = planted_system(rng, 10, 12)
            oracle = set(forced_by_enumeration(cs))
            for k in (1, 2, 3):
                got = set(kset_infer(cs, k))
                assert got <= oracle, f"trial {trial} k={k}"

    def test_pruning_changes_nothing_on_consistent_systems(self, rng):
        for _ in range(30):
            cs = planted_system(rng, int(rng.integers(2, 9)),
                                int(rng.integers(3, 9)), density=0.3)
            for k in (2, 3):
                assert kset_infer(cs, k) == all_combinations_forced(cs, k)

    def test_evaluation_counter_full_enumeration(self):
        cs = make_system(np.ones((5, 4)), [2] * 5)
        for k in (1, 2, 3):
            stats: dict = {}
            kset_infer(cs, k, stats=stats)
            expect = sum(math.comb(5, s) * (1 << (s - 1))
                         for s in range(1, k + 1))
            assert stats["evaluated"] == expect

    def test_pruned_enumeration_within_envelope(self, rng):
        for _ in range(20):
            cs = planted_system(rng, int(rng.integers(2, 9)),
                                int(rng.integers(3, 9)))
            m = cs.n_rows
            for k in (2, 3):
                stats: dict = {}
                kset_infer(cs, k, stats=stats)
                bound = sum(math.comb(m, s) * (1 << (s - 1))
                            for s in range(1, k + 1))
                assert 0 < stats["evaluated"] <= bound

    def test_disconnected_rows_enumerate_singletons_only(self):
        cs = make_system([[1, 1, 0, 0], [0, 0, 1, 1]], [1, 1])
        stats: dict = {}
        kset_infer(cs, 3, stats=stats)
        assert stats["evaluated"] == 2

    def test_k_must_be_positive(self):
        cs = make_system([[1]], [1])
        with pytest.raises(ValueError):
            kset_infer(cs, 0)
