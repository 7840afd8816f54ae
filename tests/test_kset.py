"""k-set search tests: constraint extraction, single-combination algebra,
soundness against exhaustive enumeration, enumeration accounting, and the
bitmask search against a direct per-sign-vector reference."""
from __future__ import annotations

import hashlib
import itertools
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import pytest

import minelab.player
from minelab.board import Boundary, Frontiers, generate_board
from minelab.harness import game_seed
from minelab.kset import build_constraints, kset_infer

from conftest import load_state, parse_overlay, random_reachable_state


def make_system(a, e) -> Frontiers:
    """The frontier system of a dense 0/1 matrix a and labels e."""
    a = np.asarray(a)
    return Frontiers(inner=tuple((0, i) for i in range(a.shape[0])),
                     outer=tuple((1, j) for j in range(a.shape[1])),
                     supports=tuple(tuple(np.flatnonzero(row).tolist())
                                    for row in a),
                     labels=tuple(int(x) for x in e))


def planted_system(rng: np.random.Generator, n_rows: int, n_cols: int,
                   density: float = 0.35) -> Frontiers:
    """Random 0/1 system with labels from a hidden solution, so consistent."""
    a = (rng.random((n_rows, n_cols)) < density).astype(np.int8)
    x = (rng.random(n_cols) < 0.5).astype(np.int64)
    return make_system(a, a @ x)


def all_solutions(fr: Frontiers) -> np.ndarray:
    """Every x in {0,1}^n with a @ x = e, as a (n_solutions, n) array."""
    n = len(fr.outer)
    a = np.zeros((len(fr.inner), n), dtype=np.int64)
    for i, support in enumerate(fr.supports):
        a[i, list(support)] = 1
    xs = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    ok = np.all(xs @ a.T == np.array(fr.labels), axis=1)
    return xs[ok]


def forced_by_enumeration(fr: Frontiers) -> List[Tuple[int, int]]:
    sols = all_solutions(fr)
    assert len(sols) > 0, "oracle needs a consistent system"
    out = []
    for j in range(len(fr.outer)):
        col = sols[:, j]
        if np.all(col == col[0]):
            out.append((j, int(col[0])))
    return out


def combine_and_infer(fr: Frontiers, rows: Sequence[int],
                      signs: Sequence[int]) -> List[Tuple[int, int]]:
    """Reference evaluation of one signed combination of rows (signs are
    the b_l bits): the assignments forced when the combined label meets
    the combination's attainable maximum or minimum. Repeated rows are
    allowed here (the general multiset form); kset_infer skips them."""
    if len(rows) != len(signs):
        raise ValueError("rows and signs must have equal length")
    c: Dict[int, int] = {}
    r = 0
    for i, b in zip(rows, signs):
        s = -1 if b else 1
        r += s * fr.labels[i]
        for j in fr.supports[i]:
            c[j] = c.get(j, 0) + s
    hi = sum(v for v in c.values() if v > 0)
    lo = sum(v for v in c.values() if v < 0)
    if hi == lo:               # all coefficients cancelled, nothing to force
        return []
    if r == hi:
        return [(j, int(c[j] > 0)) for j in sorted(c) if c[j]]
    if r == lo:
        return [(j, int(c[j] < 0)) for j in sorted(c) if c[j]]
    return []


def all_combinations_forced(fr: Frontiers,
                            k: int) -> List[Tuple[int, int]]:
    """Union of combine_and_infer over every row set of size <= k and every
    sign vector: the enumeration kset_infer prunes."""
    forced = set()
    for s in range(1, k + 1):
        for rows in itertools.combinations(range(len(fr.inner)), s):
            for signs in itertools.product((0, 1), repeat=s):
                forced.update(combine_and_infer(fr, rows, signs))
    return sorted(forced)


def _connected_subsets(supports: Sequence[Tuple[int, ...]], n_cols: int,
                       k: int) -> Iterator[Tuple[int, ...]]:
    """Every connected row set of size 1..k, each exactly once (ESU scheme
    on adjacency sets, recursive)."""
    by_col: List[List[int]] = [[] for _ in range(n_cols)]
    for i, sup in enumerate(supports):
        for j in sup:
            by_col[j].append(i)
    adj: List[set] = [set() for _ in supports]
    for rows in by_col:
        for x in rows:
            adj[x].update(y for y in rows if y != x)

    def esu(sub: List[int], ext: List[int],
            root: int) -> Iterator[Tuple[int, ...]]:
        yield tuple(sub)
        if len(sub) == k:
            return
        seen_nb = set().union(*(adj[v] for v in sub)) | set(sub)
        for idx, w in enumerate(ext):
            new_ext = ext[idx + 1:] + sorted(
                u for u in adj[w] if u > root and u not in seen_nb)
            sub.append(w)
            yield from esu(sub, new_ext, root)
            sub.pop()

    for root in range(len(supports)):
        yield from esu([root], sorted(u for u in adj[root] if u > root),
                       root)


def reference_kset_infer(fr: Frontiers, k: int, *,
                         stats: Optional[dict] = None
                         ) -> List[Tuple[int, int]]:
    """kset_infer evaluated directly: combine_and_infer on every connected
    row set of <= k rows and every sign vector with the first sign
    positive."""
    if k < 1:
        raise ValueError("k must be >= 1")
    evaluated = 0
    forced: set = set()
    for sub in _connected_subsets(fr.supports, len(fr.outer), k):
        for bits in range(1 << (len(sub) - 1)):
            evaluated += 1
            signs = [0] + [(bits >> (t - 1)) & 1 for t in range(1, len(sub))]
            forced.update(combine_and_infer(fr, sub, signs))
    if stats is not None:
        stats["evaluated"] = evaluated
    return sorted(forced)


def random_system(rng: np.random.Generator) -> Frontiers:
    """Random supports (some empty) with labels from -1 to |support| + 1, so
    inconsistent systems are included."""
    n_rows = int(rng.integers(0, 9))
    n_cols = int(rng.integers(1, 11))
    density = float(rng.uniform(0.1, 0.7))
    supports = []
    for _ in range(n_rows):
        if rng.random() < 0.1:
            supports.append(())
        else:
            supports.append(tuple(np.flatnonzero(
                rng.random(n_cols) < density).tolist()))
    labels = tuple(int(rng.integers(-1, len(s) + 2)) for s in supports)
    return Frontiers(inner=tuple((0, i) for i in range(n_rows)),
                     outer=tuple((1, j) for j in range(n_cols)),
                     supports=tuple(supports), labels=labels)


def assert_matches_reference(fr: Frontiers, k: int) -> None:
    got_stats: dict = {}
    want_stats: dict = {}
    got = kset_infer(fr, k, stats=got_stats)
    want = reference_kset_infer(fr, k, stats=want_stats)
    assert got == want, (fr, k)
    assert got_stats == want_stats, (fr, k)


class TestBuildConstraints:
    def test_single_inner_two_covered(self):
        # One revealed site, one flagged neighbor: a single [1 1] row with
        # effective label 1.
        state = parse_overlay("2#\n#F\n", Boundary.OPEN)
        fr = build_constraints(state)
        assert fr.supports == ((0, 1),)
        assert fr.labels == (1,)
        assert fr.inner == ((0, 0),)
        assert fr.outer == ((0, 1), (1, 0))

    def test_mine_row_six_rows(self):
        # The ring of labeled sites around the lone covered centre gives six
        # identical rows; the two flags lower every label to 1.
        state = load_state("mine_row.state", board_name="mine_row.board")
        fr = build_constraints(state)
        assert fr.supports == ((0,),) * 6
        assert fr.labels == (1,) * 6
        assert fr.inner == ((1, 1), (1, 2), (1, 3), (3, 1), (3, 2), (3, 3))
        assert fr.outer == ((2, 2),)

    def test_disjoint_components_block_diagonal(self):
        text = "#1000\n11000\n00000\n00011\n0001#\n"
        fr = build_constraints(parse_overlay(text, Boundary.OPEN))
        assert fr.outer == ((0, 0), (4, 4))
        assert fr.inner == ((0, 1), (1, 0), (1, 1), (3, 3), (3, 4), (4, 3))
        assert fr.supports == ((0,),) * 3 + ((1,),) * 3
        assert fr.labels == (1,) * 6

    def test_labels_within_row_sums(self, rng):
        for _ in range(40):
            state = random_reachable_state(rng, max_outer=14)
            if state is None:
                continue
            fr = build_constraints(state)
            for support, e in zip(fr.supports, fr.labels):
                assert 1 <= len(support) and 0 <= e <= len(support)


class TestCombineAndInfer:
    def test_single_row_label_zero(self):
        fr = make_system([[1, 1, 1]], [0])
        out = combine_and_infer(fr, [0], [0])
        assert out == [(0, 0), (1, 0),
                       (2, 0)]

    def test_single_row_saturated(self):
        fr = make_system([[1, 0, 1]], [2])
        out = combine_and_infer(fr, [0], [0])
        assert out == [(0, 1), (2, 1)]

    def test_signed_pair_minimum_tight(self):
        # Subtracting a 1-labeled pair row from a 2-labeled triple row
        # leaves c = [0 0 -1], r = -1 = min, forcing the third column to 1.
        fr = make_system([[1, 1, 0], [1, 1, 1]], [1, 2])
        out = combine_and_infer(fr, [0, 1], [0, 1])
        assert out == [(2, 1)]
        # Verified against all eight assignments of the full system.
        sols = all_solutions(fr)
        assert len(sols) == 2
        assert np.all(sols[:, 2] == 1)
        assert forced_by_enumeration(fr) == [(2, 1)]

    def test_mid_range_label_infers_nothing(self):
        fr = make_system([[1, 1, 1]], [1])
        assert combine_and_infer(fr, [0], [0]) == []

    def test_cancelled_combination_infers_nothing(self):
        fr = make_system([[1, 1, 0], [1, 1, 1]], [1, 2])
        assert combine_and_infer(fr, [0, 0], [0, 1]) == []

    def test_length_mismatch(self):
        fr = make_system([[1]], [1])
        with pytest.raises(ValueError):
            combine_and_infer(fr, [0], [0, 1])

    def test_sound_on_random_combinations(self, rng):
        for trial in range(150):
            fr = planted_system(rng, int(rng.integers(1, 6)),
                                int(rng.integers(2, 9)))
            sols = all_solutions(fr)
            size = int(rng.integers(1, 4))
            rows = [int(r) for r in rng.integers(0, len(fr.inner), size)]
            signs = [int(b) for b in rng.integers(0, 2, size)]
            for j, b in combine_and_infer(fr, rows, signs):
                assert np.all(sols[:, j] == b), (
                    f"trial {trial}: unsound {(j, b)} for rows={rows} "
                    f"signs={signs}")


class TestKsetInfer:
    def test_k1_is_the_single_point_rule(self, rng):
        checked = 0
        for _ in range(60):
            state = random_reachable_state(rng, max_outer=14)
            if state is None:
                continue
            fr = build_constraints(state)
            expect = set()
            for support, e in zip(fr.supports, fr.labels):
                if e == 0:
                    expect.update((j, 0) for j in support)
                elif e == len(support):
                    expect.update((j, 1) for j in support)
            got = kset_infer(fr, 1)
            assert got == [(j, v) for j, v in sorted(expect)]
            checked += 1
        assert checked >= 20

    def test_mine_row_k1_forces_centre_mine(self):
        state = load_state("mine_row.state", board_name="mine_row.board")
        fr = build_constraints(state)
        assert kset_infer(fr, 1) == [(0, 1)]

    def test_diagonal_wall_no_inference_for_any_k(self):
        state = load_state("ambiguous_pocket.state", Boundary.OPEN)
        fr = build_constraints(state)
        for k in (1, 2, 3, 4):
            assert kset_infer(fr, k) == []

    def test_monotone_in_k(self, rng):
        for _ in range(40):
            fr = planted_system(rng, int(rng.integers(2, 8)),
                                int(rng.integers(3, 10)))
            prev: set = set()
            for k in (1, 2, 3):
                cur = set(kset_infer(fr, k))
                assert prev <= cur
                prev = cur

    def test_sound_against_enumeration(self, rng):
        for trial in range(25):
            fr = planted_system(rng, 10, 12)
            oracle = set(forced_by_enumeration(fr))
            for k in (1, 2, 3):
                got = set(kset_infer(fr, k))
                assert got <= oracle, f"trial {trial} k={k}"

    def test_pruning_changes_nothing_on_consistent_systems(self, rng):
        for _ in range(30):
            fr = planted_system(rng, int(rng.integers(2, 9)),
                                int(rng.integers(3, 9)), density=0.3)
            for k in (2, 3):
                assert kset_infer(fr, k) == all_combinations_forced(fr, k)

    def test_evaluation_counter_full_enumeration(self):
        fr = make_system(np.ones((5, 4)), [2] * 5)
        for k in (1, 2, 3):
            stats: dict = {}
            kset_infer(fr, k, stats=stats)
            expect = sum(math.comb(5, s) * (1 << (s - 1))
                         for s in range(1, k + 1))
            assert stats["evaluated"] == expect

    def test_pruned_enumeration_within_envelope(self, rng):
        for _ in range(20):
            fr = planted_system(rng, int(rng.integers(2, 9)),
                                int(rng.integers(3, 9)))
            m = len(fr.inner)
            for k in (2, 3):
                stats: dict = {}
                kset_infer(fr, k, stats=stats)
                bound = sum(math.comb(m, s) * (1 << (s - 1))
                            for s in range(1, k + 1))
                assert 0 < stats["evaluated"] <= bound

    def test_disconnected_rows_enumerate_singletons_only(self):
        fr = make_system([[1, 1, 0, 0], [0, 0, 1, 1]], [1, 1])
        stats: dict = {}
        kset_infer(fr, 3, stats=stats)
        assert stats["evaluated"] == 2

    def test_k_must_be_positive(self):
        fr = make_system([[1]], [1])
        with pytest.raises(ValueError):
            kset_infer(fr, 0)


class TestAgainstReference:
    def test_random_systems(self, rng):
        for _ in range(400):
            fr = random_system(rng)
            for k in (1, 2, 3, 4, 5):
                assert_matches_reference(fr, k)

    def test_gaps_wider_than_a_byte(self):
        # A = 0..59, B = 0..19, C = 20..89. Only (+A, -B, +C) is tight: it
        # forces columns 20..89 to 1. (+A, +B, +C) has r minus the minimum
        # equal to 130, more than one byte holds.
        def span(lo, hi):
            return tuple(range(lo, hi))
        fr = Frontiers(inner=((0, 0), (0, 1), (0, 2)),
                       outer=tuple((1, j) for j in range(90)),
                       supports=(span(0, 60), span(0, 20), span(20, 90)),
                       labels=(55, 10, 65))
        assert kset_infer(fr, 2) == []
        assert kset_infer(fr, 3) == [(j, 1)
                                     for j in range(20, 90)]
        for k in (1, 2, 3, 4):
            assert_matches_reference(fr, k)

    def test_reachable_states(self, rng):
        checked = 0
        for _ in range(30):
            state = random_reachable_state(rng, max_outer=16)
            if state is None:
                continue
            fr = build_constraints(state)
            for k in (1, 2, 3, 4):
                assert_matches_reference(fr, k)
            checked += 1
        assert checked >= 15


def test_pinned_evaluations_on_a_seeded_game(monkeypatch):
    # One n=40, rho=0.225 kset:3 game (master 0, game index 0): its passes
    # and its (row set, sign vector) count, both as the direct evaluation
    # of every sign vector gave them.
    passes = []

    def counting(fr, k, **kwargs):
        stats: dict = {}
        out = kset_infer(fr, k, stats=stats)
        passes.append(stats["evaluated"])
        return out

    monkeypatch.setattr(minelab.player, "kset_infer", counting)
    board = generate_board(40, 0.225, game_seed(0, 0.225, 0))
    record = minelab.player.play_game(board, "kset:3", rho=0.225, seed=0)
    assert len(passes) == 29
    assert sum(passes) == 39954
    assert record.turns == 28


# sha256 over repr((k, forced pairs, evaluated)) of every pass of the games
# below, in play order: for k = 1..3 the first 20 games (master 0) at n=40
# and rho 0.15, 0.225 and 0.3; for k = 4 the first 10 at n=20.
PASS_DIGESTS = {
    1: (40, 20, 952,
        "3a549579426e3a1d007e43a5b0df8c56249502c1182386eab8971784d88693a4"),
    2: (40, 20, 864,
        "407a8f05f0bedd6d375a21b2793a0a32a8faa63faaf29a7a8ed425f004640798"),
    3: (40, 20, 752,
        "93c2cdc414b9afb8b80c78e2b15b0ebf578a3ca70623afae98df0225c7065972"),
    4: (20, 10, 284,
        "0d87d30bd0ca4a82b3338b7d7ca120785dd2304f79dd0a3f584ba83416d25c3d"),
}


@pytest.mark.parametrize("k", sorted(PASS_DIGESTS))
def test_pinned_pass_digest_of_seeded_games(monkeypatch, k):
    n, games, n_passes, want = PASS_DIGESTS[k]
    digest = hashlib.sha256()
    passes = 0

    def recording(fr, k, **kwargs):
        nonlocal passes
        stats: dict = {}
        out = kset_infer(fr, k, stats=stats)
        digest.update(repr((k, out, stats["evaluated"])).encode())
        passes += 1
        return out

    monkeypatch.setattr(minelab.player, "kset_infer", recording)
    for rho in (0.15, 0.225, 0.3):
        for g in range(games):
            board = generate_board(n, rho, game_seed(0, rho, g))
            minelab.player.play_game(board, f"kset:{k}", rho=rho, seed=0)
    assert passes == n_passes
    assert digest.hexdigest() == want
