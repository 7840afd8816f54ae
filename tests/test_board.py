"""Lattice, board generation, moves, frontiers, and the fixtures' text formats."""
from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minelab.board import (Board, Boundary, COVERED, FLAGGED, REVEALED,
                           GameState, GenerationExhausted, flag, frontiers,
                           generate_board, reveal)
from minelab.board import _edge_table

from conftest import (ParseError, budget_board, naive_frontiers,
                      naive_labels, naive_neighbors, naive_reveal,
                      overlay_state, parse_board,
                      parse_overlay, random_reachable_state,
                      random_status_state, serialize_board, serialize_overlay,
                      state_formula)


def twin(state: GameState) -> GameState:
    """A separate state with the same board, grids and exploded flag."""
    out = GameState(state.board)
    out.status = state.status.copy()
    out.view_labels = state.view_labels.copy()
    out.exploded = state.exploded
    return out


def assert_same_state(a: GameState, b: GameState) -> None:
    assert a.status.tolist() == b.status.tolist()
    assert a.view_labels.tolist() == b.view_labels.tolist()
    assert a.exploded == b.exploded


class TestNeighbors:
    @pytest.mark.parametrize("n, boundary", [
        *((n, Boundary.OPEN) for n in range(1, 8)),
        *((n, Boundary.TORUS) for n in range(3, 8))])
    def test_matches_naive_neighbors(self, n, boundary):
        # Every site on the outer ring, and only those, lists its distinct
        # neighbours as flat indices.
        edge = _edge_table(n, boundary)
        ring = [(r, c) for r in range(n) for c in range(n)
                if min(r, c) == 0 or max(r, c) == n - 1]
        assert sorted(edge) == [r * n + c for r, c in ring]
        for r, c in ring:
            around = edge[r * n + c]
            assert len(around) == len(set(around))
            assert set(around) == {rr * n + cc for rr, cc in
                                   naive_neighbors((r, c), n, boundary)}

    def test_torus_corner_wraps(self):
        got = _edge_table(5, Boundary.TORUS)[0]
        assert len(set(got)) == 8
        assert {24, 20, 4} <= set(got)

    def test_open_corner_clips(self):
        assert _edge_table(5, Boundary.OPEN)[0] == (1, 5, 6)

    def test_torus_too_small(self):
        for n in (1, 2):
            with pytest.raises(ValueError, match="n >= 3"):
                _edge_table(n, Boundary.TORUS)

    def test_symmetry(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 8))
            boundary = Boundary.TORUS if rng.random() < 0.5 else Boundary.OPEN
            edge = _edge_table(n, boundary)
            a, b = rng.choice(sorted(edge), size=2).tolist()
            assert (b in edge[a]) == (a in edge[b])


class TestBoardAndLabels:
    def test_empty_board(self):
        board = generate_board(4, 0.0, 1, require_zero=False)
        assert len(board.mines) == 0
        assert not board.labels.any()

    def test_saturated_torus(self):
        board = generate_board(4, 1 - 1 / 16, 7, require_zero=False)
        assert len(board.mines) == 15
        empty = [(r, c) for r in range(4) for c in range(4)
                 if (r, c) not in board.mines]
        assert len(empty) == 1
        assert int(board.labels[empty[0]]) == 8

    def test_labels_match_naive_recount(self):
        board = generate_board(20, 0.2, 1, require_zero=False)
        assert len(board.mines) == 80
        assert board.labels.tolist() == naive_labels(20, board.mines,
                                                     Boundary.TORUS)

    @given(st.integers(3, 9), st.floats(0.0, 0.6), st.integers(0, 10_000),
           st.sampled_from([Boundary.TORUS, Boundary.OPEN]))
    @settings(max_examples=60, deadline=None)
    def test_labels_property(self, n, rho, seed, boundary):
        board = generate_board(n, rho, seed, boundary, require_zero=False)
        assert len(board.mines) == int(np.floor(n * n * rho))
        assert board.labels.tolist() == naive_labels(n, board.mines, boundary)

    def test_mine_grid_matches_mines(self):
        board = generate_board(9, 0.3, 5, require_zero=False)
        listed = {(r, c) for r, c in np.argwhere(board.mine_grid)}
        assert listed == set(board.mines)

    def test_determinism_and_seed_sensitivity(self):
        a = generate_board(10, 0.2, 42)
        b = generate_board(10, 0.2, 42)
        c = generate_board(10, 0.2, 43)
        assert a.mines == b.mines
        assert a.start == b.start
        assert a.mines != c.mines

    def test_zero_start_disclosed(self):
        board = generate_board(12, 0.15, 3)
        assert board.start is not None
        assert board.start not in board.mines
        assert int(board.labels[board.start]) == 0

    def test_pinned_board_digest(self, monkeypatch):
        # sha256 over the boards of a grid of (n, rho, boundary, seed)
        # cases: the mines, the start (None without require_zero), or
        # "exhausted" after 20 boards, then one more draw from the caller's
        # generator, so that the stream generate_board consumes is pinned
        # too.
        monkeypatch.setattr("minelab.board.MAX_ATTEMPTS", 20)
        h = hashlib.sha256()
        for n in (3, 4, 5, 8, 13, 20, 40, 80):
            for rho in (0.0, 0.05, 0.15, 0.225, 0.3, 0.42, 0.6):
                for boundary in (Boundary.TORUS, Boundary.OPEN):
                    for seed in (0, 1, 7):
                        rng = np.random.default_rng([seed, n])
                        try:
                            board = generate_board(
                                n, rho, rng, boundary,
                                require_zero=seed != 7)
                            out = (sorted(board.mines), board.start)
                        except GenerationExhausted:
                            out = "exhausted"
                        h.update(repr((n, rho, boundary.value, seed, out,
                                       int(rng.integers(1 << 30)))).encode())
        assert h.hexdigest() == ("d6a8c818231ab8a1d4dc13c918eb90bc"
                                 "d2ffdb17774b6d67bc1b862e458952cb")

    def test_generation_exhausted(self, monkeypatch):
        # On a 3x3 torus every site neighbors all others, so any mine kills
        # every zero label.
        monkeypatch.setattr("minelab.board.MAX_ATTEMPTS", 17)
        with pytest.raises(GenerationExhausted, match="after 17 boards"):
            generate_board(3, 0.55, 1)

    def test_mine_off_board_rejected(self):
        # A negative index must not wrap around onto the board.
        for mines in ([(4, 0)], [(0, -1)], [(1, 1), (2, 4)]):
            with pytest.raises(ValueError, match="outside an 4x4 board"):
                Board(4, Boundary.OPEN, mines)

    def test_bad_rho(self):
        with pytest.raises(ValueError):
            generate_board(5, 1.5, 0)

    def test_small_torus_rejected(self):
        # A 2x2 torus would count a mine up to four times in one label.
        for n in (1, 2):
            with pytest.raises(ValueError, match="n >= 3"):
                generate_board(n, 0.1, 0)
            with pytest.raises(ValueError, match="n >= 3"):
                Board(n, Boundary.TORUS, [(0, 0)])
            generate_board(n, 0.1, 0, Boundary.OPEN)
            Board(n, Boundary.OPEN, [(0, 0)])


class TestMoves:
    def test_zero_flood_fills_everything(self):
        board = Board(3, Boundary.OPEN, [])
        state = GameState(board)
        out = reveal(state, (1, 1))
        assert not state.exploded
        assert len(out) == 9
        assert (state.status == REVEALED).all()

    def test_nonzero_label_reveals_single_site(self):
        board = Board(4, Boundary.OPEN, [(0, 0)])
        state = GameState(board)
        out = reveal(state, (1, 1))
        assert out == frozenset({(1, 1)})
        assert int(state.view_labels[1, 1]) == 1

    def test_boom(self):
        board = Board(4, Boundary.OPEN, [(0, 0)])
        state = GameState(board)
        out = reveal(state, (0, 0))
        assert out == frozenset()
        assert state.exploded
        with pytest.raises(ValueError, match="game is over"):
            reveal(state, (2, 2))

    def test_reveal_preconditions(self):
        board = Board(4, Boundary.OPEN, [(0, 0)])
        state = GameState(board)
        reveal(state, (1, 1))
        with pytest.raises(ValueError, match="already revealed"):
            reveal(state, (1, 1))
        flag(state, (3, 3))
        with pytest.raises(ValueError, match="is flagged"):
            reveal(state, (3, 3))

    def test_flood_stops_at_flags(self):
        board = Board(3, Boundary.OPEN, [])
        state = GameState(board)
        flag(state, (0, 0))
        out = reveal(state, (2, 2))
        assert (0, 0) not in out
        assert len(out) == 8
        assert int(state.status[0, 0]) == FLAGGED
        # Flags inside a zero region, edges and corners too, stay shut.
        flags = [(2, 2), (3, 3), (0, 5), (5, 5)]
        for boundary in (Boundary.TORUS, Boundary.OPEN):
            state = GameState(Board(6, boundary, []))
            for site in flags:
                flag(state, site)
            reference = twin(state)
            out = reveal(state, (5, 0))
            assert out == naive_reveal(reference, (5, 0))
            assert len(out) == 32 and not set(flags) & out
            assert_same_state(state, reference)
            assert all(int(state.view_labels[s]) == -1 for s in flags)

    def test_flag_semantics(self):
        board = Board(4, Boundary.OPEN, [(0, 0)])
        state = GameState(board)
        flag(state, (0, 0))
        assert int(state.status[0, 0]) == FLAGGED
        with pytest.raises(ValueError, match="not covered"):
            flag(state, (0, 0))
        reveal(state, (2, 2))
        with pytest.raises(ValueError, match="not covered"):
            flag(state, (2, 2))

    def test_effective_label(self):
        # Cross of mines around (2,2) so its label is 3 after construction.
        board = Board(5, Boundary.OPEN, [(1, 1), (1, 3), (3, 2)])
        state = GameState(board)
        reveal(state, (2, 2))
        assert int(state.view_labels[2, 2]) == 3
        fr = frontiers(state)
        assert fr.inner == ((2, 2),) and fr.labels == (3,)
        assert fr.supports == (tuple(range(8)),)
        flag(state, (1, 1))
        flag(state, (1, 3))
        fr = frontiers(state)
        assert fr.labels == (1,)
        assert [fr.outer[j] for j in fr.supports[0]] == [
            (1, 2), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)]

    def test_effective_label_zero(self):
        # A zero floods the whole board: no site keeps a covered neighbor,
        # so no row is left to carry a label.
        board = Board(3, Boundary.OPEN, [])
        state = GameState(board)
        reveal(state, (1, 1))
        assert int(state.view_labels[1, 1]) == 0
        fr = frontiers(state)
        assert fr.inner == () and fr.supports == () and fr.labels == ()

    def test_effective_label_requires_revealed(self):
        board = Board(3, Boundary.OPEN, [])
        state = GameState(board)
        fr = frontiers(state)
        assert (0, 0) not in fr.inner and fr.labels == ()

    def test_batch_matches_one_by_one(self, rng):
        # A batch leaves what revealing its sites in order, each only if
        # still covered, up to the first mine, leaves, and what naive_reveal
        # leaves. Flags lie on mines and safe sites alike, picks may repeat,
        # every fourth batch may hold mines, and floods must reach some
        # batch sites.
        checked = flooded = exploded = 0
        while checked < 500:
            n = int(rng.integers(3, 16))
            boundary = (Boundary.TORUS, Boundary.OPEN)[checked % 2]
            try:
                board = budget_board(n, float(rng.uniform(0.05, 0.3)), rng,
                                     boundary)
            except GenerationExhausted:
                continue
            batch = GameState(board)
            reveal(batch, board.start)
            covered = [(r, c) for r in range(n) for c in range(n)
                       if int(batch.status[r, c]) == COVERED]
            for i in rng.permutation(len(covered))[:int(rng.integers(0, 4))]:
                flag(batch, covered[i])
            pool = [s for s in covered if int(batch.status[s]) == COVERED
                    and (checked % 4 == 3 or s not in board.mines)]
            if not pool:
                continue
            picks = [pool[i] for i in
                     rng.integers(len(pool), size=int(rng.integers(1, 9)))]
            single, reference = twin(batch), twin(batch)
            opened = reveal(batch, *picks)
            one_by_one = set()
            for site in picks:
                if not single.exploded and int(single.status[site]) == COVERED:
                    one_by_one |= reveal(single, site)
            assert opened == one_by_one == naive_reveal(reference, *picks)
            assert_same_state(batch, single)
            assert_same_state(batch, reference)
            assert batch.exploded == any(s in board.mines for s in picks)
            flooded += len(opened) > len(picks)
            exploded += batch.exploded
            checked += 1
        assert flooded >= 50 and exploded >= 20

    def test_batch_explodes_at_first_mine(self):
        # The sites before the mine open, the ones after it do not.
        board = Board(5, Boundary.OPEN, [(0, 0)])
        batch, single = GameState(board), GameState(board)
        out = reveal(batch, (1, 1), (0, 0), (4, 4))
        assert out == reveal(single, (1, 1)) == frozenset({(1, 1)})
        assert reveal(single, (0, 0)) == frozenset()
        assert batch.exploded
        assert (batch.status == single.status).all()
        with pytest.raises(ValueError, match="game is over"):
            reveal(batch, (4, 4))

    def test_batch_preconditions_change_nothing(self):
        board = Board(4, Boundary.OPEN, [(0, 0)])
        state = GameState(board)
        reveal(state, (1, 1))
        flag(state, (0, 0))
        status = state.status.copy()
        with pytest.raises(ValueError, match="already revealed"):
            reveal(state, (3, 3), (1, 1))
        with pytest.raises(ValueError, match="is flagged"):
            reveal(state, (3, 3), (0, 0))
        assert (state.status == status).all()

    @pytest.mark.parametrize("n, boundary", [
        (3, Boundary.TORUS), (4, Boundary.TORUS), (7, Boundary.TORUS),
        (1, Boundary.OPEN), (2, Boundary.OPEN), (3, Boundary.OPEN),
        (7, Boundary.OPEN)])
    def test_every_seed_matches_reference(self, rng, n, boundary):
        # Corner, edge and inner seeds alike, over boards with few or no
        # mines so that most seeds flood, with flags laid anywhere. A lone
        # site has no neighbor to flood.
        flooded = 0
        for _ in range(6):
            sites = [(r, c) for r in range(n) for c in range(n)]
            order = rng.permutation(len(sites))
            mines = [sites[i] for i in order[:int(rng.integers(0, n))]]
            board = Board(n, boundary, mines)
            flagged = [sites[i] for i in
                       order[len(mines):][:int(rng.integers(0, 3))]]
            for seed in sites:
                if seed in flagged:
                    continue
                state = GameState(board)
                for site in flagged:
                    flag(state, site)
                reference = twin(state)
                opened = reveal(state, seed)
                assert opened == naive_reveal(reference, seed), seed
                assert_same_state(state, reference)
                flooded += len(opened) > 1
        assert flooded >= 3 or n == 1

    @pytest.mark.parametrize("boundary", [Boundary.TORUS, Boundary.OPEN])
    def test_off_board_sites_change_nothing(self, boundary):
        # A wrapped index would hit another site: (-1, 0) is (4, 0) on the
        # torus, a zero label here.
        board = Board(5, boundary, [(2, 2)])
        state = GameState(board)
        for sites in ([(-2, -2)], [(-1, 0)], [(5, 0)], [(0, 5)],
                      [(4, 4), (0, -1)], [(0, 0), (1, 7)]):
            with pytest.raises(ValueError, match=re.escape(
                    f"site {sites[-1]} outside an 5x5 board")):
                reveal(state, *sites)
        for site in [(-1, 1), (5, 2), (1, -1), (0, 5)]:
            with pytest.raises(ValueError, match=re.escape(
                    f"site {site} outside an 5x5 board")):
                flag(state, site)
        assert (state.status == COVERED).all()
        assert (state.view_labels == -1).all()
        assert not state.exploded

    def test_small_torus_changes_nothing(self):
        # No 2x2 torus board can be built, since a site's 8 neighbors are
        # not distinct; a state that claims one fails at its first move.
        state = GameState(Board(2, Boundary.OPEN, []))
        state.boundary = Boundary.TORUS
        with pytest.raises(ValueError, match="n >= 3"):
            reveal(state, (0, 0))
        assert (state.status == COVERED).all()


class TestFrontiers:
    def test_fully_covered(self):
        state = GameState(Board(4, Boundary.OPEN, []))
        fr = frontiers(state)
        assert fr.inner == () and fr.outer == ()

    def test_single_interior_reveal(self):
        # (2,2) carries label 1, so the reveal opens exactly one site.
        board = Board(5, Boundary.OPEN, [(1, 1)])
        state = GameState(board)
        reveal(state, (2, 2))
        fr = frontiers(state)
        assert fr.inner == ((2, 2),)
        assert set(fr.outer) == naive_neighbors((2, 2), 5, Boundary.OPEN)

    def test_row_major_order(self):
        board = generate_board(9, 0.2, 11)
        state = GameState(board)
        reveal(state, board.start)
        fr = frontiers(state)
        assert list(fr.inner) == sorted(fr.inner)
        assert list(fr.outer) == sorted(fr.outer)

    @pytest.mark.parametrize("boundary", [Boundary.TORUS, Boundary.OPEN])
    def test_matches_site_by_site_recount(self, rng, boundary):
        checked = flag_lowered = 0
        while checked < 40:
            state = random_reachable_state(rng, boundary=boundary)
            if state is None or not np.any(state.status == FLAGGED):
                continue
            fr = frontiers(state)
            assert fr == naive_frontiers(state)
            flag_lowered += any(e != int(state.view_labels[s])
                                for s, e in zip(fr.inner, fr.labels))
            checked += 1
        assert flag_lowered >= 10

    @pytest.mark.parametrize("boundary", [Boundary.TORUS, Boundary.OPEN])
    def test_matches_oracle_on_random_status_grids(self, rng, boundary):
        lowered = 0
        for _ in range(300):
            state = random_status_state(rng, int(rng.integers(3, 14)),
                                        boundary)
            fr, want = frontiers(state), naive_frontiers(state)
            for field in ("inner", "outer", "supports", "labels"):
                assert getattr(fr, field) == getattr(want, field), field
            lowered += any(e != int(state.view_labels[s])
                           for s, e in zip(fr.inner, fr.labels))
        assert lowered >= 100

    def test_torus_too_small(self):
        # On a 2x2 torus the wrapped border would list each neighbor twice:
        # no such board is built, and a state that claims one is refused.
        status = [[REVEALED, COVERED], [COVERED, COVERED]]
        labels = [[1, -1], [-1, -1]]
        with pytest.raises(ValueError, match="n >= 3"):
            overlay_state(status, labels, Boundary.TORUS)
        state = overlay_state(status, labels, Boundary.OPEN)
        state.boundary = Boundary.TORUS
        with pytest.raises(ValueError, match="n >= 3"):
            frontiers(state)
        with pytest.raises(ValueError, match="n >= 3"):
            state_formula(state)

    def test_flagged_excluded_from_outer(self):
        board = Board(5, Boundary.OPEN, [(1, 1)])
        state = GameState(board)
        reveal(state, (2, 2))
        flag(state, (1, 1))
        fr = frontiers(state)
        assert (1, 1) not in fr.outer
        assert (1, 2) in fr.outer
        # A flagged site is not revealed either, so (2,2) stays inner.
        assert (2, 2) in fr.inner


class TestBoardFormat:
    def test_round_trip(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            boundary = Boundary.TORUS if rng.random() < 0.5 else Boundary.OPEN
            board = generate_board(n, float(rng.uniform(0, 0.5)), rng,
                                   boundary, require_zero=False)
            back = parse_board(serialize_board(board))
            assert ((back.n, back.boundary, back.mines)
                    == (board.n, board.boundary, board.mines))

    def test_header(self):
        board = parse_board("N 3 torus\n...\n.*.\n...\n")
        assert board.n == 3 and board.boundary is Boundary.TORUS
        assert board.mines == frozenset({(1, 1)})

    def test_wrong_row_length(self):
        with pytest.raises(ParseError) as exc:
            parse_board("N 3 open\n...\n....\n...\n")
        assert exc.value.line == 3
        assert exc.value.column == 5

    def test_bad_cell(self):
        with pytest.raises(ParseError) as exc:
            parse_board("N 2 open\n..\n.x\n")
        assert exc.value.line == 3 and exc.value.column == 2

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_board("M 3 open\n...\n...\n...\n")
        with pytest.raises(ParseError):
            parse_board("N 3 wrapped\n...\n...\n...\n")

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse_board("N 3 open\n...\n...\n")

    def test_trailing_content(self):
        with pytest.raises(ParseError):
            parse_board("N 2 open\n..\n..\njunk\n")


class TestOverlayFormat:
    def test_round_trip(self):
        board = generate_board(8, 0.2, 9)
        state = GameState(board)
        reveal(state, board.start)
        flag(state, sorted(board.mines)[0])
        text = serialize_overlay(state)
        back = parse_overlay(text, board.boundary, board)
        assert (back.status == state.status).all()
        assert (back.view_labels == state.view_labels).all()
        assert back.board is board

    def test_no_board_needed(self):
        state = parse_overlay("#1\n1F\n", Boundary.OPEN)
        assert state.board.n == 2 and not state.board.mines
        assert int(state.status[1, 1]) == FLAGGED
        assert int(state.view_labels[0, 1]) == 1

    def test_label_mismatch_rejected(self):
        board = Board(2, Boundary.OPEN, [])
        with pytest.raises(ValueError):
            parse_overlay("#1\n##\n", Boundary.OPEN, board)

    def test_revealed_mine_rejected(self):
        board = Board(2, Boundary.OPEN, [(0, 0)])
        with pytest.raises(ValueError):
            parse_overlay("1#\n##\n", Boundary.OPEN, board)

    def test_non_square_rejected(self):
        with pytest.raises(ParseError):
            parse_overlay("##\n###\n", Boundary.OPEN)

    def test_bad_cell(self):
        with pytest.raises(ParseError) as exc:
            parse_overlay("#9\n##\n", Boundary.OPEN)
        assert exc.value.line == 1 and exc.value.column == 2

    def test_boundary_mismatch(self):
        board = Board(3, Boundary.TORUS, [])
        with pytest.raises(ValueError):
            parse_overlay("###\n###\n###\n", Boundary.OPEN, board)
