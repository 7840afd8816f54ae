"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: labels
and the frontier system are recounted site by site with explicit loops,
satisfiability is decided by truth table, frontier placements are
enumerated exhaustively, and clusters are labeled by recursive flood fill.
Tests compare library output against these independent computations.
solve is not an oracle: it is shorthand for one query on a fresh Solver,
and consistency_check one such query on the frontier formula. The
formats that only tests read or write (board and overlay text, games.csv
read back) are here too; every whole-state formula comes from
state_formula, and a formula of some rows from rows_formula.
"""
from __future__ import annotations

import csv
import itertools
from pathlib import Path
from typing import (Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
                    Union)

import numpy as np
import pytest

from minelab.board import (Board, Boundary, COVERED, FLAGGED, REVEALED,
                           Frontiers, GameState, Site, flag, frontiers,
                           generate_board, reveal)
from minelab.cnf import GroupedCnf, InfeasibleLabel, build_formula
from minelab.cnf import _encode_exact_count as encode_exact_count
from minelab.player import Inference, Verdict
from minelab.sat import Solver

FIXTURES = Path(__file__).parent / "fixtures"


# -- text formats of boards and states, read and written only by tests ----

class ParseError(Exception):
    """Malformed board or overlay text."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


_BOUNDARY_WORDS = {"torus": Boundary.TORUS, "open": Boundary.OPEN}


def parse_board(text: str) -> Board:
    """Parse the board text format: `N <n> <torus|open>` then n mine rows."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty board text", line=1)
    header = lines[0].split()
    if len(header) != 3 or header[0] != "N":
        raise ParseError("header must be 'N <n> <torus|open>'", line=1)
    try:
        n = int(header[1])
    except ValueError:
        raise ParseError(f"bad board size {header[1]!r}", line=1) from None
    if n < 1:
        raise ParseError("board size must be positive", line=1)
    if header[2] not in _BOUNDARY_WORDS:
        raise ParseError(f"unknown boundary {header[2]!r}", line=1)
    boundary = _BOUNDARY_WORDS[header[2]]
    rows = lines[1:]
    if len(rows) < n:
        raise ParseError(f"expected {n} rows, found {len(rows)}",
                         line=len(lines) + 1)
    for extra in rows[n:]:
        if extra.strip():
            raise ParseError("trailing content after board rows", line=n + 2)
    mines = []
    for i in range(n):
        row = rows[i]
        if len(row) != n:
            raise ParseError(f"row has length {len(row)}, expected {n}",
                             line=i + 2, column=len(row) + 1)
        for j, ch in enumerate(row):
            if ch == "*":
                mines.append((i, j))
            elif ch != ".":
                raise ParseError(f"bad cell {ch!r}", line=i + 2, column=j + 1)
    return Board(n, boundary, mines)


def parse_overlay(text: str, boundary: Boundary,
                  board: Optional[Board] = None) -> GameState:
    """Parse a status overlay: '#' covered, 'F' flagged, digits revealed.

    The grid must be square; the boundary comes from the caller (the format
    has no header). When a ground-truth board is supplied it is attached and
    the revealed labels are checked against it; otherwise the state lies
    over a mine-free board.
    """
    rows = [row for row in text.splitlines() if row.strip() != ""]
    if not rows:
        raise ParseError("empty overlay text", line=1)
    n = len(rows)
    status = np.full((n, n), COVERED, dtype=np.int8)
    view = np.full((n, n), -1, dtype=np.int16)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ParseError(f"row has length {len(row)}, expected {n}",
                             line=i + 1, column=len(row) + 1)
        for j, ch in enumerate(row):
            if ch == "#":
                continue
            if ch == "F":
                status[i, j] = FLAGGED
            elif ch.isdigit() and int(ch) <= 8:
                status[i, j] = REVEALED
                view[i, j] = int(ch)
            else:
                raise ParseError(f"bad overlay cell {ch!r}", line=i + 1, column=j + 1)
    if board is not None:
        if board.n != n:
            raise ValueError(f"overlay side {n} does not match board side {board.n}")
        if board.boundary != boundary:
            raise ValueError("overlay boundary does not match board boundary")
        mines = mine_sites(board)
        for r, c in map(tuple, np.argwhere(status == REVEALED)):
            if (r, c) in mines:
                raise ValueError(f"revealed site {(r, c)} is mined")
            if int(board.labels[r, c]) != int(view[r, c]):
                raise ValueError(
                    f"label mismatch at {(r, c)}: overlay {int(view[r, c])}, "
                    f"board {int(board.labels[r, c])}")
    return overlay_state(status, view, boundary, board)


def overlay_state(status, labels, boundary: Boundary,
                  board: Optional[Board] = None) -> GameState:
    """A state with the given status grid, laid over the fixture's board
    or, when none is given, a mine-free board of the grid's side. The
    labels given on revealed sites are written into the board's labels,
    where the state reads them."""
    if board is None:
        board = Board(len(status), boundary, ())
    state = GameState(board)
    state.status = np.array(status, dtype=np.int8)
    revealed = state.status == REVEALED
    board.labels[revealed] = np.asarray(labels, dtype=np.int16)[revealed]
    return state


def budget_board(n: int, rho: float, seed, boundary: Boundary = Boundary.TORUS,
                 attempts: int = 50) -> Board:
    """generate_board with its rejection budget cut to `attempts` boards,
    so that a random (n, rho) draw without a zero start fails fast."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("minelab.board.MAX_ATTEMPTS", attempts)
        return generate_board(n, rho, seed, boundary)


def mine_sites(board: Board) -> FrozenSet[Site]:
    """The board's mined sites, read off its mine grid."""
    return frozenset(map(tuple, np.argwhere(board.mine_grid).tolist()))


def serialize_board(board: Board) -> str:
    """Inverse of parse_board (the start site is not part of the format)."""
    rows = ["N %d %s" % (board.n, board.boundary.value)]
    mines = mine_sites(board)
    for i in range(board.n):
        rows.append("".join("*" if (i, j) in mines else "."
                            for j in range(board.n)))
    return "\n".join(rows) + "\n"


def serialize_overlay(state: GameState) -> str:
    """Inverse of parse_overlay."""
    marks = {COVERED: "#", FLAGGED: "F"}
    return "".join(
        "".join(marks.get(int(state.status[i, j]),
                          str(int(state.board.labels[i, j])))
                for j in range(state.board.n)) + "\n"
        for i in range(state.board.n))


def load_state(state_name: str, boundary: Boundary = Boundary.OPEN,
               board_name: Optional[str] = None) -> GameState:
    """Parse a fixture overlay, with its ground-truth board when named."""
    board = None
    if board_name is not None:
        board = parse_board((FIXTURES / board_name).read_text())
        boundary = board.boundary
    return parse_overlay((FIXTURES / state_name).read_text(), boundary, board)


def dihedral_site(site: Site, k: int, n: int,
                  shift: Tuple[int, int] = (0, 0)) -> Site:
    """Site under the k-th of the 8 symmetries of the n x n square (k in
    0..7: bit 2 transposes, then bit 0 flips the rows and bit 1 the
    columns), then translated by shift, wrapping around."""
    r, c = site
    if k & 4:
        r, c = c, r
    if k & 1:
        r = n - 1 - r
    if k & 2:
        c = n - 1 - c
    return (r + shift[0]) % n, (c + shift[1]) % n


def dihedral_board(board: Board, k: int,
                   shift: Tuple[int, int] = (0, 0)) -> Board:
    """The board, its mines and its start under dihedral_site: a board with
    the same labels, site for site, on the mapped sites. Only a torus may be
    translated."""
    assert shift == (0, 0) or board.boundary is Boundary.TORUS
    image = Board(board.n, board.boundary,
                  [dihedral_site(s, k, board.n, shift)
                   for s in sorted(mine_sites(board))])
    image.start = dihedral_site(board.start, k, board.n, shift)
    return image


def naive_labels(n: int, mines, boundary: Boundary) -> List[List[int]]:
    """Mine-adjacency recount with explicit loops."""
    mset = set(mines)
    lab = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            cnt = 0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if boundary is Boundary.TORUS:
                        rr %= n
                        cc %= n
                    elif not (0 <= rr < n and 0 <= cc < n):
                        continue
                    if (rr, cc) in mset:
                        cnt += 1
            lab[r][c] = cnt
    return lab


def naive_neighbors(site: Site, n: int, boundary: Boundary) -> Set[Site]:
    """The Moore neighbors of a site, from explicit offsets: wrapped on a
    torus, clipped past an open edge."""
    r, c = site
    out = set()
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            rr, cc = r + dr, c + dc
            if boundary is Boundary.TORUS:
                rr %= n
                cc %= n
            elif not (0 <= rr < n and 0 <= cc < n):
                continue
            if (dr, dc) != (0, 0):
                out.add((rr, cc))
    return out


def naive_reveal(state: GameState, *sites: Site) -> FrozenSet[Site]:
    """reveal redone one site at a time: each site in order, up to the
    first mine, opens when still covered and floods breadth first through
    naive_neighbors from every zero label, never opening a flag."""
    board, opened = state.board, set()
    mines = mine_sites(board)
    for site in sites:
        if site in mines:
            state.exploded = True
            break
        queue = [site]
        while queue:
            s = queue.pop(0)
            if int(state.status[s]) != COVERED:
                continue
            state.status[s] = REVEALED
            opened.add(s)
            if int(board.labels[s]) == 0:
                queue.extend(naive_neighbors(s, board.n, board.boundary))
    return frozenset(opened)


def reveal_opened(state: GameState, *sites: Site) -> FrozenSet[Site]:
    """reveal(state, *sites), which returns None, then the sites it opened:
    those whose status it turned from covered to revealed."""
    before = state.status.copy()
    assert reveal(state, *sites) is None
    rows, cols = np.nonzero((before == COVERED) & (state.status == REVEALED))
    return frozenset(zip(rows.tolist(), cols.tolist()))


def inference_pivot(outer: Sequence[Site], inf: Inference) -> int:
    """The literal an inference's core refutes with the frontier formula:
    its site's variable (outer index + 1), true for a safe verdict and
    false for a mine."""
    var = outer.index(inf.site) + 1
    return var if inf.verdict is Verdict.SAFE else -var


def naive_effective_label(state: GameState, site: Site) -> int:
    """Revealed label minus the flagged neighbors, counted one by one."""
    board = state.board
    flags = sum(1 for t in naive_neighbors(site, board.n, board.boundary)
                if int(state.status[t]) == FLAGGED)
    return int(board.labels[site]) - flags


def naive_frontiers(state: GameState) -> Frontiers:
    """The frontier system recounted site by site from neighbors, status
    and the board's labels."""
    n, boundary = state.board.n, state.board.boundary

    def has_neighbor(site, status):
        return any(int(state.status[t]) == status
                   for t in naive_neighbors(site, n, boundary))

    sites = [(r, c) for r in range(n) for c in range(n)]
    inner = tuple(s for s in sites if int(state.status[s]) == REVEALED
                  and has_neighbor(s, COVERED))
    outer = tuple(s for s in sites if int(state.status[s]) == COVERED
                  and has_neighbor(s, REVEALED))
    col = {s: j for j, s in enumerate(outer)}
    supports = tuple(
        tuple(sorted(col[t] for t in naive_neighbors(s, n, boundary)
                     if int(state.status[t]) == COVERED))
        for s in inner)
    labels = tuple(naive_effective_label(state, s) for s in inner)
    return Frontiers(inner=inner, outer=outer, supports=supports,
                     labels=labels)


def random_status_state(rng: np.random.Generator, n: int,
                        boundary: Boundary) -> GameState:
    """A state with a random status grid over a mine-free board, not
    necessarily reachable: each site covered, revealed or flagged with
    shares drawn per grid, and each revealed site a random label in 0..8."""
    shares = rng.dirichlet((1.0, 1.0, 0.5))
    status = rng.choice([COVERED, REVEALED, FLAGGED], size=(n, n), p=shares)
    labels = np.where(status == REVEALED, rng.integers(0, 9, size=(n, n)), -1)
    return overlay_state(status, labels, boundary)


GAMES_TYPES = {"n": int, "rho": float, "policy": str, "seed": int,
               "alpha": float, "max_core": int, "turns": int, "outcome": str,
               "wall_ms": float}


def read_games_csv(path: Union[str, Path]) -> List[Dict[str, object]]:
    """The rows of a games.csv file, each cell typed by its column; a blank
    cell (the alpha of an exhausted board, an untracked max_core) is None."""
    with open(path, newline="") as fh:
        return [{k: GAMES_TYPES[k](v) if v else None for k, v in row.items()}
                for row in csv.DictReader(fh)]


def state_formula(state: GameState) -> GroupedCnf:
    """The whole frontier formula of a state, VarId = outer index + 1."""
    return build_formula(frontiers(state))


def rows_formula(rows, num_vars: int) -> GroupedCnf:
    """The grouped CNF of some (row, label, ascending columns) rows of a
    frontier system: group id = row, VarId = column + 1, as in the whole
    frontier formula."""
    rows = list(rows)
    return GroupedCnf(
        num_vars=num_vars,
        groups={i: encode_exact_count(e, [j + 1 for j in cols])
                for i, e, cols in rows},
        labels={i: e for i, e, _ in rows})


def formula_parts(formula: GroupedCnf) -> List[Tuple[List[int], List[int]]]:
    """The connected parts of a grouped CNF, groups joined when they share
    a variable: (ascending group ids, ascending variables), in the order of
    their lowest variable. A group without variables is a part of its own,
    after all others, and a variable that no group mentions is in none."""
    group_vars = {g: {abs(l) for clause in clauses for l in clause}
                  for g, clauses in formula.groups.items()}
    left = sorted(group_vars)
    parts = []
    while left:
        groups = [left.pop(0)]
        vs = set(group_vars[groups[0]])
        while True:
            joined = [g for g in left if group_vars[g] & vs]
            if not joined:
                break
            groups += joined
            vs.update(*(group_vars[g] for g in joined))
            left = [g for g in left if g not in joined]
        parts.append((sorted(groups), sorted(vs)))
    return sorted(parts, key=lambda part: (not part[1], part[1][:1]))


def solve(formula, active=None, assumptions=(), *,
          conflict_budget: int = 1_000_000):
    """One query on a fresh Solver; active of None names every group."""
    solver = Solver(formula, conflict_budget=conflict_budget)
    return solver.solve(solver.group_ids if active is None else active,
                        assumptions)


def consistency_check(state: GameState) -> bool:
    """Does any mine placement realize every effective label."""
    if not frontiers(state).inner:
        return True
    try:
        formula = state_formula(state)
    except InfeasibleLabel:
        return False
    return solve(formula).sat


def eval_clause(clause, assign: Dict[int, bool]) -> bool:
    return any(assign[abs(l)] == (l > 0) for l in clause)


def eval_formula(formula, assign: Dict[int, bool], active=None) -> bool:
    gids = formula.groups.keys() if active is None else active
    return all(eval_clause(c, assign)
               for g in gids for c in formula.groups[g])


def truth_table_models(formula, active=None) -> List[Dict[int, bool]]:
    """Every satisfying assignment over vars 1..num_vars, by enumeration."""
    nv = formula.num_vars
    models = []
    for bits in itertools.product((False, True), repeat=nv):
        assign = {v: bits[v - 1] for v in range(1, nv + 1)}
        if eval_formula(formula, assign, active):
            models.append(assign)
    return models


def consistent_placements(state: GameState) -> List[FrozenSet[Site]]:
    """All outer-frontier mine subsets realizing every effective label."""
    fr = frontiers(state)
    placements = []
    for bits in itertools.product((False, True), repeat=len(fr.outer)):
        mines = {s for s, b in zip(fr.outer, bits) if b}
        ok = True
        for inner in fr.inner:
            need = naive_effective_label(state, inner)
            have = sum(1 for nb in naive_neighbors(inner, state.board.n,
                                                   state.board.boundary)
                       if nb in mines)
            if need != have:
                ok = False
                break
        if ok:
            placements.append(frozenset(mines))
    return placements


def forced_verdicts(state: GameState) -> Dict[Site, bool]:
    """site -> True (mine everywhere) / False (safe everywhere); free
    sites are absent. Raises if the state is inconsistent."""
    placements = consistent_placements(state)
    assert placements, "oracle needs a consistent state"
    fr = frontiers(state)
    out: Dict[Site, bool] = {}
    for s in fr.outer:
        vals = {s in p for p in placements}
        if len(vals) == 1:
            out[s] = vals.pop()
    return out


def random_reachable_state(rng: np.random.Generator, *,
                           max_outer: int = 20,
                           attempts: int = 200,
                           boundary: Boundary = Boundary.TORUS
                           ) -> Optional[GameState]:
    """A mid-game state reached by sound moves (reveal empties, flag mines).

    Returns None if no attempt produced a state with a nonempty inner
    frontier and 1..max_outer outer sites.
    """
    for _ in range(attempts):
        n = int(rng.integers(5, 10))
        rho = float(rng.uniform(0.08, 0.32))
        try:
            board = budget_board(n, rho, rng, boundary)
        except Exception:
            continue
        state = GameState(board)
        reveal(state, board.start)
        mines = mine_sites(board)
        safe_pool = [(r, c) for r in range(n) for c in range(n)
                     if (r, c) not in mines]
        moves = int(rng.integers(0, 6))
        for _ in range(moves):
            covered_safe = [s for s in safe_pool
                            if int(state.status[s]) == COVERED]
            covered_mines = [s for s in sorted(mines)
                             if int(state.status[s]) == COVERED]
            if covered_mines and rng.random() < 0.3:
                flag(state, covered_mines[int(rng.integers(len(covered_mines)))])
            elif covered_safe:
                reveal(state, covered_safe[int(rng.integers(len(covered_safe)))])
        fr = frontiers(state)
        if fr.inner and 1 <= len(fr.outer) <= max_outer:
            return state
    return None


def dfs_cluster_oracle(occ: np.ndarray, boundary: Boundary,
                       steps) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Flood-fill labeling with unrolled-coordinate spanning detection."""
    n = occ.shape[0]
    torus = boundary is Boundary.TORUS
    seen: Set[Site] = set()
    sizes, spanning = [], []
    for r0 in range(n):
        for c0 in range(n):
            if not occ[r0, c0] or (r0, c0) in seen:
                continue
            pos = {(r0, c0): (r0, c0)}
            stack = [(r0, c0)]
            seen.add((r0, c0))
            wrap = False
            cells = [(r0, c0)]
            while stack:
                r, c = stack.pop()
                ur, uc = pos[(r, c)]
                for dr, dc in steps:
                    rr, cc = r + dr, c + dc
                    if torus:
                        tr, tc = rr % n, cc % n
                    else:
                        if not (0 <= rr < n and 0 <= cc < n):
                            continue
                        tr, tc = rr, cc
                    if not occ[tr, tc]:
                        continue
                    t = (tr, tc)
                    if t in pos:
                        if torus and pos[t] != (ur + dr, uc + dc):
                            wrap = True
                        continue
                    pos[t] = (ur + dr, uc + dc)
                    seen.add(t)
                    cells.append(t)
                    stack.append(t)
            sizes.append(len(cells))
            if torus:
                if wrap:
                    spanning.append(len(cells))
            else:
                rows = [p for p, _ in cells]
                cols = [q for _, q in cells]
                if ((min(rows) == 0 and max(rows) == n - 1)
                        or (min(cols) == 0 and max(cols) == n - 1)):
                    spanning.append(len(cells))
    return tuple(sorted(sizes)), tuple(sorted(spanning))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)


class HourClock:
    """A stand-in for the time module whose clock moves on an hour every
    time it is read."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += 3600.0
        return self.now


@pytest.fixture
def hour_clock(monkeypatch) -> None:
    """The game loop's clock, replaced by an HourClock."""
    monkeypatch.setattr("minelab.player.time", HourClock())
