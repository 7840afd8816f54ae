"""Ground-truth Minesweeper boards and the player-facing game state.

Sites are (row, col) tuples indexed from the top-left corner. The lattice is
square with side n and either toroidal (wrap-around) or open (clipped)
boundary. Mine labels count mines in the Moore 8-neighborhood. Every
neighbourhood is read from a grid inside a one-cell border (_padded), which
also holds the torus rule: a torus needs n >= 3.

generate_board draws at most MAX_ATTEMPTS boards while it looks for one
with a zero-labeled start. A GameState is always played on its ground-truth
board, from an all-covered start.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import floor
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

Site = Tuple[int, int]

# Status grid cell values.
COVERED = 0
REVEALED = 1
FLAGGED = 2

_OFFSETS = tuple(
    (dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)
)
# The offsets as steps from (r, c) in a grid with a one-cell border.
_ROW_STEPS = np.array([1 + dr for dr, _ in _OFFSETS])
_COL_STEPS = np.array([1 + dc for _, dc in _OFFSETS])


class Boundary(enum.Enum):
    TORUS = "torus"
    OPEN = "open"


# Boards generate_board draws before it gives up on a zero-labeled start.
MAX_ATTEMPTS = 10_000


class GenerationExhausted(Exception):
    """Board generation could not satisfy the zero-start requirement."""


def _padded(grid: np.ndarray, boundary: Boundary, fill: int = 0) -> np.ndarray:
    """The grid inside a one-cell border: wrapped around on a torus, fill
    past an open edge. Cell (r, c) of the grid is (r + 1, c + 1) here. A
    torus side below 3 raises ValueError: a cell's 8 neighbours would not
    be distinct."""
    n = grid.shape[0]
    out = np.full((n + 2, n + 2), fill, dtype=grid.dtype)
    out[1:-1, 1:-1] = grid
    if boundary is Boundary.TORUS:
        if n < 3:
            raise ValueError("torus boundary requires n >= 3")
        out[0, 1:-1] = grid[-1]
        out[-1, 1:-1] = grid[0]
        out[:, 0] = out[:, -2]
        out[:, -1] = out[:, 1]
    return out


def _neighbor_planes(grid: np.ndarray, boundary: Boundary,
                     fill: int = 0) -> np.ndarray:
    """The 8 neighbour planes of a grid, in _OFFSETS order: plane k holds
    every cell's k-th neighbour, fill past an open edge."""
    n = grid.shape[0]
    padded = _padded(grid, boundary, fill)
    return np.stack([padded[1 + dr:1 + dr + n, 1 + dc:1 + dc + n]
                     for dr, dc in _OFFSETS])


class Board:
    """Ground truth: mine_grid and the int16 labels, each kept once, and the
    zero start generate_board disclosed (None on any other board). A mine
    off the board or a torus side below 3 raises ValueError."""

    def __init__(self, n: int, boundary: Boundary, mines: Iterable[Site]):
        if n < 1:
            raise ValueError("board side must be positive")
        # One (row, col) line per mine, bounds-checked and laid as a whole.
        rc = np.fromiter(chain.from_iterable(mines),
                         dtype=np.intp).reshape(-1, 2)
        outside = ((rc < 0) | (rc >= n)).any(axis=1)
        if outside.any():
            r, c = rc[outside.argmax()].tolist()
            raise ValueError(f"mine {(r, c)} outside an {n}x{n} board")
        self.n = n
        self.boundary = boundary
        self.start: Optional[Site] = None
        self.mine_grid = np.zeros((n, n), dtype=bool)
        self.mine_grid[rc[:, 0], rc[:, 1]] = True
        self.labels = _neighbor_planes(self.mine_grid, boundary).sum(
            axis=0, dtype=np.int16)

    def __repr__(self) -> str:
        return (f"Board(n={self.n}, boundary={self.boundary.value}, "
                f"mines={np.count_nonzero(self.mine_grid)})")


def _mine_count(n: int, rho: float) -> int:
    """floor(n*n*rho) with rho read as the nearest fraction whose
    denominator is at most 10**6. That fraction is exact for a decimal of
    up to six places and for a simple fraction such as 1/3, so rho = 0.29
    on n = 20 lays 116 mines, not the 115 of the binary product
    115.99999999999999, and rho = 1/3 on n = 3 lays 3."""
    return floor(Fraction(rho).limit_denominator(10 ** 6) * n * n)


def check_board_shape(n: int, rho: float, boundary: Boundary) -> None:
    """Raise ValueError unless generate_board can lay _mine_count(n, rho)
    mines on an n x n board with this boundary: n >= 1, rho in [0, 1], one
    site left empty, and n >= 3 on a torus, where a smaller side would
    count a mine more than once in a neighbor's label."""
    if n < 1:
        raise ValueError("board side must be positive")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if _mine_count(n, rho) >= n * n:
        raise ValueError("board must keep at least one empty site")
    if boundary is Boundary.TORUS and n < 3:
        raise ValueError("torus boundary requires n >= 3")


def generate_board(n: int, rho: float, seed, boundary: Boundary = Boundary.TORUS,
                   require_zero: bool = True) -> Board:
    """Place _mine_count(n, rho) mines, floor(n*n*rho) with rho read as a
    fraction of denominator at most 10**6, uniformly at random.

    Mine sites are drawn by a partial Fisher-Yates shuffle of the flattened
    lattice, so the mine count is exact. With require_zero, whole boards are
    rejection-sampled, at most MAX_ATTEMPTS of them, until one contains a
    zero-labeled empty site, and the disclosed start is chosen uniformly
    among those sites.

    Args:
      n: lattice side.
      rho: mine density in [0, 1).
      seed: anything accepted by numpy.random.default_rng.
      boundary: lattice topology.
      require_zero: demand a zero-labeled empty start site.

    Raises:
      ValueError: check_board_shape rejects (n, rho, boundary).
      GenerationExhausted: require_zero unmet within the budget.
    """
    check_board_shape(n, rho, boundary)
    total = n * n
    m = _mine_count(n, rho)
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ATTEMPTS):
        # One vector draw: the same stream as m draws integers(k, total).
        idx = list(range(total))
        for k, j in enumerate(rng.integers(np.arange(m), total).tolist()):
            idx[k], idx[j] = idx[j], idx[k]
        board = Board(n, boundary, map(divmod, idx[:m], repeat(n)))
        if not require_zero:
            return board
        zeros = np.flatnonzero((board.labels == 0) & ~board.mine_grid)
        if zeros.size:
            board.start = divmod(int(zeros[int(rng.integers(zeros.size))]), n)
            return board
    raise GenerationExhausted(f"no zero-labeled empty site after "
                              f"{MAX_ATTEMPTS} boards (n={n}, rho={rho})")


@dataclass(frozen=True)
class Frontiers:
    """The frontier constraint system sum_j a_ij x_j = e_i, row-major.

    inner lists the revealed sites with a covered neighbor (one row each),
    outer the covered unflagged sites with a revealed neighbor (one column
    each). supports[i] holds the ascending outer indices j with a_ij = 1,
    the covered unflagged neighbors of inner[i]; labels[i] is its effective
    label e_i, the revealed label minus the flagged neighbors.
    """
    inner: Tuple[Site, ...]
    outer: Tuple[Site, ...]
    supports: Tuple[Tuple[int, ...], ...]
    labels: Tuple[int, ...]


class GameState:
    """Player-facing view of a game in progress on a ground-truth board.

    Holds the per-site status grid, every site covered at the start, and
    whether a mine went off. A revealed site shows its board label, and the
    side and boundary are the board's.
    """

    def __init__(self, board: Board):
        self.board = board
        self.status = np.full((board.n, board.n), COVERED, dtype=np.int8)
        self.exploded = False


def _flat_index(site: Site, n: int) -> int:
    """Row-major index of a site; ValueError naming it when it is off the
    board, where a wrapped index would silently hit another site."""
    r, c = site
    if not (0 <= r < n and 0 <= c < n):
        raise ValueError(f"site {site} outside an {n}x{n} board")
    return r * n + c


@lru_cache(maxsize=None)
def _edge_table(n: int, boundary: Boundary) -> Dict[int, Tuple[int, ...]]:
    """The flat neighbor indices of every site on the outer ring of the
    lattice, keyed by its flat index, in offset order. Inner sites reach
    theirs by the eight fixed offsets, so the table takes O(n) memory."""
    flat = _padded(np.arange(n * n).reshape(n, n), boundary, fill=-1)
    on_ring = np.ones((n, n), dtype=bool)
    on_ring[1:-1, 1:-1] = False
    rows, cols = np.nonzero(on_ring)
    nb = flat[rows[:, None] + _ROW_STEPS, cols[:, None] + _COL_STEPS]
    return {r * n + c: tuple(t for t in around if t >= 0)
            for r, c, around in zip(rows.tolist(), cols.tolist(),
                                    nb.tolist())}


def reveal(state: GameState, *sites: Site) -> None:
    """Reveal covered sites as one move; zero labels flood-fill their
    neighborhoods.

    The result is that of revealing the sites one by one, in order, each
    only if it is still covered: a flood's closure does not depend on the
    order its seeds are opened in. Flagged sites are never opened by the
    flood (flags are the player's bookkeeping and stay put); the opened
    sites show in the status grid only. A mined site opens none and makes
    the state terminal (state.exploded): the sites before the first mined one are
    opened, the ones after it are not. A move the rules forbid (a site off
    the board, already revealed or flagged, or a game already over) raises
    ValueError and changes nothing.

    The flood runs on flat row-major indices over memoryviews of the status
    grid and labels.
    """
    if state.exploded:
        raise ValueError("game is over")
    board = state.board
    n = board.n
    edge = _edge_table(n, board.boundary)
    status = memoryview(state.status).cast("B")
    seeds = [_flat_index(site, n) for site in sites]
    for site, i in zip(sites, seeds):
        if status[i] == REVEALED:
            raise ValueError(f"site {site} is already revealed")
        if status[i] == FLAGGED:
            raise ValueError(f"site {site} is flagged")
    mined = memoryview(board.mine_grid).cast("B")
    for k, i in enumerate(seeds):
        if mined[i]:
            state.exploded = True
            del seeds[k:]
            break
    for i in seeds:
        status[i] = REVEALED
    # Zero labels certify a mine-free neighborhood, so the flood is safe.
    label = memoryview(board.labels).cast("B").cast("h")
    stack = [i for i in seeds if not label[i]]
    up, down = n + 1, n - 1
    while stack:
        i = stack.pop()
        around = edge.get(i)
        if around is None:
            a, b = i - up, i + down
            around = (a, a + 1, a + 2, i - 1, i + 1, b, b + 1, b + 2)
        for t in around:
            if status[t] == COVERED:
                status[t] = REVEALED
                if not label[t]:
                    stack.append(t)


def flag(state: GameState, site: Site) -> None:
    """Flag a covered site as a mine claim. A site off the board or not
    covered, or a game already over, raises ValueError and changes
    nothing."""
    if state.exploded:
        raise ValueError("game is over")
    i = _flat_index(site, state.board.n)
    status = memoryview(state.status).cast("B")
    if status[i] != COVERED:
        raise ValueError(f"site {site} is not covered")
    status[i] = FLAGGED


def frontiers(state: GameState) -> Frontiers:
    """The frontier system of the state: sites, supports and labels."""
    board, status = state.board, state.status
    n, boundary = board.n, board.boundary
    # planes[k] holds the status of every cell's k-th neighbor; -1 past an
    # open edge matches no status.
    planes = _neighbor_planes(status, boundary, fill=-1)
    inner_mask = (status == REVEALED) & (planes == COVERED).any(axis=0)
    outer_mask = (status == COVERED) & (planes == REVEALED).any(axis=0)
    rows, cols = np.nonzero(inner_mask)
    inner = tuple(zip(rows.tolist(), cols.tolist()))
    outer = tuple(zip(*(idx.tolist() for idx in np.nonzero(outer_mask))))
    # Every covered neighbor of an inner site borders it, so it is outer.
    col = np.full((n, n), -1, dtype=np.int32)
    col[outer_mask] = np.arange(len(outer), dtype=np.int32)
    nb = _padded(col, boundary, fill=-1)[rows[:, None] + _ROW_STEPS,
                                         cols[:, None] + _COL_STEPS]
    nb.sort(axis=1)
    skip = (nb < 0).sum(axis=1).tolist()
    supports = tuple(tuple(row[k:]) for row, k in zip(nb.tolist(), skip))
    flags = (planes[:, rows, cols] == FLAGGED).sum(axis=0)
    # Inner sites are revealed, so their labels are the board's.
    labels = board.labels[rows, cols] - flags
    return Frontiers(inner=inner, outer=outer, supports=supports,
                     labels=tuple(labels.tolist()))
