"""Monte Carlo cluster statistics for Minesweeper-induced site occupancy.

A board induces an occupancy grid (mine or nonzero label); on a torus each
site is occupied unless its 3x3 neighborhood is mine-free, so the occupied
fraction tracks 1 - (1 - rho)^9. Cluster sizes come from union-find under
Nearest4 (the standard square-lattice site percolation setting, threshold
near p = 0.593) or Moore8 connectivity.

The average cluster size estimator is the second moment over the first
moment of the cluster size distribution, with spanning clusters excluded.
Spanning means touching both opposite edges of some axis on an open grid,
and wrapping an axis on a torus. Wrapping is detected by union-find with
displacement potentials: every site stores its offset from its root in
unrolled (infinite-plane) coordinates, and an edge joining two sites of the
same cluster whose potentials disagree with the edge's geometric offset has
closed a loop around the torus.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .board import Board, Boundary, check_board_shape, generate_board


class Connectivity(enum.Enum):
    NEAREST4 = "nearest4"
    MOORE8 = "moore8"


class _NoClusters(Exception):
    """No cluster remains after spanning exclusion (or the grid is empty)."""


@dataclass(frozen=True)
class _OccupancyGrid:
    n: int
    occupied: np.ndarray           # (n, n) booleans
    boundary: Boundary


@dataclass(frozen=True)
class _ClusterStats:
    """All cluster sizes and the subset that spans."""
    sizes: Tuple[int, ...]
    spanning_sizes: Tuple[int, ...]


def _minesweeper_occupancy(board: Board) -> _OccupancyGrid:
    """Occupied = mined or labeled nonzero."""
    occ = board.mine_grid | (board.labels > 0)
    return _OccupancyGrid(n=board.n, occupied=occ, boundary=board.boundary)


def _independent_occupancy(n: int, p: float, seed,
                           boundary: Boundary = Boundary.OPEN) -> _OccupancyGrid:
    """I.i.d. site occupation with probability p (standard percolation)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    occ = rng.random((n, n)) < p
    return _OccupancyGrid(n=n, occupied=occ, boundary=boundary)


# Backward neighbor steps, so each undirected edge is visited exactly once
# during the row-major scan.
_STEPS4 = ((-1, 0), (0, -1))
_STEPS8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1))


def _cluster_sizes(grid: _OccupancyGrid,
                   connectivity: Connectivity = Connectivity.NEAREST4
                   ) -> _ClusterStats:
    """Connected-component sizes under the grid's boundary rule."""
    n = grid.n
    occ = grid.occupied
    total = n * n
    parent = list(range(total))
    size = [1] * total
    pot_r = [0] * total
    pot_c = [0] * total
    torus = grid.boundary is Boundary.TORUS
    # Extents per root, for open-boundary edge-touch spanning.
    min_row = [i // n for i in range(total)]
    max_row = list(min_row)
    min_col = [i % n for i in range(total)]
    max_col = list(min_col)
    spanning_roots = set()

    def find(x: int) -> Tuple[int, int, int]:
        root = x
        pr = pc = 0
        while parent[root] != root:
            pr += pot_r[root]
            pc += pot_c[root]
            root = parent[root]
        cur = x
        cpr, cpc = pr, pc
        while parent[cur] != cur:
            nxt = parent[cur]
            npr, npc = pot_r[cur], pot_c[cur]
            parent[cur] = root
            pot_r[cur] = cpr
            pot_c[cur] = cpc
            cpr -= npr
            cpc -= npc
            cur = nxt
        return root, pr, pc

    steps = _STEPS4 if connectivity is Connectivity.NEAREST4 else _STEPS8
    occ_flat = occ.ravel()
    for r in range(n):
        base = r * n
        for c in range(n):
            s = base + c
            if not occ_flat[s]:
                continue
            for dr, dc in steps:
                rr = r + dr
                cc = c + dc
                if torus:
                    t = (rr % n) * n + (cc % n)
                else:
                    if rr < 0 or cc < 0 or cc >= n:
                        continue
                    t = rr * n + cc
                if not occ_flat[t]:
                    continue
                rs, prs, pcs = find(s)
                rt, prt, pct = find(t)
                if rs == rt:
                    if torus and (prt - prs, pct - pcs) != (dr, dc):
                        spanning_roots.add(rs)
                    continue
                # pos(t) = pos(s) + (dr, dc) in unrolled coordinates.
                off_r = prs + dr - prt
                off_c = pcs + dc - pct
                if size[rs] < size[rt]:
                    rs, rt = rt, rs
                    off_r, off_c = -off_r, -off_c
                parent[rt] = rs
                pot_r[rt] = off_r
                pot_c[rt] = off_c
                size[rs] += size[rt]
                if rt in spanning_roots:
                    spanning_roots.add(rs)
                if min_row[rt] < min_row[rs]:
                    min_row[rs] = min_row[rt]
                if max_row[rt] > max_row[rs]:
                    max_row[rs] = max_row[rt]
                if min_col[rt] < min_col[rs]:
                    min_col[rs] = min_col[rt]
                if max_col[rt] > max_col[rs]:
                    max_col[rs] = max_col[rt]

    sizes: List[int] = []
    spanning: List[int] = []
    seen_roots = set()
    for idx in range(total):
        if not occ_flat[idx]:
            continue
        root = find(idx)[0]
        if root in seen_roots:
            continue
        seen_roots.add(root)
        sizes.append(size[root])
        if torus:
            spans = root in spanning_roots
        else:
            spans = ((min_row[root] == 0 and max_row[root] == n - 1)
                     or (min_col[root] == 0 and max_col[root] == n - 1))
        if spans:
            spanning.append(size[root])
    return _ClusterStats(sizes=tuple(sorted(sizes)),
                         spanning_sizes=tuple(sorted(spanning)))


def _avg_cluster_size(stats: _ClusterStats) -> float:
    """Second moment over first moment of the non-spanning cluster sizes."""
    sizes = list(stats.sizes)
    for s in stats.spanning_sizes:
        sizes.remove(s)
    if not sizes:
        raise _NoClusters("no cluster remains to average")
    num = sum(s * s for s in sizes)
    den = sum(sizes)
    return num / den


@dataclass
class PercolationConfig:
    """One sweep: a parameter grid for one occupancy mode. An unknown mode,
    n or samples below 1, or a parameter no sample can be drawn at raises
    ValueError when the config is built."""
    mode: str                      # "independent" or "minesweeper"
    params: Sequence[float]
    n: int = 64
    samples: int = 200
    seed: int = 0
    boundary: Optional[Boundary] = None    # default: open / board default torus
    connectivity: Connectivity = Connectivity.NEAREST4

    def __post_init__(self) -> None:
        if self.mode not in ("independent", "minesweeper"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        for param in self.params:
            if self.mode == "minesweeper":
                check_board_shape(self.n, param, self._resolved_boundary())
            elif not 0.0 <= param <= 1.0:
                raise ValueError("p must lie in [0, 1]")

    def _resolved_boundary(self) -> Boundary:
        if self.boundary is not None:
            return self.boundary
        return Boundary.OPEN if self.mode == "independent" else Boundary.TORUS


@dataclass(frozen=True)
class PercRecord:
    mode: str
    param: float
    n: int
    s_avg_mean: float
    s_avg_se: float
    samples: int                   # samples contributing an s_avg


def percolation_sweep(config: PercolationConfig) -> List[PercRecord]:
    """Mean and standard error of s_avg per parameter value.

    Per-sample seeds are spawned from the master seed and the (parameter,
    sample) indices, so samples are independent and any execution order
    yields identical records. Samples whose grid keeps no cluster after
    spanning exclusion are skipped and not counted in `samples`.
    """
    boundary = config._resolved_boundary()
    records: List[PercRecord] = []
    for pi, param in enumerate(config.params):
        values = []
        for si in range(config.samples):
            ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(pi, si))
            if config.mode == "independent":
                grid = _independent_occupancy(config.n, param, ss, boundary)
            else:
                board = generate_board(config.n, param, ss, boundary,
                                       require_zero=False)
                grid = _minesweeper_occupancy(board)
            try:
                values.append(_avg_cluster_size(
                    _cluster_sizes(grid, config.connectivity)))
            except _NoClusters:
                continue
        if values:
            arr = np.asarray(values)
            mean = float(arr.mean())
            se = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
        else:
            mean = float("nan")
            se = float("nan")
        records.append(PercRecord(mode=config.mode, param=float(param),
                                  n=config.n, s_avg_mean=mean, s_avg_se=se,
                                  samples=len(values)))
    return records
