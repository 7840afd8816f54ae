"""Monte Carlo cluster statistics for Minesweeper-induced site occupancy.

A board induces an occupancy grid (mine or nonzero label); on a torus each
site is occupied unless its 3x3 neighborhood is mine-free, so the occupied
fraction tracks 1 - (1 - rho)^9. Clusters come from one depth-first flood
fill per grid, under Nearest4 (the standard square-lattice site percolation
setting, threshold near p = 0.593) or Moore8 connectivity.

The average cluster size estimator is the second moment over the first
moment of the cluster size distribution, with spanning clusters excluded.
Spanning means touching both opposite edges of some axis on an open grid,
and wrapping an axis on a torus. The fill gives every site it reaches a
position in unrolled (infinite-plane) coordinates; a step that reaches a
site of the cluster at another position than the step implies has closed a
loop around the torus.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .board import _OFFSETS, Board, Boundary, check_board_shape, generate_board
from .harness import check_seed, mean_se, reject_repeats, rho_key


class Connectivity(enum.Enum):
    NEAREST4 = "nearest4"
    MOORE8 = "moore8"


_STEPS = {Connectivity.NEAREST4: ((-1, 0), (0, -1), (0, 1), (1, 0)),
          Connectivity.MOORE8: _OFFSETS}


def _minesweeper_occupancy(board: Board) -> np.ndarray:
    """Occupied = mined or labeled nonzero, as an (n, n) bool array."""
    return board.mine_grid | (board.labels > 0)


def _cluster_sizes(occupied: np.ndarray, boundary: Boundary,
                   connectivity: Connectivity) -> Tuple[List[int], List[int]]:
    """Sizes of the clusters of occupied sites, and of those that span."""
    n = occupied.shape[0]
    torus = boundary is Boundary.TORUS
    steps = _STEPS[connectivity]
    occ = occupied.ravel().tolist()
    pos: List[Optional[Tuple[int, int]]] = [None] * (n * n)
    sizes: List[int] = []
    spanning: List[int] = []
    for start in range(n * n):
        if not occ[start] or pos[start] is not None:
            continue
        pos[start] = divmod(start, n)
        stack = [start]
        cluster = []
        wraps = False
        while stack:
            s = stack.pop()
            cluster.append(pos[s])
            r, c = pos[s]
            for dr, dc in steps:
                ur, uc = r + dr, c + dc
                if torus:
                    t = ur % n * n + uc % n
                elif 0 <= ur < n and 0 <= uc < n:
                    t = ur * n + uc
                else:
                    continue
                if not occ[t]:
                    continue
                if pos[t] is None:
                    pos[t] = (ur, uc)
                    stack.append(t)
                elif pos[t] != (ur, uc):
                    wraps = True
        sizes.append(len(cluster))
        if not torus:
            rows = {r for r, _ in cluster}
            cols = {c for _, c in cluster}
            wraps = {0, n - 1} <= rows or {0, n - 1} <= cols
        if wraps:
            spanning.append(len(cluster))
    return sizes, spanning


def _avg_cluster_size(sizes: List[int], spanning: List[int]
                      ) -> Optional[float]:
    """Second moment over first moment of the non-spanning cluster sizes;
    None when no cluster remains."""
    den = sum(sizes) - sum(spanning)
    if not den:
        return None
    return (sum(s * s for s in sizes) - sum(s * s for s in spanning)) / den


@dataclass
class PercolationConfig:
    """One sweep: a parameter grid for one occupancy mode. An unknown mode,
    n or samples below 1, a negative seed, an empty grid, a parameter no
    sample can be drawn at, or two parameters that round to the same
    micro-unit raise ValueError when the config is built. A boundary left None resolves to
    open for independent occupation and to the board's torus otherwise."""
    mode: str                      # "independent" or "minesweeper"
    params: Sequence[float]
    n: int = 64
    samples: int = 200
    seed: int = 0
    boundary: Optional[Boundary] = None
    connectivity: Connectivity = Connectivity.NEAREST4

    def __post_init__(self) -> None:
        if self.mode not in ("independent", "minesweeper"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        check_seed("seed", self.seed)
        if self.boundary is None:
            self.boundary = (Boundary.OPEN if self.mode == "independent"
                             else Boundary.TORUS)
        if not self.params:
            raise ValueError("params must be a nonempty list")
        for param in self.params:
            if self.mode == "minesweeper":
                check_board_shape(self.n, param, self.boundary)
            elif not 0.0 <= param <= 1.0:
                raise ValueError("p must lie in [0, 1]")
        reject_repeats("params", self.params, rho_key)


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
    spanning exclusion add no value and are not counted in `samples`.
    """
    n = config.n
    records: List[PercRecord] = []
    for pi, param in enumerate(config.params):
        values = []
        for si in range(config.samples):
            ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(pi, si))
            if config.mode == "independent":
                occupied = np.random.default_rng(ss).random((n, n)) < param
            else:
                occupied = _minesweeper_occupancy(generate_board(
                    n, param, ss, config.boundary, require_zero=False))
            value = _avg_cluster_size(*_cluster_sizes(
                occupied, config.boundary, config.connectivity))
            if value is not None:
                values.append(value)
        mean, se = mean_se(values) if values else (np.nan, np.nan)
        records.append(PercRecord(mode=config.mode, param=float(param), n=n,
                                  s_avg_mean=mean, s_avg_se=se,
                                  samples=len(values)))
    return records
