"""Percolation tests: cluster labeling against a flood-fill oracle,
handmade spanning and winding cases, occupancy rules, and sweep behavior."""
from __future__ import annotations

import math

import numpy as np
import pytest

from minelab.board import Board, Boundary, generate_board
from minelab.percolation import (Connectivity, PercolationConfig,
                                 percolation_sweep)
from minelab.percolation import (_ClusterStats as ClusterStats,
                                 _NoClusters as NoClusters,
                                 _OccupancyGrid as OccupancyGrid,
                                 _avg_cluster_size as avg_cluster_size,
                                 _cluster_sizes as cluster_sizes,
                                 _independent_occupancy as independent_occupancy,
                                 _minesweeper_occupancy as minesweeper_occupancy)

from conftest import dfs_cluster_oracle

_STEPS = {Connectivity.NEAREST4: ((-1, 0), (0, -1), (1, 0), (0, 1)),
          Connectivity.MOORE8: tuple((dr, dc) for dr in (-1, 0, 1)
                                     for dc in (-1, 0, 1)
                                     if (dr, dc) != (0, 0))}


def grid_from_rows(rows, boundary=Boundary.OPEN) -> OccupancyGrid:
    occ = np.array([[ch == "x" for ch in row] for row in rows])
    return OccupancyGrid(n=occ.shape[0], occupied=occ, boundary=boundary)


class TestOccupancy:
    def test_empty_board_unoccupied(self):
        board = Board(6, Boundary.TORUS, set())
        occ = minesweeper_occupancy(board)
        assert occ.n == 6
        assert occ.boundary is Boundary.TORUS
        assert not occ.occupied.any()

    def test_single_torus_mine_occupies_nine_sites(self):
        board = Board(6, Boundary.TORUS, {(2, 3)})
        occ = minesweeper_occupancy(board)
        assert int(occ.occupied.sum()) == 9
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                assert occ.occupied[2 + dr, 3 + dc]

    def test_open_corner_mine(self):
        board = Board(5, Boundary.OPEN, {(0, 0)})
        occ = minesweeper_occupancy(board)
        assert int(occ.occupied.sum()) == 4
        assert occ.occupied[0, 0] and occ.occupied[1, 1]

    def test_occupied_iff_neighborhood_mined(self, rng):
        # Torus rule: a site is occupied exactly when its 3x3 block holds
        # a mine.
        for _ in range(10):
            board = generate_board(8, float(rng.uniform(0.05, 0.3)), rng,
                                   require_zero=False)
            occ = minesweeper_occupancy(board)
            for r in range(8):
                for c in range(8):
                    block_mined = any(
                        ((r + dr) % 8, (c + dc) % 8) in board.mines
                        for dr in (-1, 0, 1) for dc in (-1, 0, 1))
                    assert occ.occupied[r, c] == block_mined

    def test_independent_extremes(self):
        assert not independent_occupancy(10, 0.0, 0).occupied.any()
        assert independent_occupancy(10, 1.0, 0).occupied.all()

    def test_independent_fraction_tracks_p(self):
        n, p = 80, 0.3
        occ = independent_occupancy(n, p, 123)
        frac = occ.occupied.mean()
        sigma = math.sqrt(p * (1 - p) / (n * n))
        assert abs(frac - p) < 3 * sigma

    def test_independent_deterministic(self):
        a = independent_occupancy(12, 0.4, 77)
        b = independent_occupancy(12, 0.4, 77)
        assert np.array_equal(a.occupied, b.occupied)

    def test_independent_bad_p(self):
        with pytest.raises(ValueError):
            independent_occupancy(5, 1.5, 0)


class TestClusterSizes:
    def test_matches_flood_fill_oracle(self, rng):
        for trial in range(120):
            n = int(rng.integers(2, 9))
            p = float(rng.uniform(0.2, 0.8))
            boundary = Boundary.TORUS if rng.random() < 0.5 else Boundary.OPEN
            conn = (Connectivity.NEAREST4 if rng.random() < 0.5
                    else Connectivity.MOORE8)
            occ = independent_occupancy(n, p, rng, boundary)
            stats = cluster_sizes(occ, conn)
            oracle_sizes, oracle_spanning = dfs_cluster_oracle(
                occ.occupied, boundary, _STEPS[conn])
            assert sorted(stats.sizes) == sorted(oracle_sizes), f"trial {trial}"
            assert (sorted(stats.spanning_sizes)
                    == sorted(oracle_spanning)), f"trial {trial}"

    def test_checkerboard_isolated_under_nearest4(self):
        n = 6
        occ = np.indices((n, n)).sum(axis=0) % 2 == 0
        grid = OccupancyGrid(n=n, occupied=occ, boundary=Boundary.OPEN)
        stats = cluster_sizes(grid, Connectivity.NEAREST4)
        assert stats.sizes == tuple([1] * (n * n // 2))
        assert stats.spanning_sizes == ()
        # Diagonal adjacency merges everything into one spanning cluster.
        moore = cluster_sizes(grid, Connectivity.MOORE8)
        assert moore.sizes == (n * n // 2,)
        assert moore.spanning_sizes == (n * n // 2,)

    def test_full_grid_single_spanning_cluster(self):
        for boundary in (Boundary.OPEN, Boundary.TORUS):
            grid = OccupancyGrid(n=5, occupied=np.ones((5, 5), dtype=bool),
                                 boundary=boundary)
            stats = cluster_sizes(grid)
            assert stats.sizes == (25,)
            assert stats.spanning_sizes == (25,)

    def test_open_column_spans_rows(self):
        grid = grid_from_rows([".x..", ".x..", ".x..", ".x.."])
        stats = cluster_sizes(grid)
        assert stats.sizes == (4,)
        assert stats.spanning_sizes == (4,)

    def test_open_bent_path_not_spanning(self):
        grid = grid_from_rows([".x..", ".x..", ".xx.", "...."])
        stats = cluster_sizes(grid)
        assert stats.sizes == (4,)
        assert stats.spanning_sizes == ()

    def test_torus_ring_winds(self):
        # A full row wraps around the column axis: spanning on a torus.
        grid = grid_from_rows(["....", "xxxx", "....", "...."],
                              boundary=Boundary.TORUS)
        stats = cluster_sizes(grid)
        assert stats.spanning_sizes == (4,)

    def test_torus_full_column_minus_gap_does_not_wind(self):
        # Same shape as a spanning column but broken by one hole: on the
        # torus, touching both edges is not enough, the loop must close.
        grid = grid_from_rows([".x..", ".x..", ".x..", "...."],
                              boundary=Boundary.TORUS)
        stats = cluster_sizes(grid)
        assert stats.sizes == (3,)
        assert stats.spanning_sizes == ()

    def test_torus_diagonal_winding_moore(self):
        # A diagonal stripe closes a loop with both offsets nonzero.
        n = 4
        occ = np.zeros((n, n), dtype=bool)
        for i in range(n):
            occ[i, i] = True
        grid = OccupancyGrid(n=n, occupied=occ, boundary=Boundary.TORUS)
        stats = cluster_sizes(grid, Connectivity.MOORE8)
        assert stats.sizes == (4,)
        assert stats.spanning_sizes == (4,)

    def test_empty_grid_no_clusters(self):
        grid = OccupancyGrid(n=3, occupied=np.zeros((3, 3), dtype=bool),
                             boundary=Boundary.OPEN)
        stats = cluster_sizes(grid)
        assert stats.sizes == ()
        assert stats.spanning_sizes == ()

    def test_torus_translation_invariance(self, rng):
        for _ in range(20):
            occ = rng.random((7, 7)) < 0.55
            base = cluster_sizes(OccupancyGrid(7, occ, Boundary.TORUS))
            dr, dc = int(rng.integers(7)), int(rng.integers(7))
            rolled = np.roll(occ, (dr, dc), axis=(0, 1))
            moved = cluster_sizes(OccupancyGrid(7, rolled, Boundary.TORUS))
            assert sorted(base.sizes) == sorted(moved.sizes)
            assert (sorted(base.spanning_sizes)
                    == sorted(moved.spanning_sizes))


class TestAvgClusterSize:
    def test_single_cluster(self):
        stats = ClusterStats(sizes=(5,), spanning_sizes=())
        assert avg_cluster_size(stats) == 5.0

    def test_weighted_mean(self):
        stats = ClusterStats(sizes=(1, 1, 2), spanning_sizes=())
        assert avg_cluster_size(stats) == 1.5

    def test_spanning_excluded(self):
        stats = ClusterStats(sizes=(1, 1, 2, 20), spanning_sizes=(20,))
        assert avg_cluster_size(stats) == 1.5

    def test_no_clusters_raises(self):
        with pytest.raises(NoClusters):
            avg_cluster_size(ClusterStats(sizes=(), spanning_sizes=()))
        with pytest.raises(NoClusters):
            avg_cluster_size(ClusterStats(sizes=(9,), spanning_sizes=(9,)))


class TestCriticalGrowth:
    def test_largest_cluster_grows_with_system_size(self):
        # At the threshold the largest cluster keeps growing in absolute
        # size with n (its fraction of n^2 shrinks slowly instead).
        medians = []
        for n in (32, 64):
            largest = []
            for si in range(40):
                ss = np.random.SeedSequence(entropy=4242, spawn_key=(n, si))
                occ = independent_occupancy(n, 0.593, ss)
                stats = cluster_sizes(occ)
                largest.append(max(stats.sizes))
            medians.append(float(np.median(largest)))
        assert medians[1] > 2.0 * medians[0]


class TestSweep:
    def test_records_deterministic_and_ordered(self):
        config = PercolationConfig(mode="independent", params=[0.3, 0.5],
                                   n=16, samples=12, seed=9)
        a = percolation_sweep(config)
        b = percolation_sweep(config)
        assert a == b
        assert [r.param for r in a] == [0.3, 0.5]
        for r in a:
            assert r.mode == "independent"
            assert r.n == 16
            assert 0 < r.samples <= 12
            assert r.s_avg_mean > 0.0

    def test_minesweeper_mode(self):
        config = PercolationConfig(mode="minesweeper", params=[0.08],
                                   n=16, samples=8, seed=3)
        (record,) = percolation_sweep(config)
        assert record.mode == "minesweeper"
        assert record.samples > 0
        assert record.s_avg_mean >= 1.0

    def test_single_sample_has_zero_se(self):
        config = PercolationConfig(mode="independent", params=[0.4],
                                   n=12, samples=1, seed=5)
        (record,) = percolation_sweep(config)
        assert record.samples == 1
        assert record.s_avg_se == 0.0

    def test_se_shrinks_with_sample_count(self):
        small = percolation_sweep(PercolationConfig(
            mode="independent", params=[0.45], n=24, samples=60, seed=1))[0]
        big = percolation_sweep(PercolationConfig(
            mode="independent", params=[0.45], n=24, samples=240, seed=1))[0]
        # Quadrupling samples should halve the standard error, roughly.
        ratio = big.s_avg_se / small.s_avg_se
        assert 0.25 < ratio < 0.8

    def test_unoccupied_parameter_yields_nan(self):
        config = PercolationConfig(mode="independent", params=[0.0],
                                   n=8, samples=4, seed=0)
        (record,) = percolation_sweep(config)
        assert record.samples == 0
        assert math.isnan(record.s_avg_mean)
        assert math.isnan(record.s_avg_se)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            percolation_sweep(PercolationConfig(mode="random", params=[0.1]))

    def test_boundary_defaults(self):
        assert (PercolationConfig(mode="independent", params=[])
                ._resolved_boundary() is Boundary.OPEN)
        assert (PercolationConfig(mode="minesweeper", params=[])
                ._resolved_boundary() is Boundary.TORUS)
        assert (PercolationConfig(mode="minesweeper", params=[],
                                  boundary=Boundary.OPEN)
                ._resolved_boundary() is Boundary.OPEN)
