"""Percolation tests: cluster labeling against a flood-fill oracle,
handmade spanning and winding cases, occupancy rules, and sweep behavior."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from minelab.board import Board, Boundary, generate_board
from minelab.percolation import (Connectivity, PercolationConfig,
                                 percolation_sweep)
from minelab.percolation import (_avg_cluster_size as avg_cluster_size,
                                 _cluster_sizes as cluster_sizes,
                                 _minesweeper_occupancy as minesweeper_occupancy)

from conftest import dfs_cluster_oracle, dihedral_site, mine_sites

_STEPS = {Connectivity.NEAREST4: ((-1, 0), (0, -1), (1, 0), (0, 1)),
          Connectivity.MOORE8: tuple((dr, dc) for dr in (-1, 0, 1)
                                     for dc in (-1, 0, 1)
                                     if (dr, dc) != (0, 0))}

# sha256 over repr of the records of PINNED_CONFIGS, taken from the
# union-find labelling that the flood fill replaced.
PINNED_DIGEST = ("8ee7af7979e65124405b9bb096b17156"
                 "e85dde3cf7f37cb8cc6664fe585996d1")
PINNED_PARAMS = {"independent": (0.3, 0.6, 0.9), "minesweeper": (0.05, 0.12)}
PINNED_CONFIGS = [dict(mode=mode, params=PINNED_PARAMS[mode], n=n, samples=10,
                       seed=11, boundary=boundary, connectivity=conn)
                  for mode in ("independent", "minesweeper")
                  for boundary in (None, Boundary.OPEN, Boundary.TORUS)
                  for conn in Connectivity
                  for n in (3, 7, 16)]


def grid_from_rows(rows) -> np.ndarray:
    return np.array([[ch == "x" for ch in row] for row in rows])


def independent_occupancy(n: int, p: float, seed) -> np.ndarray:
    """I.i.d. occupation as percolation_sweep draws it."""
    return np.random.default_rng(seed).random((n, n)) < p


def dihedral_grid(occ: np.ndarray, k: int, shift=(0, 0)) -> np.ndarray:
    """The grid under the k-th symmetry of the square, then translated by
    shift, as conftest.dihedral_site maps sites."""
    n = occ.shape[0]
    image = np.zeros_like(occ)
    for r, c in np.argwhere(occ).tolist():
        image[dihedral_site((r, c), k, n, shift)] = True
    return image


def sorted_clusters(occ: np.ndarray, boundary: Boundary = Boundary.OPEN,
                    conn: Connectivity = Connectivity.NEAREST4):
    sizes, spanning = cluster_sizes(occ, boundary, conn)
    return tuple(sorted(sizes)), tuple(sorted(spanning))


class TestOccupancy:
    def test_empty_board_unoccupied(self):
        occ = minesweeper_occupancy(Board(6, Boundary.TORUS, set()))
        assert occ.shape == (6, 6)
        assert occ.dtype == bool
        assert not occ.any()

    def test_single_torus_mine_occupies_nine_sites(self):
        occ = minesweeper_occupancy(Board(6, Boundary.TORUS, {(2, 3)}))
        assert int(occ.sum()) == 9
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                assert occ[2 + dr, 3 + dc]

    def test_open_corner_mine(self):
        occ = minesweeper_occupancy(Board(5, Boundary.OPEN, {(0, 0)}))
        assert int(occ.sum()) == 4
        assert occ[0, 0] and occ[1, 1]

    def test_occupied_iff_neighborhood_mined(self, rng):
        # Torus rule: a site is occupied exactly when its 3x3 block holds
        # a mine.
        for _ in range(10):
            board = generate_board(8, float(rng.uniform(0.05, 0.3)), rng,
                                   require_zero=False)
            occ = minesweeper_occupancy(board)
            mines = mine_sites(board)
            for r in range(8):
                for c in range(8):
                    block_mined = any(
                        ((r + dr) % 8, (c + dc) % 8) in mines
                        for dr in (-1, 0, 1) for dc in (-1, 0, 1))
                    assert occ[r, c] == block_mined

    def test_independent_extremes(self):
        assert not independent_occupancy(10, 0.0, 0).any()
        assert independent_occupancy(10, 1.0, 0).all()

    def test_independent_fraction_tracks_p(self):
        n, p = 80, 0.3
        frac = independent_occupancy(n, p, 123).mean()
        sigma = math.sqrt(p * (1 - p) / (n * n))
        assert abs(frac - p) < 3 * sigma

    @pytest.mark.parametrize("mode, params", [("independent", (0.3, 0.6)),
                                              ("minesweeper", (0.05, 0.2))])
    def test_sweep_samples_these_grids(self, monkeypatch, mode, params):
        seen = []
        monkeypatch.setattr("minelab.percolation._cluster_sizes",
                            lambda occ, *args: seen.append(occ) or ([], []))
        percolation_sweep(PercolationConfig(mode=mode, params=params, n=9,
                                            samples=3, seed=5))
        assert len(seen) == 6
        for k, occ in enumerate(seen):
            pi, si = divmod(k, 3)
            ss = np.random.SeedSequence(entropy=5, spawn_key=(pi, si))
            if mode == "independent":
                expect = independent_occupancy(9, params[pi], ss)
            else:
                expect = minesweeper_occupancy(generate_board(
                    9, params[pi], ss, Boundary.TORUS, require_zero=False))
            assert np.array_equal(occ, expect)

    def test_independent_deterministic(self):
        assert np.array_equal(independent_occupancy(12, 0.4, 77),
                              independent_occupancy(12, 0.4, 77))


class TestClusterSizes:
    def test_matches_flood_fill_oracle(self, rng):
        for trial in range(120):
            n = int(rng.integers(2, 9))
            p = float(rng.uniform(0.2, 0.8))
            boundary = Boundary.TORUS if rng.random() < 0.5 else Boundary.OPEN
            conn = (Connectivity.NEAREST4 if rng.random() < 0.5
                    else Connectivity.MOORE8)
            occ = independent_occupancy(n, p, rng)
            assert (sorted_clusters(occ, boundary, conn)
                    == dfs_cluster_oracle(occ, boundary, _STEPS[conn])), \
                f"trial {trial}"

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("conn", list(Connectivity))
    def test_tiny_grids_match_oracle(self, boundary, conn):
        # On a torus of side 1 a site is its own neighbour, and on side 2
        # its neighbour on both sides: every such step closes a loop.
        for n in (1, 2):
            for bits in range(2 ** (n * n)):
                occ = np.array([bool(bits >> i & 1) for i in range(n * n)]
                               ).reshape(n, n)
                assert (sorted_clusters(occ, boundary, conn)
                        == dfs_cluster_oracle(occ, boundary, _STEPS[conn])), \
                    occ.tolist()

    def test_checkerboard_isolated_under_nearest4(self):
        n = 6
        occ = np.indices((n, n)).sum(axis=0) % 2 == 0
        assert sorted_clusters(occ) == (tuple([1] * (n * n // 2)), ())
        # Diagonal adjacency merges everything into one spanning cluster.
        assert (sorted_clusters(occ, Boundary.OPEN, Connectivity.MOORE8)
                == ((n * n // 2,), (n * n // 2,)))

    def test_full_grid_single_spanning_cluster(self):
        for boundary in (Boundary.OPEN, Boundary.TORUS):
            occ = np.ones((5, 5), dtype=bool)
            assert sorted_clusters(occ, boundary) == ((25,), (25,))

    def test_open_column_spans_rows(self):
        occ = grid_from_rows([".x..", ".x..", ".x..", ".x.."])
        assert sorted_clusters(occ) == ((4,), (4,))

    def test_open_bent_path_not_spanning(self):
        occ = grid_from_rows([".x..", ".x..", ".xx.", "...."])
        assert sorted_clusters(occ) == ((4,), ())

    def test_torus_ring_winds(self):
        # A full row wraps around the column axis: spanning on a torus.
        occ = grid_from_rows(["....", "xxxx", "....", "...."])
        assert sorted_clusters(occ, Boundary.TORUS)[1] == (4,)

    def test_torus_full_column_minus_gap_does_not_wind(self):
        # Same shape as a spanning column but broken by one hole: on the
        # torus, touching both edges is not enough, the loop must close.
        occ = grid_from_rows([".x..", ".x..", ".x..", "...."])
        assert sorted_clusters(occ, Boundary.TORUS) == ((3,), ())

    def test_torus_diagonal_winding_moore(self):
        # A diagonal stripe closes a loop with both offsets nonzero.
        occ = np.eye(4, dtype=bool)
        assert (sorted_clusters(occ, Boundary.TORUS, Connectivity.MOORE8)
                == ((4,), (4,)))

    def test_empty_grid_no_clusters(self):
        occ = np.zeros((3, 3), dtype=bool)
        assert sorted_clusters(occ) == ((), ())

    def test_torus_translation_invariance(self, rng):
        for _ in range(20):
            occ = rng.random((7, 7)) < 0.55
            dr, dc = int(rng.integers(7)), int(rng.integers(7))
            rolled = np.roll(occ, (dr, dc), axis=(0, 1))
            assert (sorted_clusters(occ, Boundary.TORUS)
                    == sorted_clusters(rolled, Boundary.TORUS))

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_dihedral_images_keep_the_clusters(self, rng, boundary):
        # Cluster sizes and spanning are properties of the grid, not of how
        # it is oriented: each of the 8 symmetries of the square (on a
        # torus also translated) keeps the sorted cluster and spanning
        # sizes, under both connectivities.
        shift = (3, 7) if boundary is Boundary.TORUS else (0, 0)
        for i in range(10):
            if i % 2:
                occ = independent_occupancy(16, 0.59, rng)
            else:
                occ = minesweeper_occupancy(generate_board(
                    16, 0.1, rng, boundary, require_zero=False))
            for conn in Connectivity:
                expected = sorted_clusters(occ, boundary, conn)
                for k in range(8):
                    assert sorted_clusters(dihedral_grid(occ, k, shift),
                                           boundary, conn) == expected, (
                        i, conn, k)


class TestAvgClusterSize:
    def test_single_cluster(self):
        assert avg_cluster_size([5], []) == 5.0

    def test_weighted_mean(self):
        assert avg_cluster_size([1, 1, 2], []) == 1.5

    def test_spanning_excluded(self):
        assert avg_cluster_size([1, 20, 1, 2], [20]) == 1.5

    def test_no_cluster_left(self):
        assert avg_cluster_size([], []) is None
        assert avg_cluster_size([9], [9]) is None


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
                sizes, _ = cluster_sizes(occ, Boundary.OPEN,
                                         Connectivity.NEAREST4)
                largest.append(max(sizes))
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

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError, match="params must be a nonempty list"):
            PercolationConfig(mode="independent", params=[])

    def test_boundary_defaults(self):
        assert (PercolationConfig(mode="independent", params=[0.5])
                .boundary is Boundary.OPEN)
        assert (PercolationConfig(mode="minesweeper", params=[0.1])
                .boundary is Boundary.TORUS)
        assert (PercolationConfig(mode="minesweeper", params=[0.1],
                                  boundary=Boundary.OPEN)
                .boundary is Boundary.OPEN)

    def test_pinned_records(self):
        digest = hashlib.sha256()
        for kwargs in PINNED_CONFIGS:
            records = percolation_sweep(PercolationConfig(**kwargs))
            digest.update(repr(records).encode())
        assert digest.hexdigest() == PINNED_DIGEST
