"""Golden-slice regression: replay a few fixed games and compare them with
their committed rows in the acceptance cache.

Gates 1-4 reload cached per-point rows, so they cannot notice a change in
the inference code. This slice plays the same boards from scratch, with the
time budget off, and asserts every column of the committed games.csv row,
max_core included: sat with cores at n=20 around the hardness peak, sat
with cores at n=40 (whose passes split into the most components), and
kset:1/2/3 at n=40 on shared boards.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from minelab.board import Boundary, generate_board
from minelab.harness import _record_to_row, game_seed, read_games_csv
from minelab.player import play_game

CACHE = Path(__file__).parent / "_acceptance_cache"
SEEDS = (0, 1, 2)
SLICE = ([("sat_sweep", 20, rho, "sat", True)
          for rho in (0.15, 0.2, 0.225, 0.25)]
         + [("sat_sweep", 40, 0.2, "sat", True)]
         + [("kset_sweep", 40, 0.225, f"kset:{k}", False) for k in (1, 2, 3)])


def committed_rows(sweep: str):
    return {(r["n"], r["rho"], r["policy"], r["seed"]): r
            for r in read_games_csv(CACHE / sweep / "games.csv")}


@pytest.mark.parametrize("sweep,n,rho,policy,cores", SLICE)
def test_replay_matches_committed_rows(sweep, n, rho, policy, cores):
    expected = committed_rows(sweep)
    for i in SEEDS:
        board = generate_board(n, rho, game_seed(0, rho, i), Boundary.TORUS)
        rec = play_game(board, policy, track_cores=cores, time_budget_s=None,
                        rho=rho, seed=i)
        assert _record_to_row(rec, False) == expected[(n, rho, policy, i)]
