"""Replay the cached acceptance sweeps from scratch and diff them.

    PYTHONPATH=src python tests/replay_acceptance.py [--outdir DIR]

Plays the sat_sweep, kset_sweep and stratification configurations of
tests/test_acceptance.py into an empty directory (a temporary one unless
--outdir names a new one) with two worker processes, then compares each
sweep with its committed copy under tests/_acceptance_cache/: the number of
games.csv rows that differ in each column (wall_ms excluded), each
differing row, whether summary.csv is byte-identical, and the elapsed
seconds. Exits 1 on any difference. To refresh the cache after a change
that really moves the numbers, replay with --outdir and copy that sweep's
games.csv, summary.csv and points/ over the committed ones.

The stratification rho is chosen from the replayed sweeps, as the
acceptance fixtures choose it from the cached ones. Not collected by
pytest; gates 1-4 themselves read the committed cache.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from minelab.harness import GAMES_COLUMNS, read_games_csv, run_sweep

from test_acceptance import (CACHE, kset_sweep_config, sat_sweep_config,
                             stratification_config, stratification_rho)

WORKERS = 2
KEY = ("n", "rho", "policy", "seed")
COMPARED = tuple(c for c in GAMES_COLUMNS if c not in KEY + ("wall_ms",))


def diff_sweep(name: str, outdir: Path) -> bool:
    """Print the differences from the committed cache; True if none."""
    committed = {tuple(r[k] for k in KEY): r
                 for r in read_games_csv(CACHE / name / "games.csv")}
    replayed = {tuple(r[k] for k in KEY): r
                for r in read_games_csv(outdir / "games.csv")}
    same = committed.keys() == replayed.keys()
    if not same:
        print(f"  rows: {len(replayed)} replayed, {len(committed)} committed, "
              f"{len(replayed.keys() ^ committed.keys())} keys in only one")
    changes = []
    for col in COMPARED:
        moved = [(key, committed[key][col], replayed[key][col])
                 for key in sorted(committed.keys() & replayed.keys())
                 if committed[key][col] != replayed[key][col]]
        line = f"  {col}: {len(moved)} rows differ"
        if moved and all(isinstance(a, (int, float)) and
                         isinstance(b, (int, float)) for _, a, b in moved):
            up = sum(1 for _, a, b in moved if b > a)
            line += f" ({len(moved) - up} smaller, {up} larger)"
        print(line)
        changes.extend((key, col, a, b) for key, a, b in moved)
    for key, col, a, b in changes:
        n, rho, policy, seed = key
        print(f"    n={n} rho={rho} {policy} seed={seed}: {col} {a} -> {b}")
    summary_same = ((outdir / "summary.csv").read_bytes()
                    == (CACHE / name / "summary.csv").read_bytes())
    print(f"  summary.csv byte-identical: {summary_same}")
    return same and not changes and summary_same


def replay(name: str, config):
    """Run one sweep; its records and whether it matches the cache."""
    t0 = time.perf_counter()
    records = run_sweep(replace(config, workers=WORKERS))
    print(f"{name}: replayed in {time.perf_counter() - t0:.0f} s")
    return records, diff_sweep(name, Path(config.outdir))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--outdir", type=Path,
                    help="new directory to keep the replayed sweeps in")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = args.outdir if args.outdir is not None else Path(tmp)
        if root.exists() and any(root.iterdir()):
            ap.error(f"{root} is not empty")
        t0 = time.perf_counter()
        sat, sat_ok = replay("sat_sweep",
                             sat_sweep_config(root / "sat_sweep"))
        kset, kset_ok = replay("kset_sweep",
                               kset_sweep_config(root / "kset_sweep"))
        rho_star = stratification_rho(sat, kset)
        print(f"stratification rho* = {rho_star}")
        _, strat_ok = replay("stratification", stratification_config(
            rho_star, root / "stratification"))
        ok = sat_ok and kset_ok and strat_ok
        print(f"total: {time.perf_counter() - t0:.0f} s, "
              f"{'no differences' if ok else 'DIFFERENCES FOUND'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
