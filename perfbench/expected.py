"""Regenerate a workload's committed expected results; run from the repo root.

    python3 perfbench/expected.py --workload sat-cores

Plays every master of the workload's pool once and writes
perfbench/expected/<workload>.json: per game (alpha, turns, outcome) for the
game workloads; for the sweep, the games.csv and summary.csv rows without
max_core and wall-clock columns. Regenerate only for a commit whose results
are meant to change, and say so where the change is described.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import import_program  # noqa: E402

import_program()
import benchcore  # noqa: E402


def game_rows(w, master):
    boards = benchcore.make_boards(w, [master])
    return [benchcore.result_row(benchcore.play(boards[(master, c.n, c.rho)], c, master))
            for c in w.cells]


def sweep_rows(w, master):
    benchcore.OUT.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="expected-", dir=benchcore.OUT))
    try:
        benchcore.sweep_pair(benchcore.sweep_config(w, master, outdir))
        games = benchcore.read_csv(outdir / "games.csv")
        summary = benchcore.read_csv(outdir / "summary.csv")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return {"games": benchcore.checked_rows(games, benchcore.GAMES_CHECKED),
            "summary": benchcore.checked_rows(summary, benchcore.SUMMARY_CHECKED)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(benchcore.WORKLOADS))
    args = ap.parse_args()
    w = benchcore.WORKLOADS[args.workload]
    if isinstance(w, benchcore.GameWorkload):
        doc = {"workload": w.name,
               "cells": [[c.n, c.rho, c.policy, c.cores] for c in w.cells],
               "row": ["alpha", "turns", "outcome"],
               "masters": [game_rows(w, m) for m in range(w.pool)]}
    else:
        doc = {"workload": w.name, "games_columns": list(benchcore.GAMES_CHECKED),
               "summary_columns": list(benchcore.SUMMARY_CHECKED),
               "masters": [sweep_rows(w, m) for m in range(w.pool)]}
    benchcore.EXPECTED.mkdir(exist_ok=True)
    path = benchcore.EXPECTED / f"{w.name}.json"
    with open(path, "w") as fh:
        fh.write("{\n")
        items = list(doc.items())
        for k, (key, value) in enumerate(items):
            if key == "masters":
                fh.write(f' "{key}": [\n')
                fh.write(",\n".join("  " + json.dumps(v) for v in value))
                fh.write("\n ]")
            else:
                fh.write(f" {json.dumps(key)}: {json.dumps(value)}")
            fh.write(",\n" if k + 1 < len(items) else "\n")
        fh.write("}\n")
    print(f"wrote {path} ({len(doc['masters'])} masters)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
