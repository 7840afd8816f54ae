"""Command-line front end.

Subcommands:
  play         play one game, print it as a games.csv-schema row
  kset         play a batch of k-set games, print rows with a header
  solve        solve a DIMACS/GCNF file, print SAT/UNSAT and a model line
  core         minimal group core of a GCNF file under a pivot literal
  percolation  cluster-size sweep, CSV on stdout
  sweep        full (n, rho, policy) grid from a key=value config file
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .board import Boundary, GenerationExhausted, generate_board
from .cnf import parse_dimacs, parse_gcnf
from .gmus import NotUnsat, extract_gmus
from .harness import (_exhausted_record, _record_to_row, _row_to_cells,
                      game_seed, parse_grid, parse_sweep_config, run_sweep,
                      GAMES_COLUMNS)
from .percolation import Connectivity, PercolationConfig, percolation_sweep
from .player import GameRecord, Policy, Verdict, play_game
from .plots import EmptyInput, render_plots
from .sat import Solver


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _parse_formula(text: str):
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p gcnf"):
            return parse_gcnf(text)
        if stripped.startswith("p cnf"):
            return parse_dimacs(text)
        break
    raise ValueError("input is neither DIMACS (p cnf) nor GCNF (p gcnf)")


def _row_line(record: GameRecord, *, include_timing: bool = True) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerow(
        _row_to_cells(_record_to_row(record, include_timing)))
    return buf.getvalue().rstrip("\r\n")


def cmd_play(args: argparse.Namespace) -> int:
    boundary = Boundary(args.boundary)
    policy = Policy.parse(args.policy)
    ss = game_seed(args.master, args.rho, args.seed)
    try:
        board = generate_board(args.n, args.rho, ss, boundary)
    except GenerationExhausted:
        print(_row_line(_exhausted_record(args.n, args.rho, str(policy),
                                          args.seed)))
        return 0

    trace_fn = None
    if args.trace:
        def trace_fn(turn: int, inferences) -> None:
            cores = [inf.core.size for inf in inferences
                     if inf.core is not None]
            print(json.dumps({
                "turn": turn,
                "inferences": len(inferences),
                "safe": sum(1 for i in inferences
                            if i.verdict is Verdict.SAFE),
                "mine": sum(1 for i in inferences
                            if i.verdict is Verdict.MINE),
                "core_size": max(cores) if cores else None,
            }))

    record = play_game(board, policy, track_cores=not args.no_cores,
                       time_budget_s=args.time_budget,
                       conflict_budget=args.conflict_budget,
                       rho=args.rho, seed=args.seed, trace_fn=trace_fn)
    print(_row_line(record))
    return 0


def cmd_kset(args: argparse.Namespace) -> int:
    boundary = Boundary(args.boundary)
    policy = f"kset:{args.k}"
    writer = csv.writer(sys.stdout)
    writer.writerow(GAMES_COLUMNS)
    for idx in range(args.seeds):
        ss = game_seed(args.master, args.rho, idx)
        try:
            board = generate_board(args.n, args.rho, ss, boundary)
        except GenerationExhausted:
            record = _exhausted_record(args.n, args.rho, policy, idx)
        else:
            record = play_game(board, policy, time_budget_s=args.time_budget,
                               rho=args.rho, seed=idx)
        writer.writerow(_row_to_cells(_record_to_row(record, True)))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    formula = _parse_formula(_read_source(args.file))
    result = Solver(formula, conflict_budget=args.conflict_budget).solve()
    if result.sat:
        print("SAT")
        lits = [v if result.model[v] else -v
                for v in sorted(result.model)]
        print("v " + " ".join(str(l) for l in lits) + " 0")
    else:
        print("UNSAT")
    return 0


def cmd_core(args: argparse.Namespace) -> int:
    formula = _parse_formula(_read_source(args.file))
    try:
        result = extract_gmus(formula, args.pivot)
    except NotUnsat:
        print("not unsat under the pivot", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"minelab core: {exc}", file=sys.stderr)
        return 2
    groups = " ".join(str(g + 1) for g in sorted(result.core))
    print(f"groups: {groups}")
    print(f"C = {result.size}")
    return 0


def cmd_percolation(args: argparse.Namespace) -> int:
    config = PercolationConfig(
        mode=args.mode, params=parse_grid(args.param_grid), n=args.n,
        samples=args.samples, seed=args.seed,
        boundary=Boundary(args.boundary) if args.boundary else None,
        connectivity=Connectivity(args.connectivity))
    records = percolation_sweep(config)
    writer = csv.writer(sys.stdout)
    writer.writerow(["mode", "param", "n", "s_avg_mean", "s_avg_se",
                     "samples"])
    for r in records:
        writer.writerow([r.mode, repr(r.param), str(r.n),
                         repr(r.s_avg_mean), repr(r.s_avg_se),
                         str(r.samples)])
    if args.svg:
        try:
            render_plots(records, "percolation", args.svg)
        except EmptyInput:
            print("no plottable points, svg skipped", file=sys.stderr)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = parse_sweep_config(Path(args.config).read_text())
    if args.outdir is not None:
        config.outdir = Path(args.outdir)
    if config.outdir is None:
        print("config must set outdir= (or pass --outdir)", file=sys.stderr)
        return 1
    records = run_sweep(config)
    outdir = Path(config.outdir)
    for kind, name in (("alpha", "alpha.svg"), ("core", "core.svg")):
        try:
            render_plots(records, kind, outdir / name)
        except EmptyInput:
            continue
    expected = len(config.ns) * len(config.rhos) * len(config.policies)
    if len(records) != expected:
        print(f"only {len(records)} of {expected} points completed",
              file=sys.stderr)
        return 1
    print(f"{len(records)} points -> {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minelab",
        description="Minesweeper inference hardness laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("play", help="play one game and print its CSV row")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="game index in the master-seeded stream")
    p.add_argument("--master", type=int, default=0)
    p.add_argument("--policy", default="sat", help="sat or kset:K")
    p.add_argument("--boundary", choices=["torus", "open"], default="torus")
    p.add_argument("--trace", action="store_true",
                   help="emit per-turn JSON lines before the row")
    p.add_argument("--no-cores", action="store_true")
    p.add_argument("--time-budget", type=float, default=60.0)
    p.add_argument("--conflict-budget", type=int, default=1_000_000)
    p.set_defaults(fn=cmd_play)

    p = sub.add_parser("kset", help="batch of k-set games as CSV rows")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--seeds", type=int, required=True,
                   help="number of game indices, 0..seeds-1")
    p.add_argument("--master", type=int, default=0)
    p.add_argument("--boundary", choices=["torus", "open"], default="torus")
    p.add_argument("--time-budget", type=float, default=60.0)
    p.set_defaults(fn=cmd_kset)

    p = sub.add_parser("solve", help="solve a DIMACS or GCNF file")
    p.add_argument("file", help="path or - for stdin")
    p.add_argument("--conflict-budget", type=int, default=1_000_000)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("core", help="minimal group core of a GCNF file")
    p.add_argument("file", help="path or - for stdin")
    p.add_argument("pivot", type=int, help="assumption literal")
    p.set_defaults(fn=cmd_core)

    p = sub.add_parser("percolation", help="cluster-size sweep as CSV")
    p.add_argument("--mode", choices=["minesweeper", "independent"],
                   required=True)
    p.add_argument("--param-grid", required=True,
                   help="comma list, entries may be start:stop:step")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--boundary", choices=["torus", "open"], default=None)
    p.add_argument("--connectivity", choices=["nearest4", "moore8"],
                   default="nearest4")
    p.add_argument("--svg", default=None, help="also render an SVG chart")
    p.set_defaults(fn=cmd_percolation)

    p = sub.add_parser("sweep", help="grid sweep from a key=value config")
    p.add_argument("--config", required=True)
    p.add_argument("--outdir", default=None,
                   help="override the config outdir")
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
