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
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .board import Boundary, check_board_shape
from .cnf import parse_formula
from .gmus import NotUnsat, extract_gmus
from .harness import (GAMES_COLUMNS, check_seed, parse_grid,
                      parse_sweep_config, play_seeded_game, record_cells,
                      run_sweep, validate_config)
from .percolation import Connectivity, PercolationConfig, percolation_sweep
from .player import Inference, Policy, Verdict, check_budgets
from .plots import EmptyInput, render_plots
from .sat import ResourceLimit, Solver


def _read_formula(path: str):
    """The DIMACS or GCNF formula in a file, or on stdin for -."""
    return parse_formula(sys.stdin.read() if path == "-"
                         else Path(path).read_text())


def _stdout_csv():
    """A CSV writer on stdout. Its rows end in a bare newline, like every
    other line the CLI prints. Files keep the csv module's CRLF."""
    return csv.writer(sys.stdout, lineterminator="\n")


def _input_error(command: str, exc: Exception) -> int:
    """Print one error line on stderr; the exit status for bad input."""
    print(f"minelab {command}: {exc}", file=sys.stderr)
    return 2


def _cmd_play(args: argparse.Namespace) -> int:
    boundary = Boundary(args.boundary)
    try:
        policy = Policy.parse(args.policy)
        check_board_shape(args.n, args.rho, boundary)
        check_seed("--master", args.master)
        check_seed("--seed", args.seed)
        check_budgets(args.time_budget, args.conflict_budget)
    except ValueError as exc:
        return _input_error("play", exc)

    trace_fn = None
    if args.trace:
        def trace_fn(turn: int, inferences: List[Inference]) -> None:
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

    record = play_seeded_game(args.n, args.rho, policy, args.master,
                              args.seed, boundary,
                              track_cores=not args.no_cores,
                              time_budget_s=args.time_budget,
                              conflict_budget=args.conflict_budget,
                              trace_fn=trace_fn)
    _stdout_csv().writerow(record_cells(record))
    return 0


def _cmd_kset(args: argparse.Namespace) -> int:
    boundary = Boundary(args.boundary)
    try:
        policy = Policy.parse(f"kset:{args.k}")
        if args.seeds < 1:
            raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
        check_board_shape(args.n, args.rho, boundary)
        check_seed("--master", args.master)
        check_budgets(args.time_budget)
    except ValueError as exc:
        return _input_error("kset", exc)
    writer = _stdout_csv()
    writer.writerow(GAMES_COLUMNS)
    for idx in range(args.seeds):
        writer.writerow(record_cells(play_seeded_game(
            args.n, args.rho, policy, args.master, idx, boundary,
            time_budget_s=args.time_budget)))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        check_budgets(conflict_budget=args.conflict_budget)
        formula = _read_formula(args.file)
    except (OSError, ValueError) as exc:
        return _input_error("solve", exc)
    solver = Solver(formula, conflict_budget=args.conflict_budget)
    try:
        result = solver.solve(solver.group_ids)
    except ResourceLimit as exc:
        print("UNKNOWN")
        print(f"minelab solve: {exc}", file=sys.stderr)
        return 1
    if result.sat:
        print("SAT")
        # A variable no clause mentions is absent from the model: False.
        lits = [v if result.model.get(v) else -v
                for v in range(1, formula.num_vars + 1)]
        print("v " + " ".join(str(l) for l in lits) + " 0")
    else:
        print("UNSAT")
    return 0


def _cmd_core(args: argparse.Namespace) -> int:
    try:
        formula = _read_formula(args.file)
        result = extract_gmus(Solver(formula), args.pivot)
    except NotUnsat:
        print("not unsat under the pivot", file=sys.stderr)
        return 1
    except ResourceLimit as exc:
        print(f"minelab core: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        return _input_error("core", exc)
    groups = " ".join(str(g + 1) for g in sorted(result.core))
    print(f"groups: {groups}")
    print(f"C = {result.size}")
    return 0


def _cmd_percolation(args: argparse.Namespace) -> int:
    try:
        config = PercolationConfig(
            mode=args.mode, params=parse_grid(args.param_grid), n=args.n,
            samples=args.samples, seed=args.seed,
            boundary=Boundary(args.boundary) if args.boundary else None,
            connectivity=Connectivity(args.connectivity))
        if args.svg:
            Path(args.svg).parent.mkdir(parents=True, exist_ok=True)
        records = percolation_sweep(config)
    except (OSError, ValueError) as exc:
        return _input_error("percolation", exc)
    writer = _stdout_csv()
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        config = parse_sweep_config(Path(args.config).read_text())
        if args.outdir is not None:
            config.outdir = Path(args.outdir)
        validate_config(config)
        outdir = Path(config.outdir)
        (outdir / "points").mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        return _input_error("sweep", exc)
    records = run_sweep(config)
    for kind, name in (("alpha", "alpha.svg"), ("core", "core.svg")):
        try:
            render_plots(records, kind, outdir / name)
        except EmptyInput:
            continue
    print(f"{len(records)} points -> {outdir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--time-budget", type=float, default=None,
                   help="seconds before a game ends stuck_timeout "
                        "(default: no limit)")
    p.add_argument("--conflict-budget", type=int, default=1_000_000)
    p.set_defaults(fn=_cmd_play)

    p = sub.add_parser("kset", help="batch of k-set games as CSV rows")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--seeds", type=int, required=True,
                   help="number of game indices, 0..seeds-1")
    p.add_argument("--master", type=int, default=0)
    p.add_argument("--boundary", choices=["torus", "open"], default="torus")
    p.add_argument("--time-budget", type=float, default=None,
                   help="seconds before a game ends stuck_timeout "
                        "(default: no limit)")
    p.set_defaults(fn=_cmd_kset)

    p = sub.add_parser("solve", help="solve a DIMACS or GCNF file")
    p.add_argument("file", help="path or - for stdin")
    p.add_argument("--conflict-budget", type=int, default=1_000_000)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("core", help="minimal group core of a GCNF file")
    p.add_argument("file", help="path or - for stdin")
    p.add_argument("pivot", type=int, help="assumption literal")
    p.set_defaults(fn=_cmd_core)

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
    p.set_defaults(fn=_cmd_percolation)

    p = sub.add_parser("sweep", help="grid sweep from a key=value config")
    p.add_argument("--config", required=True)
    p.add_argument("--outdir", default=None,
                   help="override the config outdir")
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
