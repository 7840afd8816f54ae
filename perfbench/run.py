"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload sat-cores --seed 1 --seconds 20 --trace 0

Prints a human-readable report, then one JSON line with the metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the same
games are replayed untraced and traced, and the metrics are per layer.
Details go to .perfbench_out/ (a report per run, spans of traced runs).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import minelab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import minelab
    if Path(minelab.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"minelab imported from {minelab.__file__}, "
                          f"not from {SRC}")
    return minelab


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import benchcore
    if args.workload not in benchcore.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(benchcore.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        benchcore.prepare(args.workload, args.seed)
        print(repr(time.monotonic()))
        return 0
    res = benchcore.run(args.workload, args.seed, args.seconds, bool(args.trace))
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": res["metrics"], **res["report"]}
    benchcore.OUT.mkdir(exist_ok=True)
    path = (benchcore.OUT
            / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.write_text(json.dumps(report, indent=1) + "\n")
    for cell in res["report"].get("cells", ()):
        base = cell["roadmap_baseline_ms"]
        ms = cell["ms_per_game"]
        print(f"cell {cell['cell']}: {cell['games']} games, "
              + (f"{ms:.1f} ms/game" if ms is not None else "no games")
              + (f" (ROADMAP baseline {base:.0f} ms)" if base else ""))
    if "tail_percentile" in res["report"]:
        print(f"game_ms_tail is p{res['report']['tail_percentile']:g}")
    for k, v in sorted(res["metrics"].items()):
        print(f"{k} = {v:.6g}")
    print(f"report: {path.relative_to(ROOT)}")
    print(benchcore.result_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
