"""Workloads, timed loops, expected-result checks and metrics.

Every workload draws its inputs from a committed pool of game_seed masters
whose per-game results (alpha, turns, outcome) live in expected/. The
``--seed`` argument shuffles the pool and a run plays the whole pool in that
order, so any seed gives reproducible inputs that can be checked, and runs
with different seeds time the same games. See README.md for the workloads
and the metrics.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import minelab.board
import minelab.harness
import minelab.player

import benchtrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

SETUP_PROBES = 5
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

# ROADMAP baseline table cells a workload shares (ms/game).
BASELINE_MS = {
    (20, 0.225, "sat", True): 242.0,
    (40, 0.2, "sat", False): 474.0,
}


@dataclass(frozen=True)
class Cell:
    n: int
    rho: float
    policy: str
    cores: bool

    def key(self) -> Tuple[int, float, str, bool]:
        return (self.n, self.rho, self.policy, self.cores)

    def label(self) -> str:
        return (f"n={self.n} rho={self.rho} {self.policy}"
                + ("+cores" if self.cores else ""))


@dataclass(frozen=True)
class GameWorkload:
    """Games played one by one through player.play_game.

    Each master gives one board per distinct (n, rho) among the cells; the
    cells sharing a board play it in order.
    """
    name: str
    cells: Tuple[Cell, ...]
    pool: int        # masters with committed expected results
    traced: int      # masters played by each pass of the traced run

    @property
    def min_games(self) -> int:
        """A timed run plays at least the whole pool."""
        return self.pool * len(self.cells)


@dataclass(frozen=True)
class SweepWorkload:
    """Full harness.run_sweep calls, each followed by a resume call."""
    name: str
    ns: Tuple[int, ...]
    rhos: Tuple[float, ...]
    policies: Tuple[str, ...]
    games: int       # games per grid point
    workers: int
    pool: int
    traced: int      # sweeps in each pass of the traced run

    def games_per_sweep(self) -> int:
        return len(self.ns) * len(self.rhos) * len(self.policies) * self.games

    @property
    def min_games(self) -> int:
        """A timed run plays at least the whole pool."""
        return self.pool * self.games_per_sweep()


# A pool is about what a 20 s run plays at the commit that added the
# benchmark, so every run times the same games and seeds differ in order only.
WORKLOADS = {w.name: w for w in (
    GameWorkload("sat-cores",
                 tuple(Cell(20, r, "sat", True) for r in (0.2, 0.225, 0.25)),
                 pool=34, traced=20),
    GameWorkload("sat-nocores", (Cell(40, 0.2, "sat", False),),
                 pool=50, traced=30),
    GameWorkload("kset",
                 tuple(Cell(40, 0.225, f"kset:{k}", False) for k in (1, 2, 3)),
                 pool=60, traced=40),
    SweepWorkload("sweep", ns=(20,),
                  rhos=minelab.harness.float_range(0.05, 0.35, 0.05),
                  policies=("sat", "kset:1", "kset:3"), games=10, workers=2,
                  pool=3, traced=2),
)}


# -- shared arithmetic ---------------------------------------------------------

def tail_percentile(n_games: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND games beyond it."""
    best = None
    for p in TAIL_LADDER:
        if n_games - math.ceil(p / 100.0 * n_games) >= TAIL_BEYOND:
            best = p
    if best is None:
        raise ValueError(f"{n_games} games leave no percentile with "
                         f"{TAIL_BEYOND} games beyond it")
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def seed_order(seed: int, pool: int) -> List[int]:
    """The pool's masters in the order a run with this seed takes them."""
    return random.Random(seed).sample(range(pool), pool)


def play_until(items: Sequence, seconds: float, min_games: int, tally,
               play: Callable) -> float:
    """play(item) over items in turn (cycling) until `seconds` have passed
    and `min_games` games were attempted; returns the elapsed seconds."""
    start = time.perf_counter()
    i = 0
    while True:
        play(items[i % len(items)])
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and tally.attempted >= min_games:
            return elapsed


def alternate(items: Sequence, plain: Callable, traced: Callable,
              tracer: benchtrace.Tracer, patches, solver: bool) -> None:
    """Each item untraced and traced back to back, the traced one second
    for even items and first for odd ones, so that drift in machine speed
    and warm-up hit both sides of the tracing overhead alike."""
    for i, item in enumerate(items):
        if i % 2:
            with tracer.installed(patches, solver):
                traced(item)
        plain(item)
        if not i % 2:
            with tracer.installed(patches, solver):
                traced(item)


def peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process or, with_children, of the largest of it and
    the children it has waited for (the sweep's pool workers)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def digest(values) -> str:
    return hashlib.sha256(json.dumps(list(values)).encode()).hexdigest()[:16]


def load_expected(name: str) -> dict:
    with open(EXPECTED / f"{name}.json") as fh:
        return json.load(fh)


def timing_metrics(games_per_s: float, game_ms: List[float], pct: float,
                   setups: List[float], rss_mb: float) -> Dict[str, float]:
    game_ms = game_ms or [0.0]
    return {
        "games_per_s": games_per_s,
        "game_ms_p50": statistics.median(game_ms),
        "game_ms_tail": percentile(game_ms, pct),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }


def max_core_report(max_cores: List[int]) -> dict:
    if not max_cores:
        return {}
    return {"max_core": {"mean": statistics.fmean(max_cores),
                         "digest": digest(max_cores)}}


# -- game workloads --------------------------------------------------------------

def make_boards(w: GameWorkload, masters: Sequence[int]) -> Dict[tuple, object]:
    """One board per (master, n, rho), seeded as harness sweeps seed them."""
    boards = {}
    for m in masters:
        for c in w.cells:
            if (m, c.n, c.rho) not in boards:
                boards[(m, c.n, c.rho)] = minelab.board.generate_board(
                    c.n, c.rho, minelab.harness.game_seed(m, c.rho, 0))
    return boards


def play(board, cell: Cell, master: int):
    return minelab.player.play_game(
        board, cell.policy, track_cores=cell.cores, time_budget_s=None,
        rho=cell.rho, seed=master, validate=True)


def result_row(rec) -> list:
    return [rec.alpha, rec.turns, rec.outcome.value]


def game_schedule(w: GameWorkload, masters: Sequence[int]) -> List[Tuple[int, int]]:
    return [(m, ci) for m in masters for ci in range(len(w.cells))]


class GameTally:
    """Plays and checks games; keeps per-game times and failures."""

    def __init__(self, w: GameWorkload, expected: dict, boards: dict):
        self.w = w
        self.expected = expected["masters"]
        self.boards = boards
        self.attempted = 0
        self.failed = 0
        self.max_cores: List[int] = []
        self.times: Dict[int, List[float]] = {i: [] for i in range(len(w.cells))}

    def run(self, game: Tuple[int, int]) -> None:
        master, ci = game
        cell = self.w.cells[ci]
        board = self.boards[(master, cell.n, cell.rho)]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            rec = play(board, cell, master)
        except Exception as exc:  # a game that raises is a failed game
            self.failed += 1
            print(f"game failed: master {master} {cell.label()}: {exc!r}",
                  file=sys.stderr)
            return
        self.times[ci].append(time.perf_counter() - t0)
        if rec.max_core is not None:
            self.max_cores.append(rec.max_core)
        want = self.expected[master][ci]
        if result_row(rec) != want:
            self.failed += 1
            print(f"mismatch: master {master} {cell.label()}: got "
                  f"{result_row(rec)}, expected {want}", file=sys.stderr)

    def game_ms(self) -> List[float]:
        return [1000.0 * t for ts in self.times.values() for t in ts]

    def rate(self) -> float:
        """Games per second of play_game time."""
        ms = self.game_ms()
        return 1000.0 * len(ms) / sum(ms) if ms else 0.0

    def cells_report(self) -> List[dict]:
        return [{"cell": cell.label(), "games": len(self.times[ci]),
                 "ms_per_game": (1000.0 * statistics.fmean(self.times[ci])
                                 if self.times[ci] else None),
                 "roadmap_baseline_ms": BASELINE_MS.get(cell.key())}
                for ci, cell in enumerate(self.w.cells)]


def run_games_timed(w: GameWorkload, seed: int, seconds: float) -> dict:
    expected = load_expected(w.name)
    order = seed_order(seed, w.pool)
    tally = GameTally(w, expected, make_boards(w, order))
    elapsed = play_until(game_schedule(w, order), seconds, w.min_games,
                         tally, tally.run)
    rss_mb = peak_rss_mb(False)
    setups = probe_setup(w.name, seed)
    game_ms = tally.game_ms()
    pct = tail_percentile(w.min_games)
    return {"attempted": tally.attempted, "failed": tally.failed,
            "metrics": timing_metrics(len(game_ms) / elapsed, game_ms, pct,
                                      setups, rss_mb),
            "report": {"tail_percentile": pct, "games": len(game_ms),
                       "loop_s": elapsed, "setup_probes_s": setups,
                       "cells": tally.cells_report(),
                       **max_core_report(tally.max_cores)}}


def run_games_traced(w: GameWorkload, seed: int) -> dict:
    """Each game untraced and traced; spans and counts from the traced."""
    expected = load_expected(w.name)
    masters = seed_order(seed, w.pool)[:w.traced]
    schedule = game_schedule(w, masters)
    tracer = benchtrace.Tracer()
    plain = GameTally(w, expected, make_boards(w, masters))
    with tracer.installed(benchtrace.GAME_PATCHES, solver=True):
        traced = GameTally(w, expected, make_boards(w, masters))
    alternate(schedule, plain.run, traced.run, tracer,
              benchtrace.GAME_PATCHES, solver=True)
    metrics = benchtrace.layer_metrics(tracer, len(schedule))
    metrics.update(harness_metrics(None))
    metrics.update(overhead_metrics(plain.rate(), traced.rate()))
    return {"attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed, "metrics": metrics,
            "report": {"games_per_pass": len(schedule),
                       "spans": write_spans(tracer, w.name, seed),
                       "spans_count": len(tracer.spans)}}


# -- sweep workload ---------------------------------------------------------------

GAMES_CHECKED = ("n", "rho", "policy", "seed", "alpha", "turns", "outcome")
SUMMARY_CHECKED = ("n", "rho", "policy", "games", "alpha_mean", "alpha_se",
                   "stuck_fraction", "generation_exhausted")


def sweep_config(w: SweepWorkload, master: int, outdir: Path):
    return minelab.harness.SweepConfig(
        ns=w.ns, rhos=w.rhos, policies=w.policies, games=w.games, seed=master,
        outdir=outdir, track_cores=True, time_budget_s=None,
        record_timing=True, workers=w.workers)


def read_csv(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def checked_rows(rows: List[Dict[str, str]], columns: Sequence[str]) -> List[str]:
    return [",".join(r[c] for c in columns) for r in rows]


def sweep_pair(config) -> Tuple[float, float, bytes]:
    """A fresh run_sweep and a resume on the same outdir.

    Returns both walls and the fresh run's games.csv bytes. The outdir must
    start empty: point files are reloaded whenever their config token
    matches, and the token carries no engine fingerprint, so a reused
    outdir would silently replay stale rows instead of running the code.
    """
    outdir = Path(config.outdir)
    if not outdir.is_dir() or any(outdir.iterdir()):
        raise RuntimeError(f"sweep outdir {outdir} must be an empty directory")
    t0 = time.perf_counter()
    minelab.harness.run_sweep(config)
    t1 = time.perf_counter()
    fresh = (outdir / "games.csv").read_bytes()
    t2 = time.perf_counter()
    minelab.harness.run_sweep(config)
    t3 = time.perf_counter()
    return t1 - t0, t3 - t2, fresh


class SweepTally:
    """Runs and checks sweeps; keeps walls and per-game times."""

    def __init__(self, w: SweepWorkload, expected: dict):
        self.w = w
        self.expected = expected["masters"]
        self.attempted = 0
        self.failed = 0
        self.max_cores: List[int] = []
        self.fresh_s: List[float] = []
        self.resume_s: List[float] = []
        self.game_ms: List[float] = []
        self.cell_ms: Dict[str, List[float]] = {}

    def run(self, master: int) -> None:
        w = self.w
        self.attempted += w.games_per_sweep()
        OUT.mkdir(exist_ok=True)
        outdir = Path(tempfile.mkdtemp(prefix="sweep-", dir=OUT))
        try:
            fresh_s, resume_s, fresh_csv = sweep_pair(
                sweep_config(w, master, outdir))
            games = read_csv(outdir / "games.csv")
            summary = read_csv(outdir / "summary.csv")
            same = (outdir / "games.csv").read_bytes() == fresh_csv
        except Exception as exc:  # a sweep that raises fails all its games
            self.failed += w.games_per_sweep()
            print(f"sweep failed: master {master}: {exc!r}", file=sys.stderr)
            return
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        self.failed += self.check(master, games, summary, same)
        self.max_cores += [int(r["max_core"]) for r in games if r["max_core"]]
        self.fresh_s.append(fresh_s)
        self.resume_s.append(resume_s)
        for r in games:
            ms = float(r["wall_ms"])
            self.game_ms.append(ms)
            self.cell_ms.setdefault(
                f"n={r['n']} rho={r['rho']} {r['policy']}+cores", []).append(ms)

    def rate(self) -> float:
        """Games per second of fresh sweep plus resume."""
        wall = sum(self.fresh_s) + sum(self.resume_s)
        return self.w.games_per_sweep() * len(self.fresh_s) / wall if wall else 0.0

    def check(self, master: int, games, summary, same: bool) -> int:
        """Failed games of one sweep: mismatched rows, every game of a point
        whose summary row mismatches, all of them if the resume rewrote
        games.csv differently."""
        want = self.expected[master]
        total = self.w.games_per_sweep()
        got_games = checked_rows(games, GAMES_CHECKED)
        got_summary = checked_rows(summary, SUMMARY_CHECKED)
        if (not same or len(got_games) != len(want["games"])
                or len(got_summary) != len(want["summary"])):
            print(f"sweep master {master}: shape or resume mismatch",
                  file=sys.stderr)
            return total
        bad = {i for i, (g, e) in enumerate(zip(got_games, want["games"]))
               if g != e}
        for p, (g, e) in enumerate(zip(got_summary, want["summary"])):
            if g != e:
                bad.update(range(p * self.w.games, (p + 1) * self.w.games))
        for i in sorted(bad):
            print(f"sweep master {master} row {i}: mismatch", file=sys.stderr)
        return len(bad)

    def cells_report(self) -> List[dict]:
        return [{"cell": k, "games": len(v),
                 "ms_per_game": statistics.fmean(v),
                 "roadmap_baseline_ms": None}
                for k, v in self.cell_ms.items()]


def run_sweep_timed(w: SweepWorkload, seed: int, seconds: float) -> dict:
    expected = load_expected(w.name)
    order = seed_order(seed, w.pool)
    tally = SweepTally(w, expected)
    play_until(order, seconds, w.min_games, tally, tally.run)
    # Before the set-up probes, whose interpreters would enter the children's
    # peak.
    rss_mb = peak_rss_mb(True)
    setups = probe_setup(w.name, seed)
    pct = tail_percentile(w.min_games)
    return {"attempted": tally.attempted, "failed": tally.failed,
            "metrics": timing_metrics(tally.rate(), tally.game_ms, pct, setups,
                                      rss_mb),
            "report": {"tail_percentile": pct, "games": len(tally.game_ms),
                       "sweep_s": tally.fresh_s, "resume_s": tally.resume_s,
                       "setup_probes_s": setups,
                       "game_ms_source": "games.csv wall_ms (record_timing=True)",
                       "cells": tally.cells_report(),
                       **max_core_report(tally.max_cores)}}


def run_sweep_traced(w: SweepWorkload, seed: int) -> dict:
    """Each sweep untraced and traced; the parent's spans only."""
    expected = load_expected(w.name)
    masters = seed_order(seed, w.pool)[:w.traced]
    tracer = benchtrace.Tracer()
    plain, traced = SweepTally(w, expected), SweepTally(w, expected)
    alternate(masters, plain.run, traced.run, tracer,
              benchtrace.SWEEP_PATCHES, solver=False)
    metrics = benchtrace.layer_metrics(tracer, 0)
    metrics.update(harness_metrics(traced))
    metrics.update(overhead_metrics(plain.rate(), traced.rate()))
    return {"attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed, "metrics": metrics,
            "report": {"games_per_pass": w.games_per_sweep() * len(masters),
                       "spans": write_spans(tracer, w.name, seed)}}


# -- metrics shared by the traced runs ---------------------------------------------

def harness_metrics(tally: Optional[SweepTally]) -> Dict[str, float]:
    """Pool use and sweep I/O; zero for workloads that bypass the harness."""
    if tally is None or not tally.fresh_s:
        return {"harness.worker_busy_s": 0.0, "harness.worker_idle_frac": 0.0,
                "harness.resume_ms": 0.0}
    busy_s = sum(tally.game_ms) / 1000.0
    return {
        "harness.worker_busy_s": busy_s,
        "harness.worker_idle_frac":
            1.0 - busy_s / (tally.w.workers * sum(tally.fresh_s)),
        "harness.resume_ms": 1000.0 * sum(tally.resume_s),
    }


def overhead_metrics(untraced: float, traced: float) -> Dict[str, float]:
    return {"trace.untraced_games_per_s": untraced,
            "trace.traced_games_per_s": traced,
            "trace.overhead_games_per_s": traced - untraced}


def write_spans(tracer: benchtrace.Tracer, name: str, seed: int) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.csv.gz"
    tracer.write(path)
    return str(path.relative_to(ROOT))


# -- set-up ------------------------------------------------------------------------

def prepare(name: str, seed: int) -> None:
    """What a run does before its first timed game, beyond imports."""
    w = WORKLOADS[name]
    if isinstance(w, GameWorkload):
        make_boards(w, seed_order(seed, w.pool))


def probe_setup(name: str, seed: int) -> List[float]:
    """Seconds from spawning a fresh interpreter to the end of its set-up
    (interpreter start, import minelab, board generation), several times."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    if isinstance(w, GameWorkload):
        return run_games_traced(w, seed) if trace else run_games_timed(w, seed, seconds)
    return run_sweep_traced(w, seed) if trace else run_sweep_timed(w, seed, seconds)


def units() -> Dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def result_line(res: dict) -> str:
    unit = units()
    metrics = {k: {"value": v, "unit": unit[k]} for k, v in res["metrics"].items()}
    return json.dumps({"correct": res["failed"] == 0 and res["attempted"] > 0,
                       "attempted": res["attempted"], "failed": res["failed"],
                       "metrics": metrics})
