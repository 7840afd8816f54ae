"""Game sweeps over (n, rho, policy) grids with resumable per-point storage.

Every grid point (n, rho, policy) is played as an independent batch of
games and written to its own CSV under <outdir>/points/. Every sweep has an
outdir, created before the first game. A finished point file doubles as
its completion marker: reruns load it instead of replaying, as long as
its header names the same configuration and engine source and holds a
sha256 digest that its rows still match.
A worker pool gets the games of all missing points at once, so no worker
waits at a point boundary; point files are still written in grid order as
each point completes, so an interrupted sweep resumes from the points
already stored. The aggregate games.csv and summary.csv are rebuilt from
the point rows on every run and rows are canonically sorted, so output
bytes depend only on the configuration, never on scheduling or resume
history.

Per-game seeds are spawned from the master seed and the (rho, game index)
pair alone. Policies and board sizes share board seeds at fixed rho, which
makes per-seed comparisons across policies, and slope comparisons across
sizes, paired.

Wall-clock columns are zeroed unless record_timing is set, keeping repeated
runs byte-identical.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import multiprocessing
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (Callable, Dict, List, Optional, Sequence, TextIO, Tuple,
                    Union)

import numpy as np

from .board import (Boundary, GenerationExhausted, check_board_shape,
                    generate_board)
from .player import GameRecord, Outcome, Policy, check_budgets, play_game

GAMES_COLUMNS = ("n", "rho", "policy", "seed", "alpha", "max_core",
                 "turns", "outcome", "wall_ms")
SUMMARY_COLUMNS = ("n", "rho", "policy", "games", "alpha_mean", "alpha_se",
                   "maxcore_mean", "maxcore_se", "stuck_fraction",
                   "mean_wall_time", "generation_exhausted")

# Desk-scale preset: small lattices, a coarse density grid, enough games
# for stable means on one core.
DESK_NS = (20, 40)
DESK_GAMES = 50


def float_range(start: float, stop: float, step: float) -> Tuple[float, ...]:
    """Inclusive range built on micro-unit integers, immune to float drift."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("range bounds and step must be finite")
    si = int(round(start * 1_000_000))
    ei = int(round(stop * 1_000_000))
    di = int(round(step * 1_000_000))
    if di <= 0:
        raise ValueError("step must be positive")
    return tuple(k / 1_000_000 for k in range(si, ei + 1, di))


DESK_RHOS = float_range(0.025, 0.45, 0.025)    # the desk preset's grid


def parse_grid(text: str) -> Tuple[float, ...]:
    """Comma list of floats whose entries may be start:stop:step ranges;
    a range that holds no value raises ValueError naming it."""
    values: List[float] = []
    for part in text.split(","):
        if ":" in part:
            bounds = part.split(":")
            if len(bounds) != 3:
                raise ValueError(f"bad range {part.strip()!r}, "
                                 "expected start:stop:step")
            span = float_range(*(float(x) for x in bounds))
            if not span:
                raise ValueError(f"empty range {part.strip()!r}")
            values.extend(span)
        else:
            values.append(float(part))
    return tuple(values)


@dataclass
class SweepConfig:
    ns: Sequence[int] = DESK_NS
    rhos: Sequence[float] = DESK_RHOS
    policies: Sequence[str] = ("sat",)
    games: int = DESK_GAMES
    seed: int = 0
    boundary: Boundary = Boundary.TORUS
    outdir: Optional[Union[str, Path]] = None
    track_cores: bool = True
    time_budget_s: Optional[float] = None
    conflict_budget: int = 1_000_000
    record_timing: bool = False
    workers: int = 1


@dataclass(frozen=True)
class SweepRecord:
    """Aggregate of one (n, rho, policy) point.

    games counts games that produced a playable board; generation failures
    are excluded from every mean and reported in generation_exhausted.
    maxcore fields are None when cores were not tracked. Standard errors
    use the sample standard deviation and are 0.0 for a single game.
    """
    n: int
    rho: float
    policy: str
    games: int
    alpha_mean: float
    alpha_se: float
    maxcore_mean: Optional[float]
    maxcore_se: Optional[float]
    stuck_fraction: float
    mean_wall_time: float
    generation_exhausted: int


def rho_key(rho: float) -> int:
    """A grid value in integer micro-units; values with one key are one
    grid point."""
    return int(round(rho * 1_000_000))


def game_seed(master: int, rho: float, index: int) -> np.random.SeedSequence:
    """Board seed stream for game `index` at density rho.

    Deliberately independent of board size and policy, so the same index
    replays the same stream everywhere rho matches.
    """
    return np.random.SeedSequence(entropy=master,
                                  spawn_key=(rho_key(rho), index))


def check_seed(name: str, seed: int) -> None:
    """Raise ValueError naming a negative seed, which SeedSequence rejects."""
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed}")


def play_seeded_game(n: int, rho: float, policy: Union[str, Policy],
                     master: int, idx: int,
                     boundary: Boundary = Boundary.TORUS,
                     track_cores: bool = True,
                     time_budget_s: Optional[float] = None,
                     conflict_budget: int = 1_000_000,
                     trace_fn: Optional[Callable] = None) -> GameRecord:
    """Game idx of the master-seeded stream at (n, rho), played.

    The board comes from game_seed(master, rho, idx); when its generation
    is exhausted the record says so (alpha NaN, no turns). The record
    carries rho and idx as its rho and seed; trace_fn goes to play_game.
    The sweep's pool workers, `minelab play` and `minelab kset` all play
    their games here.
    """
    try:
        board = generate_board(n, rho, game_seed(master, rho, idx), boundary)
    except GenerationExhausted:
        return GameRecord(n=n, rho=rho, seed=idx, policy=str(policy),
                          alpha=float("nan"), max_core=None, turns=0,
                          outcome=Outcome.GENERATION_EXHAUSTED, wall_ms=0.0)
    return play_game(board, policy, track_cores=track_cores,
                     time_budget_s=time_budget_s,
                     conflict_budget=conflict_budget, rho=rho, seed=idx,
                     trace_fn=trace_fn)


# A GameRecord is the one game row: played, stored in a point file, written
# to games.csv and read back on resume.

def _fmt_float(x: Optional[float]) -> str:
    if x is None or math.isnan(x):
        return ""
    return repr(float(x))


def record_cells(rec: GameRecord) -> List[str]:
    """The games.csv cells of one record; a NaN alpha is blank."""
    return [str(rec.n), _fmt_float(rec.rho), rec.policy, str(rec.seed),
            _fmt_float(rec.alpha),
            "" if rec.max_core is None else str(rec.max_core),
            str(rec.turns), rec.outcome.value, _fmt_float(rec.wall_ms)]


def _parse_record(cells: Sequence[str]) -> GameRecord:
    """The record of one stored line, as record_cells wrote it: a blank
    alpha reads as NaN (an exhausted board), a blank max_core as None."""
    n, rho, policy, seed, alpha, core, turns, outcome, wall_ms = cells
    return GameRecord(n=int(n), rho=float(rho), seed=int(seed), policy=policy,
                      alpha=float(alpha) if alpha else float("nan"),
                      max_core=int(core) if core else None, turns=int(turns),
                      outcome=Outcome(outcome), wall_ms=float(wall_ms))


def _write_records(fh: TextIO, records: Sequence[GameRecord]) -> None:
    writer = csv.writer(fh)
    writer.writerow(GAMES_COLUMNS)
    writer.writerows(map(record_cells, records))


def _engine_id() -> str:
    """A truncated sha256 over the bytes of minelab's modules, taken in name
    order: point files written by other code do not match it."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _config_token(config: SweepConfig, engine: str) -> str:
    return ("master={} games={} boundary={} cores={} budget={} conflicts={} "
            "timing={} engine={}").format(config.seed, config.games,
                                          config.boundary.value,
                                          int(config.track_cores),
                                          config.time_budget_s,
                                          config.conflict_budget,
                                          int(config.record_timing), engine)


def _point_path(outdir: Path, n: int, rho: float, policy: str) -> Path:
    safe_policy = policy.replace(":", "-")
    return outdir / "points" / f"point_n{n}_r{rho_key(rho)}_{safe_policy}.csv"


def _header(token: str, body: bytes) -> bytes:
    """A point file's first line, without its newline: the sha256 of the
    body, then the token."""
    return f"# sha256={hashlib.sha256(body).hexdigest()} {token}".encode()


def _load_point(path: Path, token: str, n: int, rho: float, policy: str,
                games: int) -> Optional[List[GameRecord]]:
    """The stored records of point (n, rho, policy), or None when the file
    is missing or stale: its header holds another token (another config or
    engine) or another digest than its body's, as any byte changed since
    _store_point wrote it gives, or its rows are not this point's seeds
    0..games-1, as in a file copied from another point's path. A body that
    matches its digest is what _write_records wrote, so its rows parse."""
    if not path.exists():
        return None
    head, _, body = path.read_bytes().partition(b"\n")
    if head != _header(token, body):
        return None
    rows = body.decode().splitlines()[1:]      # past the column row
    records = [_parse_record(cells) for cells in csv.reader(rows)]
    if ([(r.n, r.rho, r.policy, r.seed) for r in records]
            != [(n, rho, policy, idx) for idx in range(games)]):
        return None
    return records


def _store_point(path: Path, token: str, records: List[GameRecord]) -> None:
    buf = io.StringIO()
    _write_records(buf, records)
    body = buf.getvalue().encode()
    tmp = path.with_suffix(".tmp")
    tmp.write_bytes(_header(token, body) + b"\n" + body)
    os.replace(tmp, path)


_STUCK_OUTCOMES = frozenset((Outcome.STUCK, Outcome.STUCK_TIMEOUT,
                             Outcome.STUCK_BUDGET))


def mean_se(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and standard error of a nonempty sample; the error is 0.0 for
    a single value."""
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return mean, se


def _aggregate(n: int, rho: float, policy: str,
               records: List[GameRecord]) -> SweepRecord:
    done = [r for r in records
            if r.outcome is not Outcome.GENERATION_EXHAUSTED]
    exhausted = len(records) - len(done)
    if not done:
        return SweepRecord(n=n, rho=rho, policy=policy, games=0,
                           alpha_mean=float("nan"), alpha_se=float("nan"),
                           maxcore_mean=None, maxcore_se=None,
                           stuck_fraction=float("nan"),
                           mean_wall_time=float("nan"),
                           generation_exhausted=exhausted)
    alpha_mean, alpha_se = mean_se([r.alpha for r in done])
    cores = [r.max_core for r in done if r.max_core is not None]
    if cores:
        maxcore_mean, maxcore_se = mean_se([float(c) for c in cores])
    else:
        maxcore_mean = maxcore_se = None
    stuck = sum(1 for r in done if r.outcome in _STUCK_OUTCOMES)
    wall_mean = float(np.mean([r.wall_ms for r in done]))
    return SweepRecord(n=n, rho=rho, policy=policy, games=len(done),
                       alpha_mean=alpha_mean, alpha_se=alpha_se,
                       maxcore_mean=maxcore_mean, maxcore_se=maxcore_se,
                       stuck_fraction=stuck / len(done),
                       mean_wall_time=wall_mean,
                       generation_exhausted=exhausted)


def validate_config(config: SweepConfig) -> None:
    """Raise ValueError for a config that run_sweep cannot play."""
    if not config.ns or any(n < 1 for n in config.ns):
        raise ValueError("ns must be a nonempty list of positive sizes")
    if not config.rhos or any(not 0.0 <= r < 1.0 for r in config.rhos):
        raise ValueError("rhos must be a nonempty list of densities in [0, 1)")
    for n in config.ns:
        for rho in config.rhos:
            check_board_shape(n, rho, config.boundary)
    if config.games < 1:
        raise ValueError("games must be at least 1")
    check_seed("seed", config.seed)
    if config.workers < 1:
        raise ValueError("workers must be at least 1")
    if not config.policies:
        raise ValueError("policies must be nonempty")
    reject_repeats("n", config.ns, int)
    reject_repeats("rho", config.rhos, rho_key)
    reject_repeats("policies", config.policies, Policy.parse)
    check_budgets(config.time_budget_s, config.conflict_budget)
    if config.outdir is None:
        raise ValueError("outdir must be set")


def reject_repeats(name: str, values: Sequence, key: Callable) -> None:
    """Raise ValueError when two values name the same grid point: the same
    point file, the same seeds and the same summary row."""
    seen: Dict[object, object] = {}
    for v in values:
        kv = key(v)
        if kv in seen:
            raise ValueError(f"{name} lists {seen[kv]!r} and {v!r}, "
                             "which name the same grid point")
        seen[kv] = v


def run_sweep(config: SweepConfig) -> List[SweepRecord]:
    """Play (or reload) every grid point and return canonical aggregates.

    Writes <outdir>/games.csv and <outdir>/summary.csv and keeps per-point
    files under <outdir>/points/ for resumption; the directories are made
    before the first game. A point file's header comment carries the rows'
    digest, the configuration and a hash of the engine's source; a stale,
    changed or misplaced point file forces a replay of that point.

    With workers > 1, the games of every missing point are queued on one
    pool before the first result is read, so no worker waits at a point
    boundary. Results are read back in grid order and each point's file is
    written as soon as the point completes, so an interrupted sweep resumes
    from the points already stored. The pool has at most one worker per
    game still to play; with one game left the sweep plays it in-process.
    A game that raises, or an interrupt, terminates the pool at once.
    """
    validate_config(config)
    token = _config_token(config, _engine_id())
    outdir = Path(config.outdir)
    (outdir / "points").mkdir(parents=True, exist_ok=True)
    points = [(n, rho, str(Policy.parse(p)))
              for n in config.ns for rho in config.rhos
              for p in config.policies]
    paths = [_point_path(outdir, *point) for point in points]
    stored = [_load_point(path, token, *point, config.games)
              for point, path in zip(points, paths)]
    missing = [i for i, recs in enumerate(stored) if recs is None]

    def tasks(i: int) -> List[tuple]:
        n, rho, policy = points[i]
        return [(n, rho, policy, config.seed, idx, config.boundary,
                 config.track_cores, config.time_budget_s,
                 config.conflict_budget)
                for idx in range(config.games)]

    pool = None
    processes = min(config.workers, len(missing) * config.games)
    games: List[GameRecord] = []
    records: List[SweepRecord] = []
    try:
        if processes > 1:
            pool = multiprocessing.get_context("fork").Pool(processes)
            queued = {i: pool.starmap_async(play_seeded_game, tasks(i),
                                            chunksize=1)
                      for i in missing}
        for i, (n, rho, policy) in enumerate(points):
            recs = stored[i]
            if recs is None:
                recs = (queued[i].get() if pool is not None
                        else [play_seeded_game(*t) for t in tasks(i)])
                if not config.record_timing:
                    recs = [replace(r, wall_ms=0.0) for r in recs]
                _store_point(paths[i], token, recs)
            games.extend(recs)
            records.append(_aggregate(n, rho, policy, recs))
    except BaseException:
        if pool is not None:
            pool.terminate()
        raise
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    games.sort(key=lambda r: (r.n, r.rho, r.policy, r.seed))
    records.sort(key=lambda r: (r.n, r.rho, r.policy))
    write_games_csv(outdir / "games.csv", games)
    write_summary_csv(outdir / "summary.csv", records)
    return records


def write_games_csv(path: Union[str, Path],
                    records: Sequence[GameRecord]) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        _write_records(fh, records)
    return path


def write_summary_csv(path: Union[str, Path],
                      records: List[SweepRecord]) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for r in records:
            writer.writerow([
                str(r.n), _fmt_float(r.rho), r.policy, str(r.games),
                _fmt_float(r.alpha_mean), _fmt_float(r.alpha_se),
                _fmt_float(r.maxcore_mean), _fmt_float(r.maxcore_se),
                _fmt_float(r.stuck_fraction), _fmt_float(r.mean_wall_time),
                str(r.generation_exhausted)])
    return path


def parse_sweep_config(text: str) -> SweepConfig:
    """key=value configuration, one per line, # comments allowed.

    Keys: n, rho, policies, games, seed, boundary, outdir, track_cores,
    time_budget_s, conflict_budget, record_timing, workers. Lists are
    comma-separated; rho entries may be start:stop:step ranges. Keys left
    out keep their SweepConfig defaults; a key given twice is an error.
    """
    config = SweepConfig()
    set_on = {}                         # key -> the line that set it
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in set_on:
            raise ValueError(f"line {ln}: {key} is already set on line "
                             f"{set_on[key]}")
        set_on[key] = ln
        try:
            if key == "n":
                config.ns = tuple(int(v) for v in value.split(","))
            elif key == "rho":
                config.rhos = parse_grid(value)
            elif key == "policies":
                config.policies = tuple(v.strip() for v in value.split(","))
            elif key == "games":
                config.games = int(value)
            elif key == "seed":
                config.seed = int(value)
            elif key == "boundary":
                config.boundary = Boundary(value)
            elif key == "outdir":
                config.outdir = Path(value)
            elif key == "track_cores":
                config.track_cores = _parse_bool(value)
            elif key == "time_budget_s":
                config.time_budget_s = None if value == "none" else float(value)
            elif key == "conflict_budget":
                config.conflict_budget = int(value)
            elif key == "record_timing":
                config.record_timing = _parse_bool(value)
            elif key == "workers":
                config.workers = int(value)
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
    return config


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")
