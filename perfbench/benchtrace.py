"""Span tracing for the benchmark's traced run.

Wrappers replace the public functions of each minelab layer in the module
that looks them up (for example ``minelab.player.build_formula``, not
``minelab.cnf.build_formula``), plus ``Solver.solve`` and
``Solver.__init__`` on the class. Each call records one span (name, parent
span, start, end) in memory; counts that only the arguments or results
show (formula sizes, core sizes, k-set evaluations) are recorded by the same
wrapper. Nothing is patched outside ``Tracer.installed()``, and leaving it
restores every original object.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import minelab.board
import minelab.cnf
import minelab.harness
import minelab.kset
import minelab.player
import minelab.sat

Span = List  # [name, parent index or -1, start ns, end ns]

# (module, attribute, span name) for every plain-function patch. A function
# is patched in each module that looks it up; the benchmark itself calls
# generate_board and play_game through their defining modules.
GAME_PATCHES: Tuple[Tuple[object, str, str], ...] = (
    (minelab.board, "generate_board", "board.generate_board"),
    (minelab.player, "reveal", "board.reveal"),
    (minelab.player, "frontiers", "board.frontiers"),
    (minelab.cnf, "frontiers", "board.frontiers"),
    (minelab.kset, "frontiers", "board.frontiers"),
    (minelab.player, "build_formula", "cnf.build_formula"),
    (minelab.player, "extract_gmus", "gmus.extract_gmus"),
    (minelab.player, "build_constraints", "kset.build_constraints"),
    (minelab.player, "kset_infer", "kset.kset_infer"),
    (minelab.player, "infer_step", "player.infer_step"),
    (minelab.player, "play_game", "player.play_game"),
)
# Sweep games run in forked pool workers whose memory the benchmark never
# sees, so the sweep traces only what the parent process runs.
SWEEP_PATCHES: Tuple[Tuple[object, str, str], ...] = (
    (minelab.harness, "write_games_csv", "harness.write_games_csv"),
    (minelab.harness, "write_summary_csv", "harness.write_summary_csv"),
)
SOLVER_METHODS = ("__init__", "solve")


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.core_sizes: List[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        popped = self.stack.pop()
        assert popped == idx, "spans must close in LIFO order"

    def parent_name(self) -> Optional[str]:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """fn recording one span per call; after(args, kwargs, result) runs
        inside the span once fn returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                tracer.close(idx)
        return traced

    # -- per-layer hooks ---------------------------------------------------

    def _after_build_formula(self, args, kwargs, formula) -> None:
        self.counts["cnf.vars"] += formula.num_vars
        self.counts["cnf.groups"] += len(formula.groups)
        self.counts["cnf.clauses"] += formula.num_clauses()

    def _after_extract_gmus(self, args, kwargs, result) -> None:
        self.core_sizes.append(result.size)

    def _after_infer_step(self, args, kwargs, inferences) -> None:
        self.counts["player.passes"] += 1
        self.counts["player.inferences"] += len(inferences)

    def _after_kset_infer(self, args, kwargs, forced) -> None:
        self.counts["kset.evaluated"] += kwargs["stats"]["evaluated"]
        self.counts["kset.forced"] += len(forced)
        self.counts["player.passes"] += 1
        self.counts["player.inferences"] += len(forced)

    def _wrap_kset_infer(self, fn: Callable) -> Callable:
        inner = self.wrap("kset.kset_infer", fn, self._after_kset_infer)

        @functools.wraps(fn)
        def with_stats(*args, **kwargs):
            if kwargs.get("stats") is None:
                kwargs["stats"] = {}
            return inner(*args, **kwargs)
        return with_stats

    def _wrap_solve(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def solve(solver, active_groups=None, assumptions=()):
            kind = ("gmus" if tracer.parent_name() == "gmus.extract_gmus"
                    else "infer")
            idx = tracer.open("sat.solve." + kind)
            try:
                res = fn(solver, active_groups, assumptions)
            except minelab.sat.ResourceLimit:
                tracer.counts["sat.resource_limit"] += 1
                raise
            finally:
                tracer.close(idx)
            if not res.sat:
                tracer.counts[f"sat.solve.{kind}.unsat"] += 1
            if kind == "infer" and assumptions:
                tracer.counts["sat.infer_queries"] += 1
            return res
        return solve

    def _patched(self, patches) -> List[Tuple[object, str, Callable]]:
        hooks = {"cnf.build_formula": self._after_build_formula,
                 "gmus.extract_gmus": self._after_extract_gmus,
                 "player.infer_step": self._after_infer_step}
        out = []
        for module, attr, name in patches:
            orig = getattr(module, attr)
            if name == "kset.kset_infer":
                new = self._wrap_kset_infer(orig)
            else:
                new = self.wrap(name, orig, hooks.get(name))
            out.append((module, attr, new))
        return out

    @contextlib.contextmanager
    def installed(self, patches: Sequence[Tuple[object, str, str]],
                  solver: bool):
        """Patch the given functions (and the Solver methods when solver
        is set) for the duration of the block. A name a module no longer
        looks up raises AttributeError, so that a layer the benchmark has
        lost sight of fails the run instead of reading 0."""
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _ in patches]
        replacements = self._patched(patches)
        if solver:
            cls = minelab.sat.Solver
            saved += [(cls, m, cls.__dict__[m]) for m in SOLVER_METHODS]
            replacements += [
                (cls, "__init__", self.wrap("sat.Solver_init", cls.__init__)),
                (cls, "solve", self._wrap_solve(cls.solve))]
        try:
            for target, attr, new in replacements:
                setattr(target, attr, new)
            yield self
        finally:
            for target, attr, orig in saved:
                setattr(target, attr, orig)

    def write(self, path) -> None:
        """Spans as gzipped CSV: index, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0},{t1}\n")


def self_times(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the part its direct children cover."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for i, (name, parent, t0, t1) in enumerate(spans):
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(i, ())):
            c0 = max(c0, end)
            c1 = min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append(t1 - t0 - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, games: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass over `games` games.

    ``X.calls`` counts spans, ``X.ms`` sums their durations and ``X.self_ms``
    their self times. Ratios whose base is zero read 0.
    """
    calls: Counter = Counter()
    total_ns: Counter = Counter()
    self_ns: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] += 1
        total_ns[span[0]] += span[3] - span[2]
        self_ns[span[0]] += own
    c = tracer.counts
    m: Dict[str, float] = {}

    def span_metrics(name: str, *fields: str) -> None:
        for f in fields:
            if f == "calls":
                m[f"{name}.calls"] = calls[name]
            elif f == "ms":
                m[f"{name}.ms"] = total_ns[name] / 1e6
            else:
                m[f"{name}.self_ms"] = self_ns[name] / 1e6

    span_metrics("gmus.extract_gmus", "calls", "ms", "self_ms")
    cores = tracer.core_sizes
    m["gmus.solves_per_core"] = _ratio(calls["sat.solve.gmus"], len(cores))
    m["gmus.singleton_frac"] = _ratio(sum(1 for s in cores if s == 1),
                                      len(cores))
    m["gmus.core_size_mean"] = _ratio(sum(cores), len(cores))
    m["gmus.core_size_max"] = max(cores, default=0)
    for kind in ("infer", "gmus"):
        name = f"sat.solve.{kind}"
        span_metrics(name, "calls", "ms")
        m[f"{name}.unsat_frac"] = _ratio(c[f"{name}.unsat"], calls[name])
    span_metrics("sat.Solver_init", "calls", "ms")
    m["sat.witness_skip_frac"] = (
        1.0 - _ratio(c["sat.infer_queries"], 2 * c["cnf.vars"])
        if c["cnf.vars"] else 0.0)
    m["sat.resource_limit"] = c["sat.resource_limit"]
    span_metrics("cnf.build_formula", "calls", "ms")
    for part in ("vars", "groups", "clauses"):
        m[f"cnf.{part}_per_pass"] = _ratio(c[f"cnf.{part}"],
                                           calls["cnf.build_formula"])
    span_metrics("board.frontiers", "calls", "ms")
    span_metrics("kset.build_constraints", "calls", "ms")
    span_metrics("kset.kset_infer", "calls", "ms")
    m["kset.evaluated"] = c["kset.evaluated"]
    m["kset.forced_per_evaluated"] = _ratio(c["kset.forced"],
                                            c["kset.evaluated"])
    span_metrics("board.generate_board", "calls", "ms")
    span_metrics("board.reveal", "calls", "ms")
    span_metrics("player.infer_step", "calls", "self_ms")
    span_metrics("player.play_game", "self_ms")
    m["player.passes_per_game"] = _ratio(c["player.passes"], games)
    m["player.inferences_per_pass"] = _ratio(c["player.inferences"],
                                             c["player.passes"])
    span_metrics("harness.write_games_csv", "ms")
    span_metrics("harness.write_summary_csv", "ms")
    return m
