"""Play full games by logical inference and record the α metric.

One pass builds the frontier formula once, then tests every outer variable
both ways: F ∧ x unsatisfiable means the site is safe, F ∧ ¬x unsatisfiable
means it is a mine. All inferences from a pass are applied together (flags
first, then reveals) before the frontiers are recomputed. The game ends when
every mine is flagged or a pass yields nothing.

A pass runs in two phases on the formula's connected parts
(cnf.split_components), one solver each: a literal is forced by the whole
formula exactly when it is forced by the part holding its variable, since
the other parts share no variable with it. Phase 1 decides every verdict;
phase 2 then extracts the minimal cores, in the same order. Keeping the
extractions out of phase 1 lets consecutive verdict queries on a part share
all its selector levels, and a query on a part decides only that part's
variables.

Witness reuse keeps phase 1 cheap: every model of a part seen with all its
groups active fixes a value for each of its variables, and a variable
already witnessed with value b skips the "forced to not-b" query, since that
query is satisfiable. Models found inside core extraction activate only a
subset of groups and are never used as witnesses.
"""
from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Union

from .board import (Board, COVERED, GameState, Site, flag, frontiers, reveal)
from .cnf import InfeasibleLabel, build_formula, split_components
from .gmus import GmusResult, extract_gmus, max_core_size
from .kset import build_constraints, kset_infer
from .sat import ResourceLimit, Solver


class Verdict(enum.Enum):
    SAFE = "safe"
    MINE = "mine"


class Outcome(enum.Enum):
    ALL_MINES_FLAGGED = "all_mines_flagged"
    STUCK = "stuck"                     # a full pass forced nothing
    STUCK_TIMEOUT = "stuck_timeout"     # the time budget ran out
    STUCK_BUDGET = "stuck_budget"       # a query exceeded the conflict budget
    GENERATION_EXHAUSTED = "generation_exhausted"


@dataclass(frozen=True)
class Inference:
    site: Site
    verdict: Verdict
    core: Optional[GmusResult] = None


@dataclass(frozen=True)
class Policy:
    """Inference policy: full SAT tests or bounded k-set search."""
    kind: str               # "sat" or "kset"
    k: int = 0

    @staticmethod
    def parse(text: Union[str, "Policy"]) -> "Policy":
        if isinstance(text, Policy):
            return text
        if text == "sat":
            return Policy("sat")
        if text.startswith("kset:"):
            k = int(text.split(":", 1)[1])
            if k < 1:
                raise ValueError("kset arity must be >= 1")
            return Policy("kset", k)
        raise ValueError(f"unknown policy {text!r}, expected sat or kset:K")

    def __str__(self) -> str:
        return "sat" if self.kind == "sat" else f"kset:{self.k}"


@dataclass(frozen=True)
class GameRecord:
    """Outcome of one played game.

    alpha is the fraction of mines flagged (1 when there are no mines);
    max_core is the largest GMUS size met by the SAT policy, None when cores
    were not tracked or the policy was k-set; turns counts inference passes
    that applied at least one move.
    """
    n: int
    rho: float
    seed: Optional[int]
    policy: str
    alpha: float
    max_core: Optional[int]
    turns: int
    outcome: Outcome
    wall_ms: float


def infer_step(state: GameState, *, extract_cores: bool = True,
               conflict_budget: int = 1_000_000) -> List[Inference]:
    """All forced verdicts for the current frontiers, row-major order.

    Builds the formula once and splits it into its connected parts, with
    one solver (and its learned clauses) per part. Phase 1 tests the
    variables in row-major order, each on its own part's solver, reusing
    every all-groups model of a part as a witness. Phase 2, when
    extract_cores is set, attaches a minimal core to each inference, found
    on its part's solver from the core of its verdict query. Core group ids
    and pivots are those of the whole formula.
    """
    fr = frontiers(state)
    if not fr.inner:
        return []
    formula = build_formula(state)
    parts = split_components(formula)
    solvers = [Solver(part, conflict_budget=conflict_budget)
               for part in parts]
    nv = formula.num_vars
    seen_true = bytearray(nv + 1)
    seen_false = bytearray(nv + 1)
    home = [(0, 0)] * (nv + 1)     # global var -> (part index, local var)

    def witness(part, model):
        for u, v in enumerate(part.global_vars, start=1):
            if model[u]:
                seen_true[v] = 1
            else:
                seen_false[v] = 1

    for k, (part, solver) in enumerate(zip(parts, solvers)):
        base = solver.solve()
        if not base.sat:
            raise ValueError("state is inconsistent, no inference is meaningful")
        witness(part, base.model)
        for u, v in enumerate(part.global_vars, start=1):
            home[v] = (k, u)
    # Phase 1: (global var, verdict, core literals of the verdict query).
    found = []
    for v in range(1, nv + 1):
        k, u = home[v]
        solver = solvers[k]
        for lit, seen, verdict in ((u, seen_true, Verdict.SAFE),
                                   (-u, seen_false, Verdict.MINE)):
            if seen[v]:
                continue
            res = solver.solve(None, [lit])
            if res.sat:
                witness(parts[k], res.model)
                continue
            found.append((v, verdict, res.core))
            break
    # Phase 2: the cores, in the same order.
    inferences: List[Inference] = []
    for v, verdict, core_lits in found:
        core = None
        if extract_cores:
            k, u = home[v]
            sign = 1 if verdict is Verdict.SAFE else -1
            core = replace(
                extract_gmus(parts[k], sign * u, solver=solvers[k],
                             initial_core=solvers[k].core_groups(core_lits)),
                pivot=sign * v)
        inferences.append(Inference(formula.var_sites[v - 1], verdict, core))
    return inferences


def consistency_check(state: GameState) -> bool:
    """Does any mine placement realize every effective label."""
    fr = frontiers(state)
    if not fr.inner:
        return True
    try:
        formula = build_formula(state)
    except InfeasibleLabel:
        return False
    return Solver(formula).solve().sat


def play_game(board: Board, policy: Union[str, Policy] = "sat", *,
              track_cores: bool = True,
              time_budget_s: Optional[float] = 60.0,
              conflict_budget: int = 1_000_000,
              rho: Optional[float] = None,
              seed: Optional[int] = None,
              validate: bool = True,
              trace_fn: Optional[Callable[[int, List[Inference]], None]] = None) -> GameRecord:
    """Play one game from the board's disclosed zero start.

    Loops inference passes, flagging inferred mines and revealing inferred
    safe sites, until all mines are flagged or a pass finds nothing (Stuck).
    A pass that starts after the time budget has elapsed is not run and the
    game records STUCK_TIMEOUT; a solver query that exceeds the conflict
    budget ends the game as STUCK_BUDGET.

    rho and seed are metadata echoed into the record; rho defaults to the
    board's realized mine fraction. trace_fn, when given, is called after
    every inference pass (including the final empty one) with the pass
    number and its inferences.
    """
    policy = Policy.parse(policy)
    if board.start is None:
        raise ValueError("board has no disclosed zero start")
    t0 = time.perf_counter()
    state = GameState(board)
    out = reveal(state, board.start)
    assert not out.boom, "the disclosed start is guaranteed empty"
    n_mines = len(board.mines)
    mines = board.mines
    rho_val = rho if rho is not None else n_mines / (board.n * board.n)
    flags = 0
    turns = 0
    cores: List[GmusResult] = []
    outcome = Outcome.STUCK
    while True:
        if flags == n_mines:
            outcome = Outcome.ALL_MINES_FLAGGED
            break
        if time_budget_s is not None and time.perf_counter() - t0 > time_budget_s:
            outcome = Outcome.STUCK_TIMEOUT
            break
        try:
            if policy.kind == "sat":
                inferences = infer_step(state, extract_cores=track_cores,
                                        conflict_budget=conflict_budget)
            else:
                fr = build_constraints(state)
                inferences = [
                    Inference(fr.outer[fa.col],
                              Verdict.MINE if fa.value else Verdict.SAFE)
                    for fa in kset_infer(fr, policy.k)]
        except ResourceLimit:
            outcome = Outcome.STUCK_BUDGET
            break
        if trace_fn is not None:
            trace_fn(turns + 1, inferences)
        if not inferences:
            break
        for inf in inferences:
            if inf.verdict is Verdict.MINE:
                if validate:
                    assert inf.site in mines, f"unsound mine verdict at {inf.site}"
                flag(state, inf.site)
                flags += 1
                if inf.core is not None:
                    cores.append(inf.core)
            elif validate:
                assert inf.site not in mines, f"unsound safe verdict at {inf.site}"
        for inf in inferences:
            if inf.verdict is Verdict.SAFE:
                if int(state.status[inf.site]) == COVERED:
                    res = reveal(state, inf.site)
                    assert not res.boom
                if inf.core is not None:
                    cores.append(inf.core)
        turns += 1
    wall_ms = (time.perf_counter() - t0) * 1000.0
    alpha = 1.0 if n_mines == 0 else flags / n_mines
    max_core: Optional[int] = None
    if policy.kind == "sat" and track_cores:
        max_core = max_core_size(cores)
    return GameRecord(n=board.n, rho=rho_val, seed=seed, policy=str(policy),
                      alpha=alpha, max_core=max_core, turns=turns,
                      outcome=outcome, wall_ms=wall_ms)
