"""Play full games by logical inference and record the α metric.

One pass builds the frontier formula once, then tests every outer variable
both ways: F ∧ x unsatisfiable means the site is safe, F ∧ ¬x unsatisfiable
means it is a mine. All inferences from a pass are applied together (flags
first, then reveals) before the frontiers are recomputed. The game ends when
every mine is flagged or a pass yields nothing.

A pass builds one solver on the whole formula and works through its
connected parts (Solver.parts) one at a time, naming a part's groups as the
active set of every query: a literal is forced by the whole formula exactly
when it is forced by the part holding its variable, since the other parts
share no variable with it, and such a query decides only the part's
variables. On each part, phase 1 decides every verdict; phase 2 then
extracts the minimal cores, in the same order. Keeping the extractions out
of phase 1 lets consecutive verdict queries on a part share all its
selector levels.

Witness reuse keeps phase 1 cheap: every model of a part seen with all its
groups active fixes a value for each of its variables, and a variable
already witnessed with value b skips the "forced to not-b" query, since that
query is satisfiable. Models found inside core extraction activate only a
subset of groups and are never used as witnesses.

Propagation keeps most of the rest out of the solver: a literal that the
part's selector levels already make false is a verdict without a query
(Solver.refuted), and with cores on its core literals are read from the
same trail (Solver.analyze_final), exactly as the query would return them.
Only the literals that neither a witness nor propagation settles are
queried.

With cores off a pass reads verdicts only, so it builds a selector-free
solver (every group takes part in every query, which gives the same
verdicts, since a part shares no variable with the others and an
inconsistent state still fails the base query of some part) and steers its
branching: each decision tries the value its variable has not yet shown in
a witness, so that every model rules out as many queries as it can
(Janota, Lynce & Marques-Silva, AI Comm. 2015). A pass infers the backbone
of each part, which no search order changes; only which witnesses are
found, and so how many queries are asked, moves. Cores on keep selectors
and the unsteered search, since the cores found depend on the solver's
history.
"""
from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from .board import (Board, COVERED, GameState, Site, flag, frontiers, reveal)
from .cnf import InfeasibleLabel, build_formula
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
            try:
                k = int(text.split(":", 1)[1])
            except ValueError:
                k = 0
            if k < 1:
                raise ValueError(
                    f"bad policy {text!r}, kset:K needs an integer K >= 1")
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

    Builds the formula and one solver once, then takes its connected parts
    in turn, each query naming the part's groups as its active set. Phase 1
    tests the part's variables in ascending order, reusing every model of
    the part's groups as a witness, and settles a literal that propagation
    under the part's selectors already refutes without a query (its core
    is read from the trail only when cores are wanted). Phase 2, when
    extract_cores is set, attaches a minimal core to each of the part's
    inferences, found from the core of its verdict query. Without
    extract_cores the solver has no selectors (propagation then settles
    what is false at level 0), and its decisions try each variable's value
    that no witness has shown yet.
    """
    formula = build_formula(state)
    if not formula.groups:
        return []
    solver = Solver(formula, conflict_budget=conflict_budget,
                    selectors=extract_cores)
    seen_true = bytearray(formula.num_vars + 1)
    seen_false = bytearray(formula.num_vars + 1)
    # With cores off, each decision tries the value its variable has not yet
    # shown in a model; cores on keep the unsteered search their cores were
    # found with, and their phases go to an array the solver never reads.
    phase = bytearray(formula.num_vars + 1) if extract_cores else solver.phase

    def witness(model):
        for v, value in model.items():
            if value:
                seen_true[v] = 1
                phase[v] = 0
            else:
                seen_false[v] = 1
                phase[v] = 1

    inferences: List[Inference] = []
    for groups, part_vars in solver.parts:
        base = solver.solve(groups)
        if not base.sat:
            raise ValueError("state is inconsistent, no inference is meaningful")
        witness(base.model)
        # Phase 1: (var, verdict, core literals of the verdict query, or
        # None for a verdict settled by propagation with cores off).
        found = []
        for v in part_vars:
            for lit, seen, verdict in ((v, seen_true, Verdict.SAFE),
                                       (-v, seen_false, Verdict.MINE)):
                if seen[v]:
                    continue
                if solver.refuted(groups, lit):
                    # Propagation (under the part's selectors) settled it.
                    found.append((v, verdict, solver.analyze_final(lit)
                                  if extract_cores else None))
                    break
                res = solver.solve(groups, [lit])
                if res.sat:
                    witness(res.model)
                    continue
                found.append((v, verdict, res.core))
                break
        # Phase 2: the cores, in the same order.
        for v, verdict, core_lits in found:
            core = None
            if extract_cores:
                pivot = v if verdict is Verdict.SAFE else -v
                core = extract_gmus(solver, pivot,
                                    initial_core=solver.core_groups(core_lits))
            inferences.append(
                Inference(formula.var_sites[v - 1], verdict, core))
    inferences.sort(key=lambda inf: inf.site)
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
    solver = Solver(formula)
    return solver.solve(solver.group_ids).sat


def play_game(board: Board, policy: Union[str, Policy] = "sat", *,
              track_cores: bool = True,
              time_budget_s: Optional[float] = None,
              conflict_budget: int = 1_000_000,
              rho: Optional[float] = None,
              seed: Optional[int] = None,
              validate: bool = True,
              trace_fn: Optional[Callable[[int, List[Inference]], None]] = None) -> GameRecord:
    """Play one game from the board's disclosed zero start.

    Loops inference passes, flagging inferred mines and revealing inferred
    safe sites, until all mines are flagged or a pass finds nothing (Stuck).
    With a time budget set (there is none by default), a pass that starts
    after it has elapsed is not run and the game records STUCK_TIMEOUT; a
    solver query that exceeds the conflict budget ends the game as
    STUCK_BUDGET.

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
