"""Play full games by logical inference and record the α metric.

One pass decides every outer variable of the frontier formula F both
ways: F ∧ x unsatisfiable means the site is safe, F ∧ ¬x unsatisfiable
means it is a mine. All inferences from a pass are applied together (flags
first, then every safe site in one reveal move) before the frontiers are
recomputed. The game ends when every mine is flagged or a pass yields
nothing.

A pass is one pipeline, with cores on or off (infer_step):

 1. the frontier system (board.frontiers), its labels checked once;
 2. with cores off only, counting propagation: a row whose residual label
    is 0 forces its undecided sites safe, and one whose residual label
    equals its undecided count forces them mined, to a fixpoint. That is
    unit propagation on the binomial encoding, so it settles exactly what
    the formula's level-0 propagation would (Janota, Lynce & Marques-Silva,
    AI Comm. 2015), and on played boards it settles most verdicts;
 3. the undecided rows, split into parts joined through their undecided
    sites. A literal is forced by the whole formula exactly when it is
    forced by the part holding its variable, since the other parts share
    no variable with it;
 4. the parts that yielded nothing on the last pass, dropped;
 5. the other parts' rows, encoded by cnf.build_formula over their
    undecided sites (renumbered in row-major order) for one solver;
 6. per part, phase 1 decides every verdict with queries that name the
    part's groups as the active set; with cores on, phase 2 then extracts
    the minimal cores, in the same order, before the next part. Keeping
    the extractions out of phase 1 lets consecutive verdict queries on a
    part share all its selector levels.

Witness reuse keeps phase 1 cheap: every model of a part seen with all its
groups active fixes a value for each of its variables, and a variable
already witnessed with value b skips the "forced to not-b" query, since that
query is satisfiable. Models found inside core extraction activate only a
subset of groups and are never used as witnesses. Every other literal is
asked of the solver, and with cores on that query's core starts the
extraction.

With cores off the solver is selector-free (every group takes part in
every query, which gives the same verdicts, since a part shares no
variable with the others and an inconsistent state still fails the base
query of some part), and its branching is steered: each decision tries
the value its variable has not yet shown in a witness, so that every model
rules out as many queries as it can. No search order changes a backbone;
only which witnesses are found, and so how many queries are asked, moves.
With cores on the solver keeps its selectors and the unsteered search,
since the cores found depend on the solver's history.

A part's constraints, and so its backbone, are fixed by its signature: the
set of its rows' (inner site, residual label, undecided sites). play_game
keeps the signatures of the parts that yielded nothing on the last pass,
and a pass neither encodes nor queries a part it meets again. On large
boards most parts are untouched between passes. Dropping a quiet part
changes no core of the others either: it has no inference and so no core;
parts share no variable and their selector lists no prefix, so each
part's queries start at level 0; a part's learned clauses mention only its
own variables and selectors; and the renumbering keeps every part's
branching and selector order. Only the count of learned clauses that
triggers a drop (sat.MAX_LEARNTS) couples the parts.
"""
from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import (Callable, FrozenSet, List, Optional, Set, Tuple,
                    Union)

from .board import (Board, Frontiers, GameState, Site, flag,
                    frontiers, reveal)
from .cnf import InfeasibleLabel, Row, build_formula
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
               conflict_budget: int = 1_000_000,
               quiet: Optional[Set[FrozenSet]] = None) -> List[Inference]:
    """All forced verdicts for the current frontiers, row-major order.

    One pipeline serves both modes. The labels are checked first. Without
    extract_cores, counting propagation on the frontier system then settles
    every site that unit propagation on the formula would force, and these
    become inferences without a solver. The rows left undecided (all rows
    with cores on) are split into parts, rows joined through their
    undecided columns. quiet, when given, holds the signatures of the parts
    that yielded nothing on the last pass: such a part is neither encoded
    nor queried, and on return the set holds the signatures of this pass's
    parts that yielded nothing. The other parts' rows are encoded by
    build_formula for one solver (with selectors when cores are extracted,
    selector-free and steered otherwise), and each part's verdicts come
    from queries that name its groups as the active set: phase 1 tests its
    variables in ascending order, reusing every model of its groups as a
    witness. With extract_cores, phase 2 then attaches a minimal core to
    each of the part's inferences, found from the core of its verdict
    query, before the next part is decided.

    An effective label outside [0, support size] raises InfeasibleLabel;
    any other inconsistency raises ValueError.
    """
    fr = frontiers(state)
    value, parts = _settle(fr, propagate=not extract_cores)
    inner, outer = fr.inner, fr.outer
    inferences = [Inference(outer[j], Verdict.MINE if b else Verdict.SAFE)
                  for j, b in enumerate(value) if b >= 0]
    # A part's signature fixes its constraints, and so its backbone.
    last_quiet = quiet if quiet is not None else ()
    now_quiet = set()
    live = []
    for part in parts:
        sig = frozenset((inner[i], e, *[outer[j] for j in cols])
                        for i, e, cols in part)
        if sig in last_quiet:
            now_quiet.add(sig)
        else:
            live.append((part, sig))
    if live:
        formula = build_formula(fr, (row for part, _ in live for row in part))
        solver = Solver(formula, conflict_budget=conflict_budget,
                        selectors=extract_cores)
        part_groups = [[i for i, _, _ in part] for part, _ in live]
        # Phase 2, between the parts' phase 1: the cores, in verdict order.
        for (_, sig), found in zip(live, _part_verdicts(solver, part_groups)):
            if not found:
                now_quiet.add(sig)
            for v, verdict, core_lits in found:
                core = None
                if extract_cores:
                    pivot = v if verdict is Verdict.SAFE else -v
                    core = extract_gmus(
                        solver, pivot,
                        initial_core=solver.core_groups(core_lits))
                inferences.append(
                    Inference(formula.var_sites[v - 1], verdict, core))
    if quiet is not None:
        quiet.clear()
        quiet.update(now_quiet)
    inferences.sort(key=lambda inf: inf.site)
    return inferences


def _part_verdicts(solver: Solver, parts: List[List[int]]):
    """Phase 1 on each part, given as its ascending group ids, in turn.

    Yields, per part, its (var, verdict, core literals) triples; the core
    literals are those of the verdict query (they mean nothing on a
    selector-free solver). The next part is decided only once the
    caller asks for it. A selector-free solver is steered: each witness
    sets the phase of its variables to the value they have not yet shown.
    A selector solver keeps the unsteered search its cores were found
    with, and its phases go to an array it never reads.
    """
    seen_true = bytearray(solver.num_vars + 1)
    seen_false = bytearray(solver.num_vars + 1)
    phase = (bytearray(solver.num_vars + 1) if solver.selectors
             else solver.phase)

    def witness(model):
        for v, value in model.items():
            if value:
                seen_true[v] = 1
                phase[v] = 0
            else:
                seen_false[v] = 1
                phase[v] = 1

    for groups in parts:
        base = solver.solve(groups)
        if not base.sat:
            raise ValueError("state is inconsistent, no inference is meaningful")
        witness(base.model)
        found = []
        # The base model holds exactly the part's variables.
        for v in sorted(base.model):
            for lit, seen, verdict in ((v, seen_true, Verdict.SAFE),
                                       (-v, seen_false, Verdict.MINE)):
                if seen[v]:
                    continue
                res = solver.solve(groups, [lit])
                if res.sat:
                    witness(res.model)
                    continue
                found.append((v, verdict, res.core))
                break
        yield found


def _settle(fr: Frontiers, propagate: bool = True
            ) -> Tuple[List[int], List[List[Row]]]:
    """Counting propagation on the frontier system, then its parts.

    Every label is checked first: one outside [0, support size] raises
    InfeasibleLabel. With propagate, a row whose residual label is 0 then
    forces its undecided columns safe, and a row whose residual label
    equals its undecided count forces them mined, to a fixpoint. This is
    unit propagation on the binomial encoding, which keeps generalized arc
    consistency, so it settles exactly the sites that the formula's
    level-0 propagation assigns; a conflict raises ValueError. Without
    propagate nothing is settled.

    Returns (value, parts): value[j] is 1 (mined), 0 (safe) or -1
    (undecided) per column, and parts the parts of the rows left
    undecided, rows joined through their undecided columns, each a list of
    (row, residual label, ascending undecided columns) in row order, in
    the order of their first row. After propagation a residual row has
    0 < residual label < undecided count.
    """
    supports = fr.supports
    rows_of: List[List[int]] = [[] for _ in fr.outer]
    for i, (isite, support, e) in enumerate(
            zip(fr.inner, supports, fr.labels)):
        if not 0 <= e <= len(support):
            raise InfeasibleLabel(f"inner site {isite}: label {e} "
                                  f"infeasible for {len(support)} variables")
        for j in support:
            rows_of[j].append(i)
    need = list(fr.labels)
    free = [len(s) for s in supports]
    value = [-1] * len(fr.outer)
    queue = ([i for i, e in enumerate(need) if e == 0 or e == free[i]]
             if propagate else [])
    while queue:
        i = queue.pop()
        if not free[i]:
            continue
        # A forced row stays forced until its columns are all decided: any
        # other move of its counts is a conflict, raised below.
        b = 1 if need[i] else 0
        for j in supports[i]:
            if value[j] >= 0:
                continue
            value[j] = b
            for r in rows_of[j]:
                free[r] -= 1
                need[r] -= b
                e, f = need[r], free[r]
                if e < 0 or e > f:
                    raise ValueError(
                        "state is inconsistent, no inference is meaningful")
                if f and (e == 0 or e == f):
                    queue.append(r)
    # Every row holding an undecided column is in a part.
    parts = []
    done = bytearray(len(supports))
    for first, f in enumerate(free):
        if done[first] or not f:
            continue
        done[first] = 1
        stack = [first]
        part = []
        while stack:
            i = stack.pop()
            cols = [j for j in supports[i] if value[j] < 0]
            part.append((i, need[i], cols))
            for j in cols:
                for r in rows_of[j]:
                    if not done[r]:
                        done[r] = 1
                        stack.append(r)
        part.sort()
        parts.append(part)
    return value, parts


def check_budgets(time_budget_s: Optional[float] = None,
                  conflict_budget: int = 0) -> None:
    """Raise ValueError unless the time budget is None (no limit) or a
    positive number of seconds and the conflict budget is not negative."""
    if time_budget_s is not None and not time_budget_s > 0:
        raise ValueError(
            f"time budget must be positive seconds, got {time_budget_s}")
    if conflict_budget < 0:
        raise ValueError(
            f"conflict budget must not be negative, got {conflict_budget}")


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
    STUCK_BUDGET. A time budget that is not positive or a negative conflict
    budget raises ValueError.

    rho and seed are metadata echoed into the record; rho defaults to the
    board's realized mine fraction. trace_fn, when given, is called after
    every inference pass (including the final empty one) with the pass
    number and its inferences.
    """
    check_budgets(time_budget_s, conflict_budget)
    policy = Policy.parse(policy)
    if board.start is None:
        raise ValueError("board has no disclosed zero start")
    t0 = time.perf_counter()
    state = GameState(board)
    reveal(state, board.start)
    assert not state.exploded, "the disclosed start is guaranteed empty"
    n_mines = len(board.mines)
    mines = board.mines
    rho_val = rho if rho is not None else n_mines / (board.n * board.n)
    flags = 0
    turns = 0
    cores: List[GmusResult] = []
    quiet: Set[FrozenSet] = set()       # parts that yielded nothing
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
                                        conflict_budget=conflict_budget,
                                        quiet=quiet)
            else:
                fr = build_constraints(state)
                inferences = [
                    Inference(fr.outer[j], Verdict.MINE if b else Verdict.SAFE)
                    for j, b in kset_infer(fr, policy.k)]
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
        safe = [inf for inf in inferences if inf.verdict is Verdict.SAFE]
        if safe:
            reveal(state, *(inf.site for inf in safe))
            assert not state.exploded
        cores.extend(inf.core for inf in safe if inf.core is not None)
        turns += 1
    wall_ms = (time.perf_counter() - t0) * 1000.0
    alpha = 1.0 if n_mines == 0 else flags / n_mines
    max_core: Optional[int] = None
    if policy.kind == "sat" and track_cores:
        max_core = max_core_size(cores)
    return GameRecord(n=board.n, rho=rho_val, seed=seed, policy=str(policy),
                      alpha=alpha, max_core=max_core, turns=turns,
                      outcome=outcome, wall_ms=wall_ms)
