"""Play full games by logical inference and record the α metric.

One pass decides every outer variable of the frontier formula F both
ways: F ∧ x unsatisfiable means the site is safe, F ∧ ¬x unsatisfiable
means it is a mine. All inferences from a pass are applied together (flags
first, then every safe site in one reveal move) before the frontiers are
recomputed. The game ends when every mine is flagged or a pass yields
nothing.

A pass is one pipeline (infer_step):

 1. the frontier system (board.frontiers), its labels checked once;
 2. counting propagation: a row whose residual label is 0 forces its
    undecided sites safe, and one whose residual label equals its
    undecided count forces them mined, to a fixpoint. That is unit
    propagation on the binomial encoding, so it settles exactly what the
    formula's level-0 propagation would (Janota, Lynce & Marques-Silva,
    AI Comm. 2015), and on played boards it settles most verdicts;
 3. the undecided rows, split into parts joined through their undecided
    sites. A literal is forced by the whole formula exactly when it is
    forced by the part holding its variable, since the other parts share
    no variable with it;
 4. the parts that yielded nothing on the last pass, dropped;
 5. each other part's verdicts by a counting search on its own rows
    (_backbone): no formula and no solver;
 6. with cores on, and only when the pass inferred something, the SAT
    reduction: cnf.build_formula over the whole frontier system (VarId =
    outer index + 1) for one selector solver, which asks every
    inference's pivot with all groups active, in ascending site order, and
    then extracts the minimal cores in the same order. Every verdict is so
    confirmed by an unsatisfiable query before any extraction, and
    consecutive pivot queries share every selector level.

A part's verdicts are its backbone, which does not depend on how it is
found. The counting search asks each site, mined first, for each value no
model has shown it: a depth-first search with counting propagation after
every decision, whose failure is the inference. A search under a site
decides the sites nearest it first, so a contradiction near it is met
before a far site is decided, and every decision tries the value its site
has not yet shown, so that each model rules out as many searches as it
can. Each search, and each solver query, counts its conflicts against the
conflict budget.

A part's constraints, and so its backbone, are fixed by its signature: the
set of its rows' (inner site, residual label, undecided sites). play_game
keeps the signatures of the parts that yielded nothing on the last pass,
and a pass does not search a part it meets again. On large boards most
parts are untouched between passes. Cores are extracted on the whole
frontier formula, so they do not depend on that memory.
"""
from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import (Callable, FrozenSet, List, Optional, Sequence, Set,
                    Tuple, Union)

from .board import (Board, Frontiers, GameState, Site, flag,
                    frontiers, reveal)
from .cnf import InfeasibleLabel, build_formula
from .gmus import GmusResult, extract_gmus
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

    The labels are checked first. Counting propagation on the frontier
    system then settles every site that unit propagation on the formula
    would force, and these become inferences without a search. The rows
    left undecided are split into parts, rows joined through their
    undecided columns, and each part's verdicts come from a counting
    search on its rows. quiet, when given, holds the signatures of the
    parts that yielded nothing on the last pass: such a part is passed
    over, and on return the set holds the signatures of this pass's parts
    that yielded nothing. A search past conflict_budget conflicts raises
    ResourceLimit.

    With extract_cores, a pass that inferred something encodes the whole
    frontier system by build_formula for one selector solver. Every
    inference's pivot is asked with all groups active, in ascending site
    order, and a satisfiable answer raises ValueError; then a minimal core
    is attached to each inference, in the same order, found from the core
    of its pivot query. A query past conflict_budget conflicts raises
    ResourceLimit.

    An effective label outside [0, support size] raises InfeasibleLabel;
    any other inconsistency raises ValueError.
    """
    fr = frontiers(state)
    rows, parts = _settle(fr)
    inner, outer = fr.inner, fr.outer
    found = [(j, b) for j, b in enumerate(rows.value) if b >= 0]
    # A part's signature fixes its constraints, and so its backbone.
    last_quiet = quiet if quiet is not None else ()
    now_quiet = set()
    for part in parts:
        sig = frozenset((inner[i], e, *[outer[j] for j in cols])
                        for i, e, cols in part)
        if sig not in last_quiet:
            part_found = _backbone(rows, part, conflict_budget)
            if part_found:
                found.extend(part_found)
                continue
        now_quiet.add(sig)
    if quiet is not None:
        quiet.clear()
        quiet.update(now_quiet)
    found.sort()
    cores: List[Optional[GmusResult]] = [None] * len(found)
    if extract_cores and found:
        formula = build_formula(fr)
        solver = Solver(formula, conflict_budget=conflict_budget)
        # The pivot assumes the verdict's opposite: mined for a safe site.
        pivots = [j + 1 if b == 0 else -(j + 1) for j, b in found]
        starts = []
        for pivot in pivots:
            res = solver.solve(solver.group_ids, [pivot])
            if res.sat:
                raise ValueError(f"pivot {pivot} is satisfiable: the "
                                 f"verdict at {outer[abs(pivot) - 1]} is "
                                 f"not forced")
            starts.append(solver.core_groups(res.core))
        cores = [extract_gmus(solver, pivot, initial_core=start)
                 for pivot, start in zip(pivots, starts)]
    return [Inference(outer[j], Verdict.MINE if b else Verdict.SAFE, core)
            for (j, b), core in zip(found, cores)]


# A part of the residual rows: (row, residual label, undecided columns).
_Part = List[Tuple[int, int, List[int]]]


class _Rows:
    """Exact-count rows over 0/1 columns, with counting propagation and the
    state of the searches on them.

    supports[i] holds row i's columns, need[i] the mines it still needs
    (its residual label) and free[i] its undecided columns; value[j] is 1
    (mined), 0 (safe) or -1 (undecided), and rows_of[j] the rows holding
    column j. Every column set goes on trail, so undo takes back all that
    was set after a mark. shown[j] has bit b set once a model gave column
    j the value b, and phase[j] is the value a decision on j tries first.
    """

    def __init__(self, supports: Sequence[Sequence[int]],
                 labels: Sequence[int], columns: int):
        self.supports = supports
        self.need = list(labels)
        self.free = [len(s) for s in supports]
        self.value = [-1] * columns
        self.rows_of: List[List[int]] = [[] for _ in range(columns)]
        for i, support in enumerate(supports):
            for j in support:
                self.rows_of[j].append(i)
        self.trail: List[int] = []
        self.shown = bytearray(columns)
        self.phase = bytearray(columns)
        # Visit stamps of the breadth-first orders, one per order.
        self._stamp = 0
        self._row_seen = [0] * len(supports)
        self._col_seen = [0] * columns

    def forced(self) -> List[int]:
        """The rows whose counts force their undecided columns."""
        free = self.free
        return [i for i, e in enumerate(self.need) if e == 0 or e == free[i]]

    def propagate(self, queue: List[int], cols: Sequence[int] = (),
                  b: int = 0) -> bool:
        """Set the undecided columns of cols to b, then counting
        propagation from the queued rows and those the new values force,
        to a fixpoint: a row with need 0 forces its undecided columns safe,
        and one with need equal to free forces them mined.

        Returns False at the first conflict, a row left with need < 0 or
        need > free; the conflicting column's rows are all counted, so
        undo stays exact. The queue is then emptied.
        """
        supports, rows_of = self.supports, self.rows_of
        need, free, value, trail = self.need, self.free, self.value, self.trail
        while True:
            for j in cols:
                if value[j] >= 0:
                    continue
                value[j] = b
                trail.append(j)
                ok = True
                for r in rows_of[j]:
                    e = need[r] - b
                    f = free[r] - 1
                    need[r] = e
                    free[r] = f
                    if e < 0 or e > f:
                        ok = False
                    elif f and (e == 0 or e == f):
                        queue.append(r)
                if not ok:
                    del queue[:]
                    return False
            while queue:
                i = queue.pop()
                if free[i]:
                    break
            else:
                return True
            # A forced row stays forced until its columns are all decided:
            # any other move of its counts is a conflict.
            cols = supports[i]
            b = 1 if need[i] else 0

    def undo(self, mark: int) -> None:
        """Take back every column set after the first mark trail entries."""
        trail, value, need, free = self.trail, self.value, self.need, self.free
        rows_of = self.rows_of
        while len(trail) > mark:
            j = trail.pop()
            b = value[j]
            value[j] = -1
            for r in rows_of[j]:
                need[r] += b
                free[r] += 1

    def order_from(self, mark: int) -> List[int]:
        """The columns set after the first mark trail entries, then, breadth
        first, the undecided columns joined to them through rows."""
        supports, rows_of, value = self.supports, self.rows_of, self.value
        self._stamp += 1
        stamp, row_seen, seen = self._stamp, self._row_seen, self._col_seen
        order = self.trail[mark:]
        for j in order:
            seen[j] = stamp
        for j in order:
            for r in rows_of[j]:
                if row_seen[r] == stamp:
                    continue
                row_seen[r] = stamp
                for k in supports[r]:
                    if seen[k] != stamp and value[k] < 0:
                        seen[k] = stamp
                        order.append(k)
        return order


def _search(rows: _Rows, j: int, b: int, order: List[int],
            budget: int) -> bool:
    """Whether column j can take the value b, by depth-first search.

    Decisions take the first undecided column of order and try the value
    in rows.phase; counting propagation follows each. An empty order is
    filled at the first decision: j and the columns its value set, then
    the columns joined to them, nearest first. Columns that no path of
    rows through columns undecided at the start joins to j are left out,
    since they cannot change the answer. On True the model is left in
    rows.value for the caller to undo; on False, or when the conflicts
    pass budget (ResourceLimit), every value is as before.
    """
    value, trail, phase = rows.value, rows.trail, rows.phase
    start = len(trail)
    ok = rows.propagate([], (j,), b)
    decisions: List[Tuple[int, int, bool]] = []   # (mark, head, flipped)
    head = 0
    conflicts = 0
    while True:
        if ok:
            if not order:
                order += rows.order_from(start)
            while head < len(order) and value[order[head]] >= 0:
                head += 1
            if head == len(order):
                return True
            decisions.append((len(trail), head, False))
            k = order[head]
            ok = rows.propagate([], (k,), phase[k])
            continue
        conflicts += 1
        if conflicts > budget:
            rows.undo(start)
            raise ResourceLimit(f"conflict budget {budget} exceeded")
        while decisions and decisions[-1][2]:
            decisions.pop()
        if not decisions:
            rows.undo(start)
            return False
        mark, head, _ = decisions.pop()
        k = order[head]
        flip = 1 - value[k]
        rows.undo(mark)
        decisions.append((mark, head, True))
        ok = rows.propagate([], (k,), flip)


def _backbone(rows: _Rows, part: _Part,
              conflict_budget: int) -> List[Tuple[int, int]]:
    """The forced (column, value) pairs of a part's undecided columns,
    ascending, by counting search on rows.

    Each column is asked, by a search under it, for each value that no
    model has shown it, mined first. A failed search, with a model of the
    other value seen, is an inference; it is then kept, with its
    propagation, for the searches after it. If both values fail the rows
    have no model, and ValueError is raised; a search past
    conflict_budget conflicts raises ResourceLimit. Each model steers the
    decisions after it toward the values its columns have not shown, and
    a search under a column decides the columns nearest it first, so that
    a contradiction near it is met before a far column is decided. The
    result is the backbone, which no search order changes.
    """
    value, shown, phase = rows.value, rows.shown, rows.phase
    found = []
    for j in sorted({j for _, _, cols in part for j in cols}):
        if value[j] >= 0:
            found.append((j, value[j]))
            continue
        order: List[int] = []
        failed = -1
        for b in (1, 0):
            if shown[j] >> b & 1:
                continue
            mark = len(rows.trail)
            if not _search(rows, j, b, order, conflict_budget):
                if failed >= 0:
                    raise ValueError(
                        "state is inconsistent, no inference is meaningful")
                failed = b
                continue
            for k in rows.trail[mark:]:
                v = value[k]
                shown[k] |= 1 << v
                phase[k] = 1 - v
            rows.undo(mark)
        if failed >= 0:
            found.append((j, 1 - failed))
            rows.propagate([], (j,), 1 - failed)
    return found


def _settle(fr: Frontiers) -> Tuple[_Rows, List[_Part]]:
    """Counting propagation on the frontier system, then its parts.

    Every label is checked first: one outside [0, support size] raises
    InfeasibleLabel. A row whose residual label is 0 then forces its
    undecided columns safe, and a row whose residual label equals its
    undecided count forces them mined, to a fixpoint. This is unit
    propagation on the binomial encoding, which keeps generalized arc
    consistency, so it settles exactly the sites that the formula's
    level-0 propagation assigns; a conflict raises ValueError.

    Returns (rows, parts): rows the system, whose value[j] is 1 (mined),
    0 (safe) or -1 (undecided) per column, and parts the parts of the rows
    left undecided, rows joined through their undecided columns, each a
    list of (row, residual label, ascending undecided columns) in row
    order, in the order of their first row. After propagation a residual
    row has 0 < residual label < undecided count.
    """
    supports = fr.supports
    for isite, support, e in zip(fr.inner, supports, fr.labels):
        if not 0 <= e <= len(support):
            raise InfeasibleLabel(f"inner site {isite}: label {e} "
                                  f"infeasible for {len(support)} variables")
    rows = _Rows(supports, fr.labels, len(fr.outer))
    if not rows.propagate(rows.forced()):
        raise ValueError("state is inconsistent, no inference is meaningful")
    need, free, value, rows_of = rows.need, rows.free, rows.value, rows.rows_of
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
    return rows, parts


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
    largest = 0                         # the largest core met
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
            elif validate:
                assert inf.site not in mines, f"unsound safe verdict at {inf.site}"
            if inf.core is not None:
                largest = max(largest, inf.core.size)
        safe = [inf for inf in inferences if inf.verdict is Verdict.SAFE]
        if safe:
            reveal(state, *(inf.site for inf in safe))
            assert not state.exploded
        turns += 1
    wall_ms = (time.perf_counter() - t0) * 1000.0
    alpha = 1.0 if n_mines == 0 else flags / n_mines
    max_core = largest if policy.kind == "sat" and track_cores else None
    return GameRecord(n=board.n, rho=rho_val, seed=seed, policy=str(policy),
                      alpha=alpha, max_core=max_core, turns=turns,
                      outcome=outcome, wall_ms=wall_ms)
