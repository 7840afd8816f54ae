"""Grouped minimal unsatisfiable core extraction.

A core is a subset S of clause groups whose conjunction with the pivot
assumption is unsatisfiable while every proper deletion of one group from S
is satisfiable. |S| is the hardness metric C recorded per inference.

Extraction is deletion-based over the fixed ascending group order of the
start core (groups are numbered by row-major inner-frontier position, so
this is the row-major order). Two accelerations preserve minimality and
replace most SAT trials by checks of models the solver has already
returned:

 * core trimming: every unsatisfiable trial returns the subset of activated
   groups actually used (Solver.core_groups), and the candidate resets to it;
 * recursive model rotation (Marques-Silva & Lynce, SAT 2011; Belov &
   Marques-Silva, FMCAD 2011): a satisfiable trial without g has a model
   that violates g alone among the candidate groups, so g is necessary.
   Flipping one non-pivot variable of g that leaves exactly one candidate
   group h violated proves h necessary as well, and rotation continues from
   the flipped model. Necessary groups are never offered for deletion; a
   group necessary for a candidate stays necessary for every subset of it
   that still contains it, so trimming never drops one. Violation is read
   from the groups' clauses, so any grouped CNF works.

Singleton rule: when some group that mentions the pivot variable
contradicts the pivot on its own, the core is the lowest-id such group, so
inferences available to single-constraint reasoning always report C = 1.
How that group is found depends on the formula:

 * counting, for a formula with labels (Solver.labels, every frontier
   formula from cnf.build_formula). A group that says "exactly e of these
   m variables are true" is satisfiable on its own (0 <= e <= m), and it
   contradicts the pivot alone exactly when it holds the unit clause
   -pivot: e = 0 against a true pivot, e = m against a false one. The
   lowest such group is returned before any query. Without one, no group
   alone contradicts the pivot, so a candidate of two groups is minimal and
   the deletion loop stops there. This one rule, counted_singleton, has two
   callers: extract_gmus, and the player, which reads it off the frontier
   system and so asks no solver query at all for a verdict it settles;
 * queries, for a formula without labels (a parsed DIMACS or GCNF file).
   After the deletion loop, the groups that mention the pivot variable are
   queried alone, ascending, and the first that contradicts the pivot is
   the core. When the candidate is a single group c, c itself is known to
   contradict the pivot and the scan stops there.

Extraction runs on a Solver, which owns the grouped formula: the clauses
that rotation checks are read from Solver.groups, so they are always the
clauses the queries decide. Like every solver query, each query here names
its active groups, and the solver branches only on those groups'
variables: a scan query decides at most the eight variables of one group.
Its model holds only the variables it decided; rotation reads the
variables of the start core's groups, and a variable the model leaves out
reads False.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from .cnf import Clause
from .sat import Solver


class NotUnsat(Exception):
    """extract_gmus was called on a satisfiable query."""


@dataclass(frozen=True)
class GmusResult:
    """A minimal unsatisfiable core: its group ids, and C, their number."""
    core: FrozenSet[int]

    @property
    def size(self) -> int:
        return len(self.core)


def _violated(clauses: Sequence[Clause], lits: Set[int]) -> bool:
    """Does the assignment with true literals lits falsify some clause."""
    return any(map(lits.isdisjoint, clauses))


def _true_lits(model: Dict[int, bool], vars: Iterable[int]) -> Set[int]:
    """The true literals of a solver model over vars; a variable the model
    leaves out reads False."""
    get = model.get
    return {v if get(v) else -v for v in vars}


def _flip(lits: Set[int], v: int) -> None:
    """Flip variable v in the assignment with true literals lits."""
    l = v if v in lits else -v
    lits.remove(l)
    lits.add(-l)


def counted_singleton(pivot: int, groups: Iterable[int], labels,
                      group_vars) -> Optional[GmusResult]:
    """The singleton rule by counting: the first of groups (the ascending
    ids of the groups that mention the pivot variable) that contradicts
    pivot on its own, as a core, or None. labels and group_vars map a group
    id to its label and to its variables. A group saying "exactly e of its
    m variables are true" does so only through the unit clause -pivot: e = 0
    against a true pivot, e = m against a false one."""
    for h in groups:
        if labels[h] == (0 if pivot > 0 else len(group_vars[h])):
            return GmusResult(core=frozenset([h]))
    return None


def extract_gmus(solver: Solver, pivot: int, *,
                 initial_core: Optional[Iterable[int]] = None) -> GmusResult:
    """Extract a minimal (not minimum) core for the solver's groups ∧ pivot.

    With labels (Solver.labels), the lowest group that mentions the pivot
    variable and contradicts the pivot by counting is returned before any
    query. Otherwise the deletion loop offers each group of the start core,
    ascending, that is still in the candidate and not yet known necessary;
    each satisfiable trial's model is rotated to mark further necessary
    groups. It stops at a candidate of one group, or with labels of two:
    counting found no group that contradicts the pivot alone, so both are
    necessary. Without labels, the singleton scan then queries the groups
    that mention the pivot variable, ascending, and returns the first one
    that contradicts the pivot alone; reaching the candidate's only group
    ends it without a query. Otherwise the candidate left by the deletion
    loop is the core.

    Args:
      solver: the Solver that owns the grouped formula; the groups' clauses
        are read from it, and its learned clauses are shared with every
        other query on it.
      pivot: the tentative assumption literal (x or -x).
      initial_core: the core literals (_SolveResult.core) of an
        unsatisfiable query of the pivot on this solver, such as the query
        that confirmed the inference; skips the initial query over all
        groups. Its selectors are mapped to groups only when counting
        finds no singleton core.

    Raises:
      ValueError: the pivot names no variable of the formula.
      NotUnsat: all groups together are satisfiable with the pivot.
    """
    if not 1 <= abs(pivot) <= solver.num_vars:
        raise ValueError(f"pivot {pivot} names no variable of the formula "
                         f"(variables 1..{solver.num_vars})")
    groups = solver.groups
    group_vars = solver.group_vars
    var_groups = solver.var_groups
    labels = solver.labels
    pv = abs(pivot)
    if labels is not None:
        single = counted_singleton(pivot, var_groups[pv], labels, group_vars)
        if single is not None:
            return single
    if initial_core is None:
        res = solver.solve(solver.group_ids, [pivot])
        if res.sat:
            raise NotUnsat(f"formula is satisfiable with pivot {pivot}")
        initial_core = res.core
    start = solver.core_groups(initial_core)
    # A candidate this small is minimal: one group is, and with labels so
    # are two, since neither contradicts the pivot alone.
    settled = 1 if labels is None else 2
    # Rotation reads only these variables.
    read_vars = {v for g in start for v in group_vars[g]}

    candidate = set(start)
    necessary: Set[int] = set()

    def rotate(g: int, lits: Set[int]) -> None:
        """Mark the groups that rotation from the model lits, which violates
        g alone among the candidate groups, proves necessary."""
        # Depth-first over the rotated models; a frame is the variable
        # iterator of a newly marked group and the flip that reached it.
        # A flip can change the status only of the groups that mention the
        # flipped variable, and the necessary ones (all in the candidate)
        # are checked only when exactly one other group is violated.
        # Rotation stops once every candidate group is known necessary.
        frames: List[tuple] = [(iter(group_vars[g]), 0)]
        while frames and len(necessary) < len(candidate):
            it, entry = frames[-1]
            for v in it:
                if v == pv:
                    continue
                _flip(lits, v)
                hit = [h for h in var_groups[v]
                       if h in candidate and h not in necessary
                       and _violated(groups[h], lits)]
                if len(hit) == 1 and not any(
                        _violated(groups[h], lits)
                        for h in var_groups[v] if h in necessary):
                    necessary.add(hit[0])
                    frames.append((iter(group_vars[hit[0]]), v))
                    break
                _flip(lits, v)
            else:
                frames.pop()
                if entry:
                    _flip(lits, entry)

    for g in start:
        if len(candidate) <= settled:
            break
        if g not in candidate or g in necessary:
            continue
        trial = sorted(candidate)
        trial.remove(g)
        res = solver.solve(trial, [pivot])
        if not res.sat:
            candidate = set(solver.core_groups(res.core))
            continue
        necessary.add(g)
        rotate(g, _true_lits(res.model, read_vars))

    if labels is None:
        only = next(iter(candidate)) if len(candidate) == 1 else None
        for h in var_groups[pv]:
            if h == only:
                break
            if not solver.solve([h], [pivot]).sat:
                return GmusResult(core=frozenset([h]))
    return GmusResult(core=frozenset(candidate))
