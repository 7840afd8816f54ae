"""Grouped minimal unsatisfiable core extraction.

A core is a subset S of clause groups whose conjunction with the pivot
assumption is unsatisfiable while every proper deletion of one group from S
is satisfiable. |S| is the hardness metric C recorded per inference.

Extraction is deletion-based over the fixed ascending group order (groups
are numbered by row-major inner-frontier position, so this is the row-major
order), with two accelerations that preserve minimality:

 * core trimming: every unsatisfiable solver call returns the subset of
   activated groups actually used (Solver.core_groups), and the candidate
   resets to it;
 * a singleton pre-scan over the groups that mention the pivot variable
   (Solver.var_groups), which are the only possible size-1 cores. When any
   single group already contradicts the pivot the scan returns it, so
   inferences available to single-constraint reasoning always report C = 1.

Every query here names its active groups, so the solver branches only on
those groups' variables: a pre-scan query decides at most the eight
variables of one group. Consecutive deletion trials share the selector
levels before the deleted group (see minelab.sat).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional

from .cnf import GroupedCnf
from .sat import Solver


class NotUnsat(Exception):
    """extract_gmus was called on a satisfiable query."""


@dataclass(frozen=True)
class GmusResult:
    """A minimal unsatisfiable core: group ids, the pivot literal, and C."""
    core: FrozenSet[int]
    pivot: int
    size: int


def extract_gmus(formula: GroupedCnf, pivot: int, *,
                 solver: Optional[Solver] = None,
                 initial_core: Optional[Iterable[int]] = None) -> GmusResult:
    """Extract a minimal (not minimum) core for formula ∧ pivot.

    Args:
      formula: the grouped CNF.
      pivot: the tentative assumption literal (x or -x).
      solver: an existing Solver for this formula to reuse; one is built
        otherwise. Learned clauses are shared either way.
      initial_core: group ids already known to be unsatisfiable with the
        pivot (for example from the inference query that triggered the
        extraction); skips the initial full solve.

    Raises:
      NotUnsat: the full formula is satisfiable with the pivot.
    """
    if solver is None:
        solver = Solver(formula)
    if initial_core is None:
        res = solver.solve(None, [pivot])
        if res.sat:
            raise NotUnsat(f"formula is satisfiable with pivot {pivot}")
        start = solver.core_groups(res.core)
    else:
        start = sorted(set(initial_core))
    for g in solver.var_groups[abs(pivot)]:
        if not solver.solve([g], [pivot]).sat:
            return GmusResult(core=frozenset([g]), pivot=pivot, size=1)
    candidate = set(start)
    for g in start:
        if g not in candidate:
            continue
        if len(candidate) == 1:
            break
        trial = sorted(candidate)
        trial.remove(g)
        res = solver.solve(trial, [pivot])
        if res.sat:
            continue
        candidate = set(solver.core_groups(res.core))
    return GmusResult(core=frozenset(candidate), pivot=pivot,
                      size=len(candidate))


def max_core_size(records: Iterable[GmusResult]) -> int:
    """Largest core size in a collection, 0 when empty."""
    return max((r.size for r in records), default=0)
