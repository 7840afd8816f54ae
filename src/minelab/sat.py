"""Complete SAT decision procedure with assumptions and group activation.

The solver is conflict-driven clause learning (CDCL) over two-watched
literals, with MiniSat-style assumption handling: assumptions occupy the
first decision levels, and an unsatisfiable query yields the subset of
assumptions responsible (analyze-final).

Group activation never rebuilds the formula: every clause of group g is
stored with a guard literal, and activating g means assuming its selector
variable. The selector-relaxed formula is always satisfiable, so learned
clauses (implied by it alone) remain valid across queries with any active
set, and a solver instance can serve thousands of queries on one formula.
Selectors are numbered num_vars+1, num_vars+2, ... in ascending group id
order, so a core maps back to group ids by position (core_groups).

Consecutive queries share their assumption trail (Hickey & Bacchus,
"Speeding Up Assumption-Based SAT", SAT 2019): a query keeps the decision
levels of the longest common prefix of its assumption list and the previous
one, and only backtracks and re-assumes past it. The selectors come first,
in ascending group order, so queries over the same active groups share
every selector level.

Branching picks the unassigned problem variable with the highest occurrence
count in the original formula, ties broken by lowest variable id, and always
tries value false first. A query with all groups active branches on every
problem variable; a query with an explicit active set branches only on the
variables of its active groups (assumptions assign their own variables).
Selector variables are never branched on. Once the branching variables are
assigned and propagation is quiet, every clause of an active group has all
its literals assigned and none falsified, so it is satisfied; setting the
unassigned selectors false satisfies every other guarded clause and every
learned clause that mentions an inactive group, so the remaining problem
variables can take any value, and the model sets them false.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .cnf import GroupedCnf


class ResourceLimit(Exception):
    """The per-call conflict budget was exceeded."""


@dataclass(frozen=True)
class SolveResult:
    """Sat with a model over every problem variable, or Unsat with the
    subset of assumption literals (selectors included) that clash.

    A query with an explicit active set assigns only the variables of its
    active groups and its assumptions; the model reports every other
    problem variable False. It satisfies every active group and the
    assumptions, not necessarily the inactive groups.
    """
    sat: bool
    model: Optional[Dict[int, bool]] = None
    core: Optional[FrozenSet[int]] = None


def _lit_index(l: int) -> int:
    return (l << 1) if l > 0 else ((-l) << 1) | 1


class Solver:
    """CDCL solver bound to one GroupedCnf for its whole life.

    Queries with different active groups and assumptions share learned
    clauses, and consecutive queries share the decision levels of their
    common assumption prefix: solve leaves the trail of the last query in
    place and backtracks only as far as the next one needs. Instances are
    single-threaded; build one per formula.
    """

    def __init__(self, formula: GroupedCnf, *, conflict_budget: int = 1_000_000):
        self.conflict_budget = conflict_budget
        self.num_vars = formula.num_vars
        self.group_ids = sorted(formula.groups)
        self.selector_of = {g: self.num_vars + 1 + i
                            for i, g in enumerate(self.group_ids)}
        nv = self.num_vars + len(self.group_ids)
        self.nv_total = nv
        self.assigns = [0] * (nv + 1)      # 0 unassigned, 1 true, -1 false
        self.level = [0] * (nv + 1)
        self.reason: List[Optional[list]] = [None] * (nv + 1)
        self.seen = bytearray(nv + 1)
        self.watches: List[list] = [[] for _ in range(2 * nv + 2)]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.head_stack: List[int] = []
        self.qhead = 0
        self.order_head = 0
        self.learnts: List[list] = []
        self.learnt_meta: List[Tuple[int, int]] = []   # (lbd, seq)
        self.learnt_seq = 0
        self.max_learnts = 4000
        self.last_assumptions: List[int] = []
        occ = [0] * (self.num_vars + 1)
        self._groups = formula.groups
        self._orig: List[list] = []
        for g in self.group_ids:
            guard = -self.selector_of[g]
            for clause in formula.groups[g]:
                cl = [guard]
                cl.extend(clause)
                self._orig.append(cl)
                if len(cl) >= 2:
                    self._attach(cl)
                elif self._value(guard) == 0:
                    # Empty problem clause: its guard is a permanent fact.
                    self._enqueue(guard, cl)
                for l in clause:
                    occ[abs(l)] += 1
        self.order = sorted(range(1, self.num_vars + 1),
                            key=lambda v: (-occ[v], v))

    # -- indices for explicit active sets, built on first use ---------------

    @cached_property
    def group_vars(self) -> Dict[int, List[int]]:
        """Group id -> the ascending variables its clauses mention."""
        return {g: sorted({abs(l) for clause in self._groups[g]
                           for l in clause})
                for g in self.group_ids}

    @cached_property
    def var_groups(self) -> List[List[int]]:
        """Variable -> the ascending ids of the groups that mention it."""
        out: List[List[int]] = [[] for _ in range(self.num_vars + 1)]
        for g in self.group_ids:
            for v in self.group_vars[g]:
                out[v].append(g)
        return out

    @cached_property
    def rank(self) -> List[int]:
        """Variable -> its position in the branching order."""
        rank = [0] * (self.num_vars + 1)
        for i, v in enumerate(self.order):
            rank[v] = i
        return rank

    # -- clause plumbing ---------------------------------------------------

    def _attach(self, cl: list) -> None:
        # Callers only attach clauses with >= 2 literals.
        self.watches[_lit_index(cl[0])].append(cl)
        self.watches[_lit_index(cl[1])].append(cl)

    def _value(self, l: int) -> int:
        return self.assigns[l] if l > 0 else -self.assigns[-l]

    def _enqueue(self, l: int, reason: Optional[list]) -> None:
        v = l if l > 0 else -l
        self.assigns[v] = 1 if l > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(l)

    def _new_level(self) -> None:
        self.trail_lim.append(len(self.trail))
        self.head_stack.append(self.order_head)

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        assigns = self.assigns
        reason = self.reason
        bound = self.trail_lim[lvl]
        for i in range(len(self.trail) - 1, bound - 1, -1):
            v = abs(self.trail[i])
            assigns[v] = 0
            reason[v] = None
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.order_head = self.head_stack[lvl]
        del self.head_stack[lvl:]
        self.qhead = bound

    # -- propagation -------------------------------------------------------

    def _propagate(self) -> Optional[list]:
        trail = self.trail
        assigns = self.assigns
        watches = self.watches
        reason = self.reason
        level = self.level
        qhead = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            fal = -p
            ws = watches[(p << 1) | 1 if p > 0 else (-p) << 1]
            i = j = 0
            end = len(ws)
            cur_level = len(self.trail_lim)
            while i < end:
                cl = ws[i]
                i += 1
                if cl[0] == fal:
                    cl[0] = cl[1]
                    cl[1] = fal
                other = cl[0]
                ov = assigns[other] if other > 0 else -assigns[-other]
                if ov == 1:
                    ws[j] = cl
                    j += 1
                    continue
                found = False
                for k in range(2, len(cl)):
                    q = cl[k]
                    if (assigns[q] if q > 0 else -assigns[-q]) != -1:
                        cl[1] = q
                        cl[k] = fal
                        watches[(q << 1) if q > 0 else ((-q) << 1) | 1].append(cl)
                        found = True
                        break
                if found:
                    continue
                ws[j] = cl
                j += 1
                if ov == -1:
                    while i < end:
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    del ws[j:]
                    self.qhead = len(trail)
                    return cl
                v = other if other > 0 else -other
                assigns[v] = 1 if other > 0 else -1
                level[v] = cur_level
                reason[v] = cl
                trail.append(other)
            del ws[j:]
        self.qhead = qhead
        return None

    # -- conflict analysis ---------------------------------------------------

    def _analyze(self, confl: list) -> Tuple[list, int, int]:
        """First-UIP learned clause, backjump level, and LBD."""
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        cur_level = len(self.trail_lim)
        learnt = [0]
        to_clear = []
        path = 0
        p = 0
        idx = len(trail) - 1
        c = confl
        while True:
            for k in range(0 if p == 0 else 1, len(c)):
                q = c[k]
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    to_clear.append(v)
                    if level[v] >= cur_level:
                        path += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            v = abs(p)
            c = reason[v]
            seen[v] = 0
            idx -= 1
            path -= 1
            if path <= 0:
                break
        learnt[0] = -p
        for v in to_clear:
            seen[v] = 0
        if len(learnt) == 1:
            return learnt, 0, 1
        # Move a max-level literal to the second watch slot.
        max_i = 1
        max_lvl = level[abs(learnt[1])]
        for k in range(2, len(learnt)):
            lvl = level[abs(learnt[k])]
            if lvl > max_lvl:
                max_lvl = lvl
                max_i = k
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        lbd = len({level[abs(q)] for q in learnt})
        return learnt, max_lvl, lbd

    def _analyze_final(self, failed: int) -> FrozenSet[int]:
        """Subset of assumption literals that together force the conflict."""
        core = {failed}
        if not self.trail_lim:
            return frozenset(core)
        seen = self.seen
        seen[abs(failed)] = 1
        for i in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            lit = self.trail[i]
            v = abs(lit)
            if seen[v]:
                r = self.reason[v]
                if r is None:
                    core.add(lit)
                else:
                    for q in r[1:]:
                        if self.level[abs(q)] > 0:
                            seen[abs(q)] = 1
                seen[v] = 0
        seen[abs(failed)] = 0
        return frozenset(core)

    # -- learned clause bookkeeping ------------------------------------------

    def _record_learnt(self, learnt: list, lbd: int) -> None:
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        self._attach(learnt)
        self.learnts.append(learnt)
        self.learnt_meta.append((lbd, self.learnt_seq))
        self.learnt_seq += 1
        self._enqueue(learnt[0], learnt)

    def _reduce_db(self) -> None:
        """Drop the weaker half of the learned clauses.

        Only called between queries, after solve has backtracked to decision
        level 0 (queries otherwise keep their assumption levels), with
        propagation complete; rebuilding the watch lists is safe there as
        long as watches land on non-false literals and rediscovered units are
        enqueued.
        """
        keep_order = sorted(
            range(len(self.learnts)),
            key=lambda i: (self.learnt_meta[i][0], len(self.learnts[i]),
                           -self.learnt_meta[i][1]))
        keep_idx = set(keep_order[:len(keep_order) // 2])
        self.learnts = [self.learnts[i] for i in keep_order if i in keep_idx]
        self.learnt_meta = [self.learnt_meta[i] for i in keep_order
                            if i in keep_idx]
        for ws in self.watches:
            del ws[:]
        for cl in self._orig:
            self._rewatch(cl)
        for cl in self.learnts:
            self._rewatch(cl)
        self.max_learnts = int(self.max_learnts * 1.3)

    def _rewatch(self, cl: list) -> None:
        k = 0
        for idx in range(len(cl)):
            if self._value(cl[idx]) != -1:
                cl[k], cl[idx] = cl[idx], cl[k]
                k += 1
                if k == 2:
                    break
        if k == 0:
            raise RuntimeError("formula contradicts itself at level 0")
        if len(cl) >= 2:
            self._attach(cl)
        if k == 1 and self._value(cl[0]) == 0:
            self._enqueue(cl[0], cl)

    # -- main search -----------------------------------------------------------

    def solve(self, active_groups: Optional[Iterable[int]] = None,
              assumptions: Sequence[int] = ()) -> SolveResult:
        """Decide the conjunction of the active groups plus assumptions.

        active_groups of None means every group. Assumption literals must
        reference problem variables. The trail stays in place afterwards;
        the next query keeps the levels of the assumption prefix it shares
        with this one.
        """
        if active_groups is None:
            actives = self.group_ids
            order = self.order
        else:
            actives = sorted(set(active_groups))
            branch = set()
            for g in actives:
                branch.update(self.group_vars[g])
            order = sorted(branch, key=self.rank.__getitem__)
        assump: List[int] = [self.selector_of[g] for g in actives]
        for l in assumptions:
            v = abs(l)
            if not 1 <= v <= self.num_vars:
                raise ValueError(f"assumption {l} references an unknown variable")
            assump.append(l)
        if len(self.learnts) > self.max_learnts:
            self._cancel_until(0)
            self._reduce_db()
        else:
            last = self.last_assumptions
            keep = 0
            limit = min(len(last), len(assump), len(self.trail_lim))
            while keep < limit and last[keep] == assump[keep]:
                keep += 1
            self._cancel_until(keep)
        self.last_assumptions = assump
        # Kept levels are assumption levels, opened before any branching, so
        # the branching scan restarts at the head of this query's order.
        self.order_head = 0
        try:
            return self._search(assump, order)
        except ResourceLimit:
            self._cancel_until(0)
            raise

    def _search(self, assumptions: List[int], order: List[int]) -> SolveResult:
        conflicts = 0
        budget = self.conflict_budget
        assigns = self.assigns
        nassump = len(assumptions)
        while True:
            confl = self._propagate()
            if confl is not None:
                conflicts += 1
                if conflicts > budget:
                    raise ResourceLimit(
                        f"conflict budget {budget} exceeded")
                if not self.trail_lim:
                    return SolveResult(sat=False, core=frozenset())
                learnt, bt, lbd = self._analyze(confl)
                self._cancel_until(bt)
                self._record_learnt(learnt, lbd)
                continue
            lvl = len(self.trail_lim)
            if lvl < nassump:
                p = assumptions[lvl]
                v = self._value(p)
                if v == 1:
                    self._new_level()     # placeholder level, keeps alignment
                    continue
                if v == -1:
                    return SolveResult(sat=False, core=self._analyze_final(p))
                self._new_level()
                self._enqueue(p, None)
                continue
            head = self.order_head
            n_order = len(order)
            while head < n_order and assigns[order[head]] != 0:
                head += 1
            self.order_head = head
            if head == n_order:
                model = {v: assigns[v] == 1 for v in range(1, self.num_vars + 1)}
                return SolveResult(sat=True, model=model)
            var = order[head]
            self._new_level()
            self._enqueue(-var, None)

    def core_groups(self, core_lits: Iterable[int]) -> List[int]:
        """Group ids, ascending, of the selector literals in an Unsat core."""
        base = self.num_vars + 1
        return sorted(self.group_ids[l - base] for l in core_lits if l >= base)


def solve(formula: GroupedCnf, active_groups: Optional[Iterable[int]] = None,
          assumptions: Sequence[int] = (), *,
          conflict_budget: int = 1_000_000) -> SolveResult:
    """One-shot convenience wrapper around a fresh Solver instance."""
    return Solver(formula, conflict_budget=conflict_budget).solve(
        active_groups, assumptions)


def verify_model(formula: GroupedCnf, active_groups: Optional[Iterable[int]],
                 assignment: Dict[int, bool]) -> bool:
    """True iff every clause of every active group has a true literal."""
    if active_groups is None:
        active_groups = sorted(formula.groups)
    for g in active_groups:
        for clause in formula.groups[g]:
            if not any(assignment[l] if l > 0 else not assignment[-l]
                       for l in clause):
                return False
    return True
