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
Learned clauses live as long as the solver.
Selectors are numbered num_vars+1, num_vars+2, ... in ascending group id
order, so a core maps back to group ids by position (core_groups). Every
stored clause holds a selector, so no conflict ever reaches level 0.

Consecutive queries share their assumption trail (Hickey & Bacchus,
"Speeding Up Assumption-Based SAT", SAT 2019): a query keeps the decision
levels of the longest common prefix of its assumption list and the previous
one, and only backtracks and re-assumes past it. The selectors come first,
in ascending group order, so queries over the same active groups share
every selector level. A query whose assumption is already false at a kept
level is answered Unsat there, without a search.

Branching picks the unassigned problem variable with the highest occurrence
count in the original formula, ties broken by lowest variable id, and tries
false first. Every query names its active groups and branches only on their
variables (assumptions assign their own variables); a caller that wants the
whole formula names Solver.group_ids. Selector variables are never branched
on. Once the branching variables are assigned and propagation is quiet,
every clause of an active group has all its literals assigned and none
falsified, so it is satisfied; setting the unassigned selectors false
satisfies every other guarded clause and every learned clause that mentions
an inactive group, so the remaining problem variables can take any value,
and the model leaves them out.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .cnf import GroupedCnf


class ResourceLimit(Exception):
    """The per-call conflict budget was exceeded."""


@dataclass(frozen=True)
class _SolveResult:
    """Sat with a model over the variables the query decided, or Unsat with
    the subset of assumption literals (selectors included) that clash.

    A query decides only the variables of its active groups and its
    assumptions, and its model holds exactly those. Whatever values the
    absent variables take, it satisfies every active group and the
    assumptions; the inactive groups may be violated.
    """
    sat: bool
    model: Optional[Dict[int, bool]] = None
    core: Optional[FrozenSet[int]] = None


class Solver:
    """CDCL solver bound to one GroupedCnf for its whole life.

    The solver owns the formula's clause groups: groups (group id -> its
    clauses), group_ids (ascending), group_vars (group id -> its ascending
    variables), labels (group id -> the count of true variables its
    exact-count clauses assert, or None for a formula without labels),
    var_groups (variable -> the ascending ids of the groups that mention it)
    and num_vars are what callers such as core extraction read.
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
        nv = self.num_vars + len(self.selector_of)
        self.assigns = [0] * (nv + 1)      # 0 unassigned, 1 true, -1 false
        self.level = [0] * (nv + 1)
        self.reason: List[Optional[list]] = [None] * (nv + 1)
        self.seen = bytearray(nv + 1)
        # Literal l -> the clauses watching it, at index l: a negative
        # literal counts from the end of the list.
        self.watches: List[list] = [[] for _ in range(2 * nv + 1)]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.head_stack: List[int] = []
        self.qhead = 0
        self.order_head = 0
        self.last_assumptions: List[int] = []
        # The last active set: (argument, branching order, selector
        # assumptions in ascending group order).
        self._last_active: Tuple[tuple, List[int], List[int]] = ((), [], [])
        # One sweep over the clauses: watches, the group-variable indexes
        # and occurrence counts. A stored clause is its guard -selector and
        # then its problem literals, watched on its first two literals; the
        # guard of an empty clause alone is a level-0 fact.
        watches = self.watches
        occ = [0] * (self.num_vars + 1)
        self.groups = groups = formula.groups
        self.labels = formula.labels
        # Group id -> the ascending variables its clauses mention, and
        # variable -> the ascending ids of the groups that mention it.
        self.group_vars: Dict[int, List[int]] = {}
        self.var_groups: List[List[int]] = [[] for _ in occ]
        group_vars, var_groups = self.group_vars, self.var_groups
        for g in self.group_ids:
            guard = -self.selector_of[g]
            clauses = groups[g]
            for clause in clauses:
                cl = [guard, *clause]
                if len(cl) > 1:
                    watches[cl[0]].append(cl)
                    watches[cl[1]].append(cl)
                elif self._value(guard) == 0:
                    self._enqueue(guard, None)
            vs = list(map(abs, chain.from_iterable(clauses)))
            for v in vs:
                occ[v] += 1
            group_vars[g] = gv = sorted(set(vs))
            for v in gv:
                var_groups[v].append(g)
        # Variable -> its position in the branching order: most occurrences
        # first, ties by lowest id (the sort is stable).
        neg_occ = [-c for c in occ]
        rank = [0] * (self.num_vars + 1)
        for i, v in enumerate(sorted(range(1, self.num_vars + 1),
                                     key=neg_occ.__getitem__)):
            rank[v] = i
        self.rank = rank

    # -- clause plumbing ---------------------------------------------------

    def _attach(self, cl: list) -> None:
        # Callers only attach clauses with >= 2 literals.
        self.watches[cl[0]].append(cl)
        self.watches[cl[1]].append(cl)

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
        cur_level = len(self.trail_lim)
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            fal = -p
            ws = watches[fal]
            i = j = 0
            end = len(ws)
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
                for k in range(2, len(cl)):
                    q = cl[k]
                    if (assigns[q] if q > 0 else -assigns[-q]) != -1:
                        cl[1] = q
                        cl[k] = fal
                        watches[q].append(cl)
                        break
                else:
                    # No new watch: cl is unit or falsified.
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

    def _analyze(self, confl: list) -> Tuple[list, int]:
        """First-UIP learned clause and backjump level."""
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
            return learnt, 0
        # Move a max-level literal to the second watch slot.
        max_i = 1
        max_lvl = level[abs(learnt[1])]
        for k in range(2, len(learnt)):
            lvl = level[abs(learnt[k])]
            if lvl > max_lvl:
                max_lvl = lvl
                max_i = k
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, max_lvl

    def _analyze_final(self, failed: int) -> FrozenSet[int]:
        """The core of a literal that is false on the trail: failed and the
        assumption literals whose propagation falsified it."""
        core = {failed}
        level = self.level
        if level[abs(failed)] == 0:
            return frozenset(core)
        seen = self.seen
        reason = self.reason
        trail = self.trail
        seen[abs(failed)] = 1
        pending = 1      # marked variables not yet reached by the walk
        i = len(trail) - 1
        while pending:
            lit = trail[i]
            i -= 1
            v = abs(lit)
            if not seen[v]:
                continue
            seen[v] = 0
            pending -= 1
            r = reason[v]
            if r is None:
                core.add(lit)
                continue
            for q in r[1:]:
                u = abs(q)
                if not seen[u] and level[u] > 0:
                    seen[u] = 1
                    pending += 1
        return frozenset(core)

    # -- main search -----------------------------------------------------------

    def solve(self, active_groups: Iterable[int],
              assumptions: Sequence[int] = ()) -> _SolveResult:
        """Decide the conjunction of the active groups plus assumptions.

        Assumption literals must reference problem variables. The trail
        stays in place afterwards; the next query keeps the levels of the
        assumption prefix it shares with this one. An active set equal to
        the last one reuses its branching order and selector assumptions.
        """
        key = tuple(active_groups)
        extra = list(assumptions)
        for l in extra:
            if not 1 <= abs(l) <= self.num_vars:
                raise ValueError(f"assumption {l} references an unknown variable")
        last_key, order, sel = self._last_active
        if key != last_key:
            actives = sorted(set(key))
            group_vars = self.group_vars
            branch = set()
            for g in actives:
                branch.update(group_vars[g])
            order = sorted(branch, key=self.rank.__getitem__)
            sel = [self.selector_of[g] for g in actives]
            self._last_active = (key, order, sel)
        assump = sel + extra
        last = self.last_assumptions
        limit = min(len(last), len(assump), len(self.trail_lim))
        keep = 0
        while keep < limit and last[keep] == assump[keep]:
            keep += 1
        self._cancel_until(keep)
        self.last_assumptions = assump
        # Kept levels are assumption levels, opened before any branching, so
        # the branching scan restarts at the head of this query's order.
        self.order_head = 0
        try:
            res = self._search(assump, order)
        except ResourceLimit:
            self._cancel_until(0)
            raise
        if res.sat:
            # The assumptions decide their variables too.
            for l in extra:
                res.model[abs(l)] = l > 0
        return res

    def _search(self, assumptions: List[int], order: List[int]) -> _SolveResult:
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
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)      # a level-0 fact
                else:
                    self._attach(learnt)
                    self._enqueue(learnt[0], learnt)
                continue
            lvl = len(self.trail_lim)
            if lvl < nassump:
                p = assumptions[lvl]
                v = self._value(p)
                if v == -1:
                    return _SolveResult(sat=False, core=self._analyze_final(p))
                self._new_level()     # a placeholder level if p is true
                if v == 0:
                    self._enqueue(p, None)
                continue
            head = self.order_head
            n_order = len(order)
            while head < n_order and assigns[order[head]] != 0:
                head += 1
            self.order_head = head
            if head == n_order:
                model = {v: assigns[v] == 1 for v in order}
                return _SolveResult(sat=True, model=model)
            var = order[head]
            self._new_level()
            self._enqueue(-var, None)

    def core_groups(self, core_lits: Iterable[int]) -> List[int]:
        """Group ids, ascending, of the selector literals in an Unsat core."""
        base = self.num_vars + 1
        return sorted(self.group_ids[l - base] for l in core_lits if l >= base)
