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

A query's assumption list is its selectors, in ascending group order, then
its own assumptions. A query over the same active groups as the last one
keeps their selector levels and re-assumes only its own assumptions; any
other query starts from level 0. A kept level that already falsifies an own
assumption ends the search at its first step, with an Unsat answer. The
final core of an Unsat answer is found by walking reasons back from the
failed literal to the assumptions that imply it.

Values are kept per literal: assigns[l] is 1 (true), -1 (false) or 0
(unassigned), a negative literal counting from the end of the list, as the
watch lists do, so a literal's value is one index.

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

from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .cnf import GroupedCnf


class ResourceLimit(Exception):
    """The per-call conflict budget was exceeded."""


class _SolveResult:
    """Sat with a model over the variables the query decided, or Unsat with
    the subset of assumption literals (selectors included) that clash.

    A query decides only the variables of its active groups and its
    assumptions, and its model holds exactly those. Whatever values the
    absent variables take, it satisfies every active group and the
    assumptions; the inactive groups may be violated.
    """
    __slots__ = ("sat", "model", "core")

    def __init__(self, sat: bool, model: Optional[Dict[int, bool]] = None,
                 core: Optional[FrozenSet[int]] = None):
        self.sat = sat
        self.model = model
        self.core = core


class Solver:
    """CDCL solver bound to one GroupedCnf for its whole life.

    The solver owns the formula's clause groups: groups (group id -> its
    clauses), group_ids (ascending), group_vars (group id -> its ascending
    variables), labels (group id -> the count of true variables its
    exact-count clauses assert, or None for a formula without labels),
    var_groups (variable -> the ascending ids of the groups that mention it)
    and num_vars are what callers such as core extraction read.
    Queries with different active groups and assumptions share learned
    clauses. solve leaves the trail of the last query in place, and the
    next query keeps its selector levels if it names the same active
    groups, and no level otherwise. Instances are single-threaded; build
    one per formula.
    """

    def __init__(self, formula: GroupedCnf, *, conflict_budget: int = 1_000_000):
        self.conflict_budget = conflict_budget
        self.num_vars = formula.num_vars
        self.group_ids = sorted(formula.groups)
        self.selector_of = {g: self.num_vars + 1 + i
                            for i, g in enumerate(self.group_ids)}
        nv = self.num_vars + len(self.selector_of)
        # Literal l -> 1 true, -1 false, 0 unassigned, at index l: a
        # negative literal counts from the end of the list.
        self.assigns = [0] * (2 * nv + 1)
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
                elif self.assigns[guard] == 0:
                    self.assigns[guard] = 1
                    self.assigns[-guard] = -1
                    self.trail.append(guard)
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

    # -- backtracking -----------------------------------------------------------

    def _cancel_until(self, lvl: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= lvl:
            return
        assigns = self.assigns
        trail = self.trail
        bound = trail_lim[lvl]
        for l in trail[bound:]:
            assigns[l] = 0
            assigns[-l] = 0
        del trail[bound:]
        del trail_lim[lvl:]
        self.order_head = self.head_stack[lvl]
        del self.head_stack[lvl:]
        self.qhead = bound

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
        assumption literals whose propagation falsified it, found by
        walking reasons back from it."""
        core = {failed}
        level = self.level
        v = abs(failed)
        if level[v] == 0:
            return frozenset(core)
        reason = self.reason
        assigns = self.assigns
        seen = {v}
        stack = [v]
        while stack:
            v = stack.pop()
            r = reason[v]
            if r is None:
                core.add(v if assigns[v] == 1 else -v)
                continue
            for q in r[1:]:
                u = q if q > 0 else -q
                if u not in seen and level[u] > 0:
                    seen.add(u)
                    stack.append(u)
        return frozenset(core)

    # -- main search -----------------------------------------------------------

    def solve(self, active_groups: Iterable[int],
              assumptions: Sequence[int] = ()) -> _SolveResult:
        """Decide the conjunction of the active groups plus assumptions.

        Assumption literals must reference problem variables. The trail
        stays in place afterwards. An active set equal to the last one
        keeps its selector levels and reuses its branching order and
        selector assumptions; any other starts from level 0.
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
        self._cancel_until(len(sel) if key == last_key else 0)
        # Kept levels are selector levels, opened before any branching, so
        # the branching scan restarts at the head of this query's order.
        self.order_head = 0
        try:
            res = self._search(sel + extra, order)
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
        level = self.level
        reason = self.reason
        watches = self.watches
        trail = self.trail
        trail_lim = self.trail_lim
        head_stack = self.head_stack
        nassump = len(assumptions)
        n_order = len(order)
        qhead = self.qhead
        while True:
            # Propagate the trail from qhead; confl is a falsified clause.
            confl = None
            lvl = len(trail_lim)
            while qhead < len(trail):
                fal = -trail[qhead]
                qhead += 1
                ws = watches[fal]
                j = 0
                # ws gains no clause during its own scan: a new watch is
                # never false.
                for i, cl in enumerate(ws):
                    if cl[0] == fal:
                        cl[0] = cl[1]
                        cl[1] = fal
                    other = cl[0]
                    ov = assigns[other]
                    if ov == 1:
                        ws[j] = cl
                        j += 1
                        continue
                    for k in range(2, len(cl)):
                        q = cl[k]
                        if assigns[q] != -1:
                            cl[1] = q
                            cl[k] = fal
                            watches[q].append(cl)
                            break
                    else:
                        # No new watch: cl is unit or falsified.
                        ws[j] = cl
                        j += 1
                        if ov == -1:
                            confl = cl
                            del ws[j:i + 1]
                            break
                        assigns[other] = 1
                        assigns[-other] = -1
                        v = other if other > 0 else -other
                        level[v] = lvl
                        reason[v] = cl
                        trail.append(other)
                else:
                    # The clauses that moved their watch leave ws.
                    del ws[j:]
                    continue
                break       # a conflict ends propagation
            if confl is not None:
                conflicts += 1
                if conflicts > budget:
                    self.qhead = len(trail)
                    raise ResourceLimit(
                        f"conflict budget {budget} exceeded")
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                qhead = len(trail)
                p = learnt[0]
                if len(learnt) == 1:
                    r = None                    # a level-0 fact
                else:
                    watches[p].append(learnt)
                    watches[learnt[1]].append(learnt)
                    r = learnt
                assigns[p] = 1
                assigns[-p] = -1
                v = p if p > 0 else -p
                level[v] = bt
                reason[v] = r
                trail.append(p)
                continue
            self.qhead = qhead
            if lvl < nassump:
                p = assumptions[lvl]
                value = assigns[p]
                if value == -1:
                    return _SolveResult(False, None, self._analyze_final(p))
                # A placeholder level if p is already true.
                trail_lim.append(len(trail))
                head_stack.append(self.order_head)
                if value == 0:
                    assigns[p] = 1
                    assigns[-p] = -1
                    v = p if p > 0 else -p
                    level[v] = lvl + 1
                    reason[v] = None
                    trail.append(p)
                continue
            head = self.order_head
            while head < n_order and assigns[order[head]] != 0:
                head += 1
            self.order_head = head
            if head == n_order:
                return _SolveResult(True, {v: assigns[v] == 1 for v in order})
            var = order[head]
            trail_lim.append(len(trail))
            head_stack.append(head)
            assigns[var] = -1
            assigns[-var] = 1
            level[var] = lvl + 1
            reason[var] = None
            trail.append(-var)

    def core_groups(self, core_lits: Iterable[int]) -> List[int]:
        """Group ids, ascending, of the selector literals in an Unsat core."""
        base = self.num_vars + 1
        return sorted(self.group_ids[l - base] for l in core_lits if l >= base)
