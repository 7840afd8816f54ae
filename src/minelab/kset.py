"""Polynomial-time k-set search over frontier counting constraints.

Each inner-frontier site i yields the linear constraint sum_j a_ij x_j = e_i,
read from frontiers(): a_ij = 1 exactly for the outer indices j in
Frontiers.supports[i], and e_i = Frontiers.labels[i]. A k-set combination
picks up to k rows and signs (-1)^{b_l}, forms c_j = sum of signed rows and
r = sum of signed labels, and compares r against the extreme values the left
side can take over x in {0,1}^n: when r equals the maximum, every positive
c_j forces x_j = 1 and every negative c_j forces x_j = 0; when r equals the
minimum, the mirror holds.

Enumeration skips combinations that provably add nothing:

 * repeated rows are never picked (opposite signs cancel to 0 = 0, equal
   signs rescale one constraint beyond the ±1 regime);
 * the first sign is fixed positive, since negating every sign swaps the
   min and max cases and forces the same values;
 * only connected row sets are visited (rows adjacent when their supports
   share a column). A disconnected combination splits into independent
   blocks, is tight only when every block is tight on its own, and then
   forces exactly what the blocks force, so on consistent systems the
   connected union equals the union over every row set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .board import Frontiers, GameState, frontiers


@dataclass(frozen=True, order=True)
class ForcedAssignment:
    col: int
    value: int


def build_constraints(state: GameState) -> Frontiers:
    """The frontier system the k-set search reads: frontiers(state)."""
    return frontiers(state)


def _row_adjacency(supports: Sequence[Tuple[int, ...]],
                   n_cols: int) -> List[set]:
    """Rows are adjacent when their supports share a column."""
    by_col: List[List[int]] = [[] for _ in range(n_cols)]
    for i, sup in enumerate(supports):
        for j in sup:
            by_col[j].append(i)
    adj: List[set] = [set() for _ in range(len(supports))]
    for rows in by_col:
        for x in rows:
            for y in rows:
                if x != y:
                    adj[x].add(y)
    return adj


def _connected_subsets(adj: List[set], m: int, k: int) -> Iterator[Tuple[int, ...]]:
    """Every connected row set of size 1..k, each exactly once (ESU scheme)."""
    for root in range(m):
        sub = [root]
        ext = sorted(u for u in adj[root] if u > root)
        yield from _esu(adj, sub, ext, root, k)


def _esu(adj: List[set], sub: List[int], ext: List[int], root: int,
         k: int) -> Iterator[Tuple[int, ...]]:
    yield tuple(sub)
    if len(sub) == k:
        return
    seen_nb = set().union(*(adj[v] for v in sub)) | set(sub)
    for idx, w in enumerate(ext):
        new_ext = ext[idx + 1:] + sorted(
            u for u in adj[w] if u > root and u not in seen_nb)
        sub.append(w)
        yield from _esu(adj, sub, new_ext, root, k)
        sub.pop()


def kset_infer(fr: Frontiers, k: int, *,
               stats: Optional[dict] = None) -> List[ForcedAssignment]:
    """Every assignment forced by a signed combination of <= k rows.

    Only connected row sets are enumerated; on consistent systems they
    force exactly what every row set forces (see the module docstring).
    ForcedAssignment.col indexes fr.outer. Deduplicated and sorted by
    (col, value). The stats dict, when given, receives the number of
    (row set, sign vector) pairs enumerated under the key "evaluated".
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = len(fr.inner)
    supports = fr.supports
    sizes = [len(s) for s in supports]
    labels = fr.labels
    evaluated = 0
    forced: set = set()
    for sub in _connected_subsets(_row_adjacency(supports, len(fr.outer)),
                                  m, k):
        s = len(sub)
        for bits in range(1 << (s - 1)):      # first sign fixed positive
            evaluated += 1
            r = labels[sub[0]]
            hi_bound = sizes[sub[0]]
            lo_bound = 0
            for t in range(1, s):
                if (bits >> (t - 1)) & 1:
                    r -= labels[sub[t]]
                    lo_bound -= sizes[sub[t]]
                else:
                    r += labels[sub[t]]
                    hi_bound += sizes[sub[t]]
            # Tightness needs r at an attainable extreme; the support sizes
            # bound both extremes, so off-range r can be dropped unevaluated.
            if not (0 <= r <= hi_bound or lo_bound <= r <= 0):
                continue
            c: Dict[int, int] = {}
            for t in range(s):
                delta = -1 if t and (bits >> (t - 1)) & 1 else 1
                for j in supports[sub[t]]:
                    c[j] = c.get(j, 0) + delta
            hi = 0
            lo = 0
            for v in c.values():
                if v > 0:
                    hi += v
                else:
                    lo += v
            if hi == lo:
                continue
            if r == hi:
                for j, v in c.items():
                    if v > 0:
                        forced.add((j, 1))
                    elif v < 0:
                        forced.add((j, 0))
            elif r == lo:
                for j, v in c.items():
                    if v > 0:
                        forced.add((j, 0))
                    elif v < 0:
                        forced.add((j, 1))
    if stats is not None:
        stats["evaluated"] = evaluated
    return [ForcedAssignment(j, v) for j, v in sorted(forced)]
