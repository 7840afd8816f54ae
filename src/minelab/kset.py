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

The search runs on bitmasks, under the same pruning. Each row's support is
one int column mask R, and each row's neighbours one int row mask. Connected
row sets come from the ESU scheme (Wernicke, TCBB 2006): each set is visited
once, rooted at its lowest row. Each set is evaluated once for all its
2^(s-1) sign vectors, from overlap counts. The union's columns split into
atoms (the columns covered by exactly the rows T), c_j is constant on an
atom, and atom sizes follow from the intersection sizes |R_U| by
inclusion-exclusion. So the maximum is sum_U w_U |R_U| with weights fixed by
(s, sign vector), and the minimum is the signed sum of row sizes less the
maximum; for three or more rows one dot product packs every gap of a set.
Each set size has one evaluator. A root's pairs are a plain loop over closed
forms. Each pair's triples are an inner loop that adds three intersection
sizes to a packed base summed once per pair and a term summed once per row.
Only k >= 4 keeps an explicit stack: triples are pushed onto it, and sets of
four or more rows take the dot product over their full vector of |R_U|.
Column masks are formed only for tight combinations; when every coefficient
cancels they are empty, so such a combination forces nothing. The weight
tables hold 4^s packed bytes per set size s, which suits the small k the
policies use.
"""
from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import List, Optional, Tuple

from .board import Frontiers, GameState, frontiers


def build_constraints(state: GameState) -> Frontiers:
    """The frontier system the k-set search reads: frontiers(state)."""
    return frontiers(state)


@lru_cache(maxsize=None)
def _sign_table(s: int, width: int) -> Tuple[tuple, int, tuple]:
    """Inclusion-exclusion weights for row sets of s rows.

    A set is read as the vector v of |R_U| for every bit set U of its rows
    (R_U the intersection of the rows in U; U = 0 has weight 0), followed
    by the rows' labels. Sign vector b (first sign positive, bit t-1 set
    when row t is negative) has two gaps, r minus the maximum and r minus
    the minimum, both linear in v. v . cols + bias packs every gap plus
    half = 2^(8 width - 1) into its own width-byte field, gap 2b at field
    2b and gap 2b+1 next to it, so one dot product yields every gap of the
    set. atoms[b] holds the row bit sets T whose columns get a positive and
    a negative coefficient under b.
    """
    tests = []
    atoms = []
    for bits in range(1 << (s - 1)):
        signs = [1] + [-1 if bits >> (t - 1) & 1 else 1 for t in range(1, s)]
        coef = [sum(signs[t] for t in range(s) if u >> t & 1)
                for u in range(1 << s)]
        # The maximum sums max(c_T, 0) over the atoms; Moebius inversion
        # over the subset lattice moves it onto the intersection sizes.
        w = [max(c, 0) for c in coef]
        for t in range(s):
            for u in range(1 << s):
                if u >> t & 1:
                    w[u] -= w[u ^ (1 << t)]
        # The minimum is the signed sum of row sizes less the maximum.
        net = [0] * (1 << s)
        for t in range(s):
            net[1 << t] = signs[t]
        tests.append([-x for x in w] + signs)
        tests.append([x - y for x, y in zip(w, net)] + signs)
        atoms.append((tuple(u for u in range(1, 1 << s) if coef[u] > 0),
                      tuple(u for u in range(1, 1 << s) if coef[u] < 0)))
    shift = 8 * width
    cols = tuple(sum(t[i] << (shift * f) for f, t in enumerate(tests))
                 for i in range(len(tests[0])))
    bias = sum(1 << (shift * f + shift - 1) for f in range(len(tests)))
    return cols, bias, tuple(atoms)


def _atom_masks(row_masks: List[int]) -> List[int]:
    """For every bit set T of the rows, the columns covered by exactly the
    rows in T (T = 0 stands for every other column)."""
    atoms = [-1]
    for r in row_masks:
        atoms = [x & ~r for x in atoms] + [x & r for x in atoms]
    return atoms


def _tight(packed: int, row_masks: List[int], signed_atoms: tuple,
           shift: int) -> Tuple[int, int]:
    """The (ones, zeros) column masks a set of rows forces, read from its
    packed gaps: under sign vector b, r is the maximum when field 2b holds
    half and the minimum when field 2b + 1 does."""
    field = (1 << shift) - 1
    half = 1 << (shift - 1)
    atoms = _atom_masks(row_masks)
    ones = zeros = 0
    for pos, neg in signed_atoms:
        if packed & field == half:                   # r = maximum
            for u in pos:
                ones |= atoms[u]
            for u in neg:
                zeros |= atoms[u]
        elif packed >> shift & field == half:        # r = minimum
            for u in pos:
                zeros |= atoms[u]
            for u in neg:
                ones |= atoms[u]
        packed >>= 2 * shift
    return ones, zeros


def kset_infer(fr: Frontiers, k: int, *,
               stats: Optional[dict] = None) -> List[Tuple[int, int]]:
    """Every assignment forced by a signed combination of <= k rows.

    Only connected row sets are enumerated; on consistent systems they
    force exactly what every row set forces (see the module docstring).
    Rows are column bitmasks, and each connected set is evaluated once for
    all its sign vectors from the sizes of its rows' intersections.
    Returns (col, value) pairs, value 1 for mined and 0 for safe, where
    col indexes fr.outer; deduplicated and sorted. The stats dict, when
    given, receives the number of (row set, sign vector) pairs enumerated
    under the key "evaluated".
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    labels = fr.labels
    rows: List[int] = []
    for support in fr.supports:
        mask = 0
        for j in support:
            mask |= 1 << j
        rows.append(mask)
    m = len(rows)
    adj = [0] * m
    if k > 1:
        # Rows are adjacent when they share a column.
        col_rows = [0] * len(fr.outer)
        for i, support in enumerate(fr.supports):
            bit = 1 << i
            for j in support:
                col_rows[j] |= bit
        for i, support in enumerate(fr.supports):
            nb = 0
            for j in support:
                nb |= col_rows[j]
            adj[i] = nb & ~(1 << i)
    # No gap exceeds span in size, so gap + half fills a field of width
    # bytes without a carry once span < half.
    span = min(k, m) * (max(map(int.bit_count, rows), default=0)
                        + max(map(abs, labels), default=0))
    width = 1
    while span >= 1 << (8 * width - 1):
        width *= 2
    shift = 8 * width
    if k > 2:
        # A triple (A, B, C) packs v . cols3 + bias3. The terms of the pair
        # (A, B) are summed once per pair, those of C alone once per row;
        # cols3[0], the weight of U = 0, is 0.
        cols3, bias3, signed3 = _sign_table(3, width)
        c_a, c_b, c_ab, c_c, c_ac, c_bc, c_abc, c_e, c_f, c_g = cols3[1:]
        solo = [c_c * r.bit_count() + c_g * g for r, g in zip(rows, labels)]
        bytes3 = width << 3
    evaluated = m
    ones = zeros = 0
    for root in range(m):
        ra = rows[root]
        e = labels[root]
        size = ra.bit_count()
        if e == size:
            ones |= ra
        elif e == 0:
            zeros |= ra
        above = -1 << (root + 1)
        ext = adj[root] & above
        if not ext:
            continue
        evaluated += ext.bit_count() << 1
        nb = adj[root] | (1 << root)
        # Sets of four or more rows: a stack entry is a set of fewer than
        # k rows, already evaluated: its ESU extension and closed
        # neighbourhood row masks, R_U and |R_U| for every bit set U of its
        # rows (R_0 = every column), and its labels.
        stack = []
        while ext:
            bit = ext & -ext
            ext ^= bit
            b = bit.bit_length() - 1
            rb = rows[b]
            f = labels[b]
            ab = ra & rb
            size_b = rb.bit_count()
            both = ab.bit_count()
            # (+, +): maximum |A| + |B|, minimum 0.
            # (+, -): maximum |A \ B|, minimum -|B \ A|.
            if e + f == size + size_b:
                ones |= ra | rb
            elif e + f == 0:
                zeros |= ra | rb
            if e - f == size - both:
                ones |= ra & ~rb
                zeros |= rb & ~ra
            elif e - f == both - size_b:
                ones |= rb & ~ra
                zeros |= ra & ~rb
            if k < 3:
                continue
            ext2 = ext | (adj[b] & above & ~nb)
            if not ext2:
                continue
            evaluated += ext2.bit_count() << 2
            nb2 = nb | adj[b]
            base = (c_a * size + c_b * size_b + c_ab * both + c_e * e
                    + c_f * f + bias3)
            while ext2:
                bit = ext2 & -ext2
                ext2 ^= bit
                c = bit.bit_length() - 1
                rc = rows[c]
                ac = ra & rc
                bc = rb & rc
                abc = ab & rc
                packed = (base + solo[c] + c_ac * ac.bit_count()
                          + c_bc * bc.bit_count() + c_abc * abc.bit_count())
                if k > 3:
                    stack.append((
                        ext2 | (adj[c] & above & ~nb2), nb2 | adj[c],
                        [-1, ra, rb, ab, rc, ac, bc, abc],
                        [0, size, size_b, both, rc.bit_count(),
                         ac.bit_count(), bc.bit_count(), abc.bit_count()],
                        [e, f, labels[c]]))
                # A zero gap shows as a field whose top byte is 0x80.
                if 0x80 in packed.to_bytes(bytes3, "little"):
                    o, z = _tight(packed, [ra, rb, rc], signed3, shift)
                    ones |= o
                    zeros |= z
        while stack:
            ext, nb, inter, counts, labs = stack.pop()
            s = len(labs) + 1
            evaluated += ext.bit_count() << (s - 1)
            cols, bias, signed_atoms = _sign_table(s, width)
            while ext:
                bit = ext & -ext
                ext ^= bit
                w = bit.bit_length() - 1
                rw = rows[w]
                f = labels[w]
                if s < k:
                    new = [x & rw for x in inter]
                    child_counts = counts + [x.bit_count() for x in new]
                    stack.append((ext | (adj[w] & above & ~nb), nb | adj[w],
                                  inter + new, child_counts, labs + [f]))
                else:
                    child_counts = counts + [(x & rw).bit_count()
                                             for x in inter]
                v = child_counts + labs
                v.append(f)
                packed = sum(map(mul, cols, v)) + bias
                if 0x80 in packed.to_bytes(width << s, "little"):
                    row_masks = [inter[1 << t] for t in range(s - 1)]
                    row_masks.append(rw)
                    o, z = _tight(packed, row_masks, signed_atoms, shift)
                    ones |= o
                    zeros |= z
    if stats is not None:
        stats["evaluated"] = evaluated
    out = []
    decided = ones | zeros
    while decided:
        bit = decided & -decided
        decided ^= bit
        j = bit.bit_length() - 1
        if zeros & bit:
            out.append((j, 0))
        if ones & bit:
            out.append((j, 1))
    return out
