"""Frontier constraints as a group-tagged CNF formula.

Each outer-frontier site gets one Boolean variable (true iff mined), numbered
1..num_vars in row-major frontier order. Each inner-frontier site i
contributes one clause group F_i encoding "exactly e_i of my covered
unflagged neighbors are mines". The whole formula is the conjunction of the
groups; group identity is what minimal-core extraction works over.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .board import GameState, Site, frontiers

Clause = Tuple[int, ...]


class InfeasibleLabel(Exception):
    """An effective label outside [0, #neighbors]; the state is inconsistent."""


@dataclass
class GroupedCnf:
    """A CNF split into clause groups.

    A frontier formula has one group per inner-frontier site, GroupId g
    for frontiers().inner[g], and var_sites maps VarId v to its outer site
    var_sites[v - 1].
    """
    num_vars: int
    groups: Dict[int, List[Clause]]
    var_sites: Tuple[Site, ...] = ()

    def num_clauses(self) -> int:
        return sum(len(cs) for cs in self.groups.values())


def encode_exact_count(e: int, vars: Sequence[int]) -> List[Clause]:
    """Clauses satisfied exactly when e of the given variables are true.

    Binomial encoding: one all-negative clause per (e+1)-subset rules out
    e+1 trues, one all-positive clause per (m-e+1)-subset rules out m-e+1
    falses. No auxiliary variables, so clause groups stay attributable.
    """
    m = len(vars)
    if not 0 <= e <= m:
        raise InfeasibleLabel(f"label {e} infeasible for {m} variables")
    clauses: List[Clause] = list(
        itertools.combinations([-v for v in vars], e + 1))
    clauses.extend(itertools.combinations(vars, m - e + 1))
    return clauses


def build_formula(state: GameState) -> GroupedCnf:
    """Group-tagged CNF for the current frontiers.

    One group per inner site, over the variables of its support (VarId =
    outer index + 1); variables are shared across groups wherever
    neighborhoods overlap. Empty frontiers give a formula with no groups
    and no variables.
    """
    fr = frontiers(state)
    groups: Dict[int, List[Clause]] = {}
    for gid, (isite, support, e) in enumerate(
            zip(fr.inner, fr.supports, fr.labels)):
        try:
            groups[gid] = encode_exact_count(e, [j + 1 for j in support])
        except InfeasibleLabel as exc:
            raise InfeasibleLabel(f"inner site {isite}: {exc}") from None
    return GroupedCnf(num_vars=len(fr.outer), groups=groups,
                      var_sites=fr.outer)


def export_dimacs(cnf: GroupedCnf) -> str:
    """Standard DIMACS CNF: `p cnf V C`, zero-terminated clauses."""
    lines = [f"p cnf {cnf.num_vars} {cnf.num_clauses()}"]
    for gid in sorted(cnf.groups):
        for clause in cnf.groups[gid]:
            lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def export_gcnf(cnf: GroupedCnf) -> str:
    """Grouped CNF: `p gcnf V C G`, clauses prefixed by 1-based `{g}`."""
    gids = sorted(cnf.groups)
    lines = [f"p gcnf {cnf.num_vars} {cnf.num_clauses()} {len(gids)}"]
    for out_g, gid in enumerate(gids, start=1):
        for clause in cnf.groups[gid]:
            lines.append("{%d} " % out_g + " ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> GroupedCnf:
    """Parse DIMACS CNF into a single-group formula (group 0)."""
    num_vars, clauses = _parse_clause_lines(text, expect="cnf")
    return GroupedCnf(num_vars=num_vars, groups={0: [c for _, c in clauses]})


def parse_gcnf(text: str) -> GroupedCnf:
    """Parse GCNF; group tags `{g}` become GroupIds g - 1."""
    num_vars, clauses = _parse_clause_lines(text, expect="gcnf")
    groups: Dict[int, List[Clause]] = {}
    for g, clause in clauses:
        groups.setdefault(g - 1, []).append(clause)
    return GroupedCnf(num_vars=num_vars, groups=groups)


def _parse_clause_lines(text: str, expect: str):
    header = None
    clauses = []
    declared_groups = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            want = 4 if expect == "cnf" else 5
            if len(parts) != want or parts[1] != expect:
                raise ValueError(f"line {lineno}: bad {expect} header {line!r}")
            counts = _ints(parts[2:], lineno)
            if min(counts) < 0:
                raise ValueError(f"line {lineno}: negative count in {line!r}")
            header = (counts[0], counts[1])
            if expect == "gcnf":
                declared_groups = counts[2]
            continue
        if header is None:
            raise ValueError(f"line {lineno}: clause before header")
        g = 1
        if expect == "gcnf":
            if not line.startswith("{"):
                raise ValueError(f"line {lineno}: missing group tag")
            tag, _, rest = line.partition("}")
            g = _ints([tag[1:]], lineno)[0]
            if not 1 <= g <= declared_groups:
                raise ValueError(f"line {lineno}: group {g} out of range")
            line = rest.strip()
        lits = _ints(line.split(), lineno)
        if not lits or lits[-1] != 0:
            raise ValueError(f"line {lineno}: clause not zero-terminated")
        clause = tuple(lits[:-1])
        if not clause:
            raise ValueError(f"line {lineno}: empty clause")
        if any(abs(l) > header[0] or l == 0 for l in clause):
            raise ValueError(f"line {lineno}: literal out of range")
        clauses.append((g, clause))
    if header is None:
        raise ValueError("no problem header found")
    if len(clauses) != header[1]:
        raise ValueError(f"declared {header[1]} clauses, found {len(clauses)}")
    return header[0], clauses


def _ints(tokens: List[str], lineno: int) -> List[int]:
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"line {lineno}: expected an integer, "
                             f"got {tok!r}") from None
    return out
