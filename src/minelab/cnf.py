"""Frontier constraints as a group-tagged CNF formula.

build_formula encodes the whole frontier system sum_j a_ij x_j = e_i:
row i contributes one clause group, GroupId i, encoding "exactly e_i of
row i's support are mines", and outer site j is the Boolean variable
VarId j + 1 (true iff mined), so variables run in row-major order of their
sites. The formula is the conjunction of the groups; group identity is
what minimal-core extraction works over, and each group's label is
recorded beside it, so that extraction can answer by counting what one
group alone says about one variable.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# Unused here; perfbench/benchtrace.py patches minelab.cnf.frontiers.
from .board import Frontiers, frontiers  # noqa: F401

Clause = Tuple[int, ...]


class InfeasibleLabel(Exception):
    """An effective label outside [0, #neighbors]; the state is inconsistent."""


@dataclass
class GroupedCnf:
    """A CNF split into clause groups.

    A frontier formula has one group per row, GroupId i for
    frontiers().inner[i], and labels maps every group to the count e its
    clauses assert: exactly e of the group's variables are true. A parsed
    formula records no labels (None).
    """
    num_vars: int
    groups: Dict[int, List[Clause]]
    labels: Optional[Dict[int, int]] = None

    def num_clauses(self) -> int:
        return sum(len(cs) for cs in self.groups.values())


def _encode_exact_count(e: int, vars: Sequence[int]) -> List[Clause]:
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


def build_formula(fr: Frontiers) -> GroupedCnf:
    """The whole frontier formula of fr: group i says that exactly
    fr.labels[i] of row i's support are mines, labels[i] records that
    label, and VarId j + 1 stands for fr.outer[j]. An empty frontier gives
    a formula with no groups and no variables."""
    groups = {i: _encode_exact_count(e, [j + 1 for j in support])
              for i, (e, support) in enumerate(zip(fr.labels, fr.supports))}
    return GroupedCnf(num_vars=len(fr.outer), groups=groups,
                      labels=dict(enumerate(fr.labels)))


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
