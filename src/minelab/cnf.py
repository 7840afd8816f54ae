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


def parse_formula(text: str) -> GroupedCnf:
    """The formula of a DIMACS or GCNF text, in the format its problem line
    names: DIMACS CNF (`p cnf V C`) is one group, 0; GCNF (`p gcnf V C G`)
    tags each clause `{g}`, GroupId g - 1. A DIMACS clause ends at its 0
    and may span lines or share one; a GCNF clause is one tagged line.
    Errors name the line they are found on."""
    header: Optional[List[int]] = None
    lits: List[int] = []    # the clause read so far
    opened = 0              # the line it began on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if header is None:
            parts = line.split()
            if line[0] != "p" or parts[1:2] not in (["cnf"], ["gcnf"]):
                raise ValueError(f"line {lineno}: input is neither DIMACS "
                                 "(p cnf) nor GCNF (p gcnf)")
            gcnf = parts[1] == "gcnf"
            if len(parts) != 4 + gcnf:
                raise ValueError(f"line {lineno}: bad {parts[1]} header "
                                 f"{line!r}")
            header = _ints(parts[2:], lineno)
            if min(header) < 0:
                raise ValueError(f"line {lineno}: negative count in {line!r}")
            groups: Dict[int, List[Clause]] = {} if gcnf else {0: []}
            continue
        if line.startswith("p"):
            raise ValueError(f"line {lineno}: second problem header")
        g = 1
        if gcnf:
            if not line.startswith("{"):
                raise ValueError(f"line {lineno}: missing group tag")
            tag, _, line = line.partition("}")
            g = _ints([tag[1:]], lineno)[0]
            if not 1 <= g <= header[2]:
                raise ValueError(f"line {lineno}: group {g} out of range")
        tokens = _ints(line.split(), lineno)
        if gcnf and (tokens[-1:] != [0] or 0 in tokens[:-1]):
            raise ValueError(f"line {lineno}: a tagged line must hold one "
                             "zero-terminated clause")
        for lit in tokens:
            if abs(lit) > header[0]:
                raise ValueError(f"line {lineno}: literal out of range")
            if lit:
                if not lits:
                    opened = lineno
                lits.append(lit)
            elif lits:
                groups.setdefault(g - 1, []).append(tuple(lits))
                lits = []
            else:
                raise ValueError(f"line {lineno}: empty clause")
    if lits:
        raise ValueError(f"line {opened}: clause not zero-terminated")
    if header is None:
        raise ValueError("no problem header found")
    cnf = GroupedCnf(num_vars=header[0], groups=groups)
    if cnf.num_clauses() != header[1]:
        raise ValueError(f"declared {header[1]} clauses, "
                         f"found {cnf.num_clauses()}")
    return cnf


def _ints(tokens: List[str], lineno: int) -> List[int]:
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"line {lineno}: expected an integer, "
                             f"got {tok!r}") from None
    return out
