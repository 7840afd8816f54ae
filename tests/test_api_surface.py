"""The public surface of minelab is what the program and its benchmark use.

Every public (not underscored) top-level function or class of a module in
src/minelab must be referenced by another module there or by a file in
perfbench/. A reference is a name, an attribute, an imported name, or a
string naming it (the benchmark's tracer patches functions by name). A
helper that only its own module calls is private; one that only tests
call belongs in tests/. The documented format writers are allowed by name.
"""
from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set

ROOT = Path(__file__).parent.parent
SRC = sorted((ROOT / "src" / "minelab").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
ALLOWED = {"export_dimacs", "export_gcnf"}


def referenced_names(path: Path) -> Set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isidentifier()):
            names.add(node.value)
    return names


def test_every_public_name_has_a_user():
    refs: Dict[Path, Set[str]] = {p: referenced_names(p)
                                  for p in SRC + PERFBENCH}
    unused = []
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in ALLOWED):
                continue
            if not any(node.name in names for other, names in refs.items()
                       if other != path):
                unused.append(f"{path.name}: {node.name}")
    assert not unused, f"public names no other module uses: {unused}"

