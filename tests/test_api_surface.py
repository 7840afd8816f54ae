"""The public surface of minelab is what the program and its benchmark use.

Every public (not underscored) top-level function or class of a module in
src/minelab, and every public method of such a class, must be referenced by
another module there or by a file in perfbench/. A reference is a name, an
attribute, an imported name, or a string naming it (the benchmark's tracer
patches functions by name). A helper that only its own module calls is
private; one that only tests call belongs in tests/. The documented format
writers are allowed by name.
"""
from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Set

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


def public_defs(body: list) -> Iterator[ast.AST]:
    """The public functions and classes among the statements of body."""
    for node in body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in ALLOWED):
            yield node


def public_names(path: Path) -> Iterator[str]:
    """The module's public functions and classes, and each public class's
    public methods as Class.method."""
    for node in public_defs(ast.parse(path.read_text()).body):
        yield node.name
        if isinstance(node, ast.ClassDef):
            for method in public_defs(node.body):
                if isinstance(method, ast.FunctionDef):
                    yield f"{node.name}.{method.name}"


def test_every_public_name_has_a_user():
    refs: Dict[Path, Set[str]] = {p: referenced_names(p)
                                  for p in SRC + PERFBENCH}
    unused = []
    for path in SRC:
        for name in public_names(path):
            used = name.rsplit(".", 1)[-1]
            if not any(used in names for other, names in refs.items()
                       if other != path):
                unused.append(f"{path.name}: {name}")
    assert not unused, f"public names no other module uses: {unused}"

