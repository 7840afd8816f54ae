"""The public surface of minelab is what the program and its benchmark use.

Every public (not underscored) top-level function or class of a module in
src/minelab, and every public method of such a class, must be referenced by
another module there or by a file in perfbench/. A reference is a name, an
attribute, an imported name, or a string naming it (the benchmark's tracer
patches functions by name). A helper that only its own module calls is
private; one that only tests call belongs in tests/. The documented format
writers are allowed by name.

The same holds for parameters: every defaulted parameter of a public
function, and of the __init__ or a public method of a public class, must be
passed, by position or by keyword, in some call in src/minelab or
perfbench/. A call of __init__ names its class. A knob that only tests turn
belongs in tests/.

And for dataclass fields: every field of a public dataclass must be read as
an attribute (obj.field) somewhere in src/minelab or perfbench/. A field
that only tests read belongs in tests/.

No module in src/minelab holds an assert statement: python -O compiles
them out, and the program's checks (play_game's soundness checks among
them) must hold under it too.
"""
from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).parent.parent
SRC = sorted((ROOT / "src" / "minelab").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
ALLOWED = {"export_dimacs", "export_gcnf"}
ALLOWED_PARAMETERS = {
    # The console entry point: the console script calls main() and argparse
    # reads sys.argv; tests pass argv.
    "main(argv)",
    # The benchmark's tracer injects stats through kwargs["stats"] in a
    # wrapper that calls the patched function by a variable name.
    "kset_infer(stats)",
}


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


def defaulted_parameters(fn: ast.FunctionDef, bound: bool
                         ) -> Iterator[Tuple[Optional[int], str]]:
    """(position, name) of each defaulted parameter of fn, position None
    for a keyword-only one; positions skip self or cls when bound."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if bound:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        if i >= first:
            yield i, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def public_callables(path: Path
                     ) -> Iterator[Tuple[str, str, ast.FunctionDef, bool]]:
    """(label, name a call uses, def, bound) of each public function of the
    module, and of the __init__ and each public method of a public class."""
    for node in public_defs(ast.parse(path.read_text()).body):
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, False
            continue
        for method in node.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in method.decorator_list)
            if method.name == "__init__":
                yield f"{node.name}.__init__", node.name, method, True
            elif not method.name.startswith("_"):
                yield (f"{node.name}.{method.name}", method.name, method,
                       not static)


def calls_by_name(paths: List[Path]) -> Dict[str, List[ast.Call]]:
    """Every call in the files, keyed by the called name or attribute."""
    calls: Dict[str, List[ast.Call]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def passes(call: ast.Call, position: Optional[int], name: str) -> bool:
    """Does the call pass the parameter: by keyword, through **kwargs, or
    by position, a *args counting for every position from its own on."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return i <= position
    return position < len(call.args)


def test_every_defaulted_parameter_is_passed():
    calls = calls_by_name(SRC + PERFBENCH)
    unpassed = []
    for path in SRC:
        for label, called, fn, bound in public_callables(path):
            for position, name in defaulted_parameters(fn, bound):
                param = f"{label}({name})"
                if param not in ALLOWED_PARAMETERS and not any(
                        passes(call, position, name)
                        for call in calls.get(called, [])):
                    unpassed.append(f"{path.name}: {param}")
    assert not unpassed, ("defaulted parameters no call in src or perfbench "
                          f"passes: {unpassed}")


def is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def attributes_read(paths: List[Path]) -> Set[str]:
    """Every attribute name loaded in the files."""
    return {node.attr for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    read = attributes_read(SRC + PERFBENCH)
    unread = []
    for path in SRC:
        for node in public_defs(ast.parse(path.read_text()).body):
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                unread.extend(
                    f"{path.name}: {node.name}.{stmt.target.id}"
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id not in read)
    assert not unread, ("dataclass fields no code in src or perfbench "
                        f"reads: {unread}")


def test_no_assert_statements():
    asserts = [f"{path.name}:{node.lineno}" for path in SRC
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert not asserts, f"assert statements python -O would drop: {asserts}"
