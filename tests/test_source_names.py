"""Every top-level name of the package, and every method of its classes,
is used by the program itself, and the CLI alone lays out output.

A function, class, constant or method that only the tests reach belongs
with the tests (``second_routes``), not in ``src/``.  A name counts as used
when something outside its own definition and outside ``__all__`` refers to
it as code: a load, an attribute or an import, anywhere in ``src/``,
``demos/`` or ``perfbench/``.  A string naming it does not count: the
benchmark's tracer wraps functions by name, and a name it lists that
nothing calls is still unused.  Dunder names are exempt: the language
calls them.

The CLI alone lays out output: no package function writes the check
report's layout or num/den text beside it, and no module imports ``json``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ocmirror"
USERS = (ROOT / "src", ROOT / "demos", ROOT / "perfbench")


def _defined(stmt: ast.stmt) -> List[str]:
    """Names a top-level statement binds, other than ``__all__``."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n != "__all__"]


def _referenced(node: ast.AST) -> Set[str]:
    """Names a piece of code refers to: loads, attributes and imports."""
    out: Set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def _statements() -> List[Tuple[Path, ast.stmt]]:
    out = []
    for top in USERS:
        for path in sorted(top.rglob("*.py")):
            out.extend((path, stmt) for stmt in ast.parse(path.read_text()).body)
    return out


def _is_all(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
    )


def _attributes(node: ast.AST) -> Set[str]:
    """Attribute names a piece of code reads: the only way to reach a method."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unused_members(cls: ast.ClassDef, reads: List[Set[str]]) -> List[str]:
    """The methods, properties and classmethods of ``cls`` that nothing reads
    as an attribute, neither in ``reads`` nor in the rest of the class."""
    body = [(s, _attributes(s)) for s in cls.body]
    unused = []
    for member, _ in body:
        if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_dunder(member.name):
            continue
        siblings = [attrs for s, attrs in body if s is not member]
        if not any(member.name in attrs for attrs in reads + siblings):
            unused.append(f"{cls.name}.{member.name}")
    return unused


def unused_names() -> List[str]:
    """``module.name`` for every top-level package name nothing else refers to,
    and ``module.Class.name`` for every such method of a package class."""
    statements = [(path, stmt, _referenced(stmt), _attributes(stmt)) for path, stmt in _statements()]
    unused = []
    for path, stmt, _, _ in statements:
        if path.parent != PACKAGE:
            continue
        others = [(refs, attrs) for _, o, refs, attrs in statements if o is not stmt and not _is_all(o)]
        for name in _defined(stmt):
            if not _is_dunder(name) and not any(name in refs for refs, _ in others):
                unused.append(f"{path.stem}.{name}")
        if isinstance(stmt, ast.ClassDef):
            reads = [attrs for _, attrs in others]
            unused += [f"{path.stem}.{name}" for name in _unused_members(stmt, reads)]
    return unused


def test_every_package_name_is_used_outside_the_tests():
    assert unused_names() == []


#: writers of the check report's layout and of num/den text that ``cli`` replaced
RETIRED = {"rational_str", "diff_rows", "to_json_dict", "_json_text"}


def test_cli_alone_lays_out_output():
    """No package function is one of the retired writers, and no module
    imports ``json``: every JSON byte comes from ``cli``'s templates."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name in RETIRED:
                found.append(f"{path.stem}.{n.name}")
            elif isinstance(n, ast.alias) and n.name.split(".")[0] == "json":
                found.append(f"{path.stem} imports json")
    assert found == []
