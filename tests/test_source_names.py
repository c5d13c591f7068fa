"""Every top-level name of the package is used by the program itself.

A function, class or constant that only the tests reach belongs with the
tests (``second_routes``), not in ``src/``.  A name counts as used when
something outside its own definition and outside ``__all__`` refers to it
as code: a load, an attribute or an import, anywhere in ``src/``,
``demos/`` or ``perfbench/``.  A string naming it does not count: the
benchmark's tracer wraps functions by name, and a name it lists that
nothing calls is still unused.
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


def unused_names() -> List[str]:
    """``module.name`` for every top-level package name nothing else refers to."""
    statements = [(path, stmt, _referenced(stmt)) for path, stmt in _statements()]
    unused = []
    for path, stmt, _ in statements:
        if path.parent != PACKAGE:
            continue
        for name in _defined(stmt):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(
                name in refs
                for _, other, refs in statements
                if other is not stmt and not _is_all(other)
            ):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_package_name_is_used_outside_the_tests():
    assert unused_names() == []
