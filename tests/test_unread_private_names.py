"""Every module-level private name in the package is read in the package: a
constant, helper or memo that only tests still read is a leftover."""

import ast
from pathlib import Path

import landau_lab

SRC = Path(landau_lab.__file__).parent


def _defined(stmt: ast.stmt) -> list[str]:
    """Private names a top-level statement binds by ``def``, ``class`` or
    assignment; dunders such as ``__all__`` belong to the language."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(node: ast.AST) -> set[str]:
    """Names loaded under a node, as a name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _unread(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` of each private top-level name that no other top-level
    statement of the package reads (a recursive call is no reader)."""
    stmts = [(mod, stmt, _reads(stmt)) for mod, tree in trees.items() for stmt in tree.body]
    return [f"{mod}.{name}" for mod, stmt, _ in stmts for name in _defined(stmt)
            if not any(name in reads for _, other, reads in stmts if other is not stmt)]


def test_every_private_module_name_is_read_in_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    unread = _unread(trees)
    assert unread == [], f"private names no package code reads: {unread}"


def test_the_check_flags_each_form():
    a = ast.parse("_A = 1\n_B: int = 2\n_C, _D = 3, 4\n__all__ = []\n"
                  "def _f():\n    return _f()\n"
                  "class _K:\n    pass\n"
                  "def _g():\n    return _B + _D\n")
    b = ast.parse("from .a import _K\nx = a._g()\n")
    assert _unread({"a": a, "b": b}) == ["a._A", "a._C", "a._f", "a._K"]
