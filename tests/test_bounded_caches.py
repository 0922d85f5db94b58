"""Every memo in the package is bounded: each ``lru_cache`` names a finite
``maxsize``, and ``functools.cache`` (unbounded) is never used."""

import ast
from pathlib import Path

import landau_lab

SRC = Path(landau_lab.__file__).parent


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a chain of names and attributes, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def _unbounded(tree: ast.Module) -> list[str]:
    """Line and reason of each unbounded or implicitly sized cache in the tree."""
    out = []
    calls = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [f"{node.lineno}: imports functools.{a.name} by name, out of this check's sight"
                    for a in node.names if a.name in ("cache", "lru_cache")]
        name = _dotted(node)
        if name == "functools.cache":
            out.append(f"{node.lineno}: functools.cache")
        elif name == "functools.lru_cache" and id(node) not in calls:
            out.append(f"{node.lineno}: lru_cache without an explicit maxsize")
        elif isinstance(node, ast.Call) and _dotted(node.func) == "functools.lru_cache":
            size = {k.arg: k.value for k in node.keywords}.get("maxsize", node.args[0] if node.args else None)
            if not (isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0):
                out.append(f"{node.lineno}: lru_cache maxsize is not a positive integer")
    return out


def test_every_cache_has_a_finite_maxsize():
    bad = [f"{p.name}:{line}" for p in sorted(SRC.glob("*.py")) for line in _unbounded(ast.parse(p.read_text()))]
    assert bad == [], f"unbounded caches: {bad}"


def test_the_check_flags_each_unbounded_form():
    src = ("import functools\nfrom functools import cache\n"
           "@functools.cache\ndef a(): pass\n@functools.lru_cache\ndef b(): pass\n"
           "@functools.lru_cache(maxsize=None)\ndef c(): pass\n@functools.lru_cache(None)\ndef d(): pass\n"
           "@functools.lru_cache(maxsize=8)\ndef e(): pass\n")
    assert [line.split(":")[0] for line in _unbounded(ast.parse(src))] == ["2", "3", "5", "7", "9"]
