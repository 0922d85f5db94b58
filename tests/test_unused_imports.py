"""Every imported name is loaded somewhere in the file that imports it."""

import ast
from pathlib import Path

import landau_lab

SRC = Path(landau_lab.__file__).parent
TESTS = Path(__file__).parent


def _imported(tree: ast.Module) -> list[str]:
    """Names bound by the file's imports (``import a.b`` binds ``a``)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    return out


def _loaded(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_no_unused_imports():
    unused = []
    # a package __init__ imports to re-export: its names are read by importers
    for path in sorted(p for p in [*SRC.glob("*.py"), *TESTS.glob("*.py")] if p.name != "__init__.py"):
        tree = ast.parse(path.read_text())
        loaded = _loaded(tree)
        unused += [f"{path.parent.name}/{path.name}: {name}" for name in _imported(tree) if name not in loaded]
    assert unused == [], f"imported but never loaded: {unused}"
