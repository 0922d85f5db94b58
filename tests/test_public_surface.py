"""Every exported name is read by package code or kept for a named reader."""

import ast
from pathlib import Path

import landau_lab

SRC = Path(landau_lab.__file__).parent

# Exported names that no package code reads, each with the reader it is kept for.
KEEP = {
    "strang_step": "the benchmark's snapshots workload steps through it; tests pin reversibility with it",
    "ftilde_sample": "reference for run's ftilde range errors and the free-transport identity in tests",
    "asymptotic_profile": "the planned f-infinity oracle: late-time profile against the linear prediction",
    "linearized_ftilde": "the planned f-infinity oracle: late-time profile against the linear prediction",
    "stability_functional": "the planned certified strip margin; tests compare it with adaptive quadrature",
    "coincidence_check": "an acceptance gate (gliding norm vs spatial norm for x-only inputs)",
    "gliding_norm": "the benchmark's gliding-identity check; the norms experiment calls its core on a shared transform",
    "analytic_norm": "the benchmark's raised-floor check; the norms experiment calls its core on a shared transform",
}


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _reads(tree: ast.Module) -> set[str]:
    """Names a module reads: loads of a name or an attribute.

    A ``def`` or ``class`` statement, an import and an ``__all__`` string are
    not reads, so a name that is only defined, exported and re-exported by
    ``__init__`` has no reader.
    """
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_every_exported_name_has_a_reader():
    trees = _trees()
    read = set().union(*(_reads(tree) for tree in trees.values()))
    unread = [f"{mod}.{name}" for mod, tree in trees.items() for name in _exports(tree)
              if name not in read and name not in KEEP]
    assert unread == [], f"exported but read by no package code and not on the keep-list: {unread}"


def test_keep_list_names_are_exported():
    exported = {name for tree in _trees().values() for name in _exports(tree)}
    assert sorted(set(KEEP) - exported) == []
