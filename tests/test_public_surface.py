"""Every exported name, and every field and public method of an exported class,
is read by package or benchmark code or kept for a named reader."""

import ast
from pathlib import Path

import landau_lab

SRC = Path(landau_lab.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

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


# Fields and public methods of exported classes that no package or benchmark
# code loads as an attribute, each with the reader it is kept for.
KEEP_MEMBERS = {
    "AsymptoticProfile.f_inf": "the planned f-infinity oracle, like asymptotic_profile",
    "AsymptoticProfile.sup_diff": "the planned f-infinity oracle, like asymptotic_profile",
    "ObservableLog.final_state": "run's end state for library callers; tests pin the trajectory with it",
    "ObservableLog.recurrence": "per-mode recurrence horizons for library callers (README); an acceptance gate reads them",
    "RootScanResult.root": "the refined root, which tests pin",
    "CoincidenceResult.z": "the acceptance gate's verdict",
    "CoincidenceResult.f": "the acceptance gate's verdict",
    "CoincidenceResult.rel_diff": "the acceptance gate's verdict",
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


def _members(tree: ast.Module) -> list[str]:
    """``Class.member`` for the annotated fields and public methods of each exported class."""
    exported = set(_exports(tree))
    out = []
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name in exported):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                out.append(f"{node.name}.{item.target.id}")
            elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                out.append(f"{node.name}.{item.name}")
    return out


def _attribute_loads() -> set[str]:
    """Attribute names that package or benchmark code loads."""
    paths = [*sorted(SRC.glob("*.py")), *sorted(BENCH.glob("*.py"))]
    return {node.attr for p in paths for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_field_and_method_of_an_exported_class_has_a_reader():
    loaded = _attribute_loads()
    unread = [m for tree in _trees().values() for m in _members(tree)
              if m.split(".", 1)[1] not in loaded and m not in KEEP_MEMBERS]
    assert unread == [], f"fields or methods that no package or benchmark code reads: {unread}"


def test_member_keep_list_entries_exist_and_have_no_other_reader():
    members = {m for tree in _trees().values() for m in _members(tree)}
    assert sorted(set(KEEP_MEMBERS) - members) == []
    loaded = _attribute_loads()
    assert sorted(m for m in KEEP_MEMBERS if m.split(".", 1)[1] in loaded) == []
