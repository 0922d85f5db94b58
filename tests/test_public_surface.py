"""Every exported name, and every field and public method of an exported class,
is read by package or benchmark code or kept for a named reader."""

import ast
from pathlib import Path

import landau_lab

SRC = Path(landau_lab.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# Exported names that no package code reads, each with the reader it is kept for.
KEEP = {
    "strang_step": "the benchmark's snapshots workload steps through it, one engine step per call from the "
                   "field's spectrum; tests pin reversibility with it",
    "ftilde_sample": "reference for run's ftilde range errors and the free-transport identity in tests",
    "coincidence_check": "an acceptance gate (gliding norm vs spatial norm for x-only inputs)",
}


# Fields and public methods of exported classes that no package or benchmark
# code reads (see `_member_readers`), each with the reader it is kept for.
KEEP_MEMBERS = {
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


def _imported_modules(tree: ast.Module) -> set[str]:
    """The package modules a module imports: ``from .sim import ...``,
    ``from landau_lab import sim``, ``import landau_lab.sim`` and the like."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # a relative import sits in the package itself
                module = f"landau_lab.{module}" if module else "landau_lab"
            if module == "landau_lab":
                out.update(alias.name for alias in node.names)
            elif module.startswith("landau_lab."):
                out.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("landau_lab."))
    return out


def _attribute_loads(tree: ast.Module) -> set[str]:
    """Attribute names a module loads, except keyword copies ``name=obj.name``,
    which carry a member forward without reading it."""
    copies = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.keyword)
              and isinstance(node.value, ast.Attribute) and node.value.attr == node.arg}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in copies}


def _member_readers() -> dict[str, set[str]]:
    """Per package module, the attribute names loaded where its classes are
    visible: in the module itself, and in package or benchmark modules that
    import it."""
    modules = {f"bench/{p.stem}": ast.parse(p.read_text()) for p in sorted(BENCH.glob("*.py"))}
    modules.update(_trees())
    imports = {name: _imported_modules(tree) for name, tree in modules.items()}
    loads = {name: _attribute_loads(tree) for name, tree in modules.items()}
    return {mod: set().union(*(loads[name] for name in modules if name == mod or mod in imports[name]))
            for mod in _trees()}


def _unread_members() -> list[str]:
    readers = _member_readers()
    return [m for mod, tree in _trees().items() for m in _members(tree) if m.split(".", 1)[1] not in readers[mod]]


def test_every_field_and_method_of_an_exported_class_has_a_reader():
    unread = [m for m in _unread_members() if m not in KEEP_MEMBERS]
    assert unread == [], f"fields or methods that no package or benchmark code reads: {unread}"


def test_member_keep_list_entries_exist_and_have_no_other_reader():
    members = {m for tree in _trees().values() for m in _members(tree)}
    assert sorted(set(KEEP_MEMBERS) - members) == []
    assert sorted(set(KEEP_MEMBERS) - set(_unread_members())) == []
