"""One path per job in the package: every CSV table goes through
`linear.write_columns_csv`, so no module imports ``csv``, and every stepper is
built in `sim` (`run`, the echo experiment and the norms experiment step along
`sim._trajectory`, and `strang_step` along its cached stepper)."""

import ast
from pathlib import Path

import landau_lab

SRC = Path(landau_lab.__file__).parent


def _csv_imports(tree: ast.Module) -> list[int]:
    """Lines of each ``import csv`` and ``from csv import ...``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "csv" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == "csv"]


def _stepper_calls(tree: ast.Module) -> list[int]:
    """Lines of each call of ``Stepper(...)`` or ``<module>.Stepper(...)``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "Stepper"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "Stepper")]


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def test_no_module_imports_csv():
    bad = [f"{mod}:{line}" for mod, tree in _trees().items() for line in _csv_imports(tree)]
    assert bad == [], f"csv imported (write through linear.write_columns_csv): {bad}"


def test_only_sim_builds_a_stepper():
    bad = [f"{mod}:{line}" for mod, tree in _trees().items() if mod != "sim" for line in _stepper_calls(tree)]
    assert bad == [], f"Stepper built outside sim (step along sim._trajectory): {bad}"


def test_the_checks_flag_each_form():
    src = ("import csv\nimport os, csv.dialects\nfrom csv import writer\nfrom .csv import x\nimport csvkit\n"
           "a = Stepper(1, 2)\nb = sim.Stepper(1, 2)\nc = Stepper\nd = make_Stepper(1)\n")
    tree = ast.parse(src)
    assert _csv_imports(tree) == [1, 2, 3]
    assert _stepper_calls(tree) == [6, 7]
