"""One path per job in the package: every CSV table goes through
`linear.write_columns_csv`, so no module imports ``csv``, every stepper is
built in `sim` (`run`, the echo experiment and the norms experiment step along
`sim._trajectory`, and `strang_step` along its cached stepper), and the
Laplace transform Psi has one closed form, `linear._psi`: the one quadrature
builder, `linear._gl_panels`, serves only the majorant integrals of |ft|
(`linear._majorant_nodes`) and the zero census's contour, never Psi itself, and no function takes a ``modulus``
switch between transforms."""

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


def _callers(tree: ast.Module, name: str) -> list[str]:
    """The top-level definition ('<module>' outside any) holding each call of
    ``name(...)`` or ``<x>.name(...)``."""
    return [getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call) and (isinstance(node.func, ast.Name) and node.func.id == name
                                               or isinstance(node.func, ast.Attribute) and node.func.attr == name)]


def _modulus_params(tree: ast.Module) -> list[int]:
    """Lines of each function or lambda with a parameter named ``modulus``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            and any(a.arg == "modulus" for a in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs))]


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


def test_gl_panels_serves_only_the_small_gain_integral():
    calls = [f"{mod}.{caller}" for mod, tree in _trees().items() for caller in _callers(tree, "_gl_panels")]
    assert calls == ["linear._majorant_nodes", "linear._census_contour"], \
        f"Gauss-Legendre panels outside the majorant integrals of |ft| and the census contour: {calls}"


def test_no_function_takes_a_modulus_switch():
    bad = [f"{mod}:{line}" for mod, tree in _trees().items() for line in _modulus_params(tree)]
    assert bad == [], f"a modulus parameter (Psi has one closed form, linear._psi): {bad}"


def test_the_laplace_checks_flag_each_form():
    src = ("def f():\n    _gl_panels(1, 2)\n"
           "class C:\n    def g(self):\n        return linear._gl_panels(1, 2)\n"
           "x = _gl_panels(3, 4)\ny = _gl_panels\n"
           "def h(a, modulus=True): pass\ndef k(a, *, modulus): pass\nm = lambda modulus: 0\ndef n(mod): pass\n")
    tree = ast.parse(src)
    assert _callers(tree, "_gl_panels") == ["f", "C", "<module>"]
    assert _modulus_params(tree) == [8, 9, 10]
