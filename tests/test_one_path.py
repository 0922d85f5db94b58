"""One path per job in the package: every CSV table goes through
`linear.write_columns_csv`, so no module imports ``csv``, every stepper is
built in `sim` (`run`, the echo experiment and the norms experiment step along
`sim._trajectory`, and `strang_step` along its cached stepper), every step of
`Stepper.evolve` and of `strang_step` is one `Stepper._step`, and the
Laplace transform Psi has one closed form, `linear._psi`: the one quadrature
builder, `linear._gl_panels`, serves only the majorant integrals of |ft|
(`linear._majorants`) and the zero census's contour, never Psi itself, and no function takes a ``modulus``
switch between transforms, or a ``sign`` of k that picks one: mode k < 0 reads conj Psi(conj xi).  Each
mode's growth verdict has one home, `linear._growth`, the only caller of the census, of Newton's refinement
and of the outside bound.  An interaction is its parameters: `models.Interaction` holds its kind, strength
and screening and no callable, so its multiplier and decay constants have one home, its methods."""

import ast
import dataclasses
from pathlib import Path

import landau_lab
from landau_lab.models import Interaction, builtin_interaction, zero_interaction

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


def _params_named(tree: ast.Module, name: str) -> list[int]:
    """Lines of each function or lambda with a parameter named ``name``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            and any(a.arg == name for a in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs))]


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def test_no_module_imports_csv():
    bad = [f"{mod}:{line}" for mod, tree in _trees().items() for line in _csv_imports(tree)]
    assert bad == [], f"csv imported (write through linear.write_columns_csv): {bad}"


def test_only_sim_builds_a_stepper():
    bad = [f"{mod}:{line}" for mod, tree in _trees().items() if mod != "sim" for line in _stepper_calls(tree)]
    assert bad == [], f"Stepper built outside sim (step along sim._trajectory): {bad}"


def test_every_step_is_one_stepper_step():
    calls = [f"{mod}.{caller}" for mod, tree in _trees().items() for caller in _callers(tree, "_step")]
    assert calls == ["sim.Stepper", "sim.strang_step"], f"a step taken outside Stepper._step: {calls}"


def test_the_checks_flag_each_form():
    src = ("import csv\nimport os, csv.dialects\nfrom csv import writer\nfrom .csv import x\nimport csvkit\n"
           "a = Stepper(1, 2)\nb = sim.Stepper(1, 2)\nc = Stepper\nd = make_Stepper(1)\n")
    tree = ast.parse(src)
    assert _csv_imports(tree) == [1, 2, 3]
    assert _stepper_calls(tree) == [6, 7]


def test_gl_panels_serves_only_the_majorant_integrals_and_the_census_contour():
    calls = [f"{mod}.{caller}" for mod, tree in _trees().items() for caller in _callers(tree, "_gl_panels")]
    assert calls == ["linear._majorants", "linear._census_contour"], \
        f"Gauss-Legendre panels outside the majorant integrals of |ft| and the census contour: {calls}"


def test_the_growth_rule_has_one_home():
    trees = _trees()
    for name in ("_outside_score", "_zeros", "_root_newton"):
        calls = [f"{mod}.{caller}" for mod, tree in trees.items() for caller in _callers(tree, name)]
        assert calls == ["linear._growth"], f"{name} called outside the growth verdict linear._growth: {calls}"


def test_no_function_takes_a_modulus_switch():
    bad = [f"{mod}:{line}" for mod, tree in _trees().items() for line in _params_named(tree, "modulus")]
    assert bad == [], f"a modulus parameter (Psi has one closed form, linear._psi): {bad}"


def test_no_function_takes_a_sign_of_k():
    bad = [f"{mod}:{line}" for mod, tree in _trees().items() for line in _params_named(tree, "sign")]
    assert bad == [], f"a sign parameter (mode k < 0 reads conj Psi(conj xi) of linear._psi): {bad}"


def test_an_interaction_is_its_parameters():
    fields = dataclasses.fields(Interaction)
    assert [f.name for f in fields] == ["kind", "strength", "screening"]
    for interaction in (builtin_interaction("coulomb"), builtin_interaction("screened", 2.0, 0.5), zero_interaction()):
        assert not any(callable(getattr(interaction, f.name)) for f in fields)


def test_the_laplace_checks_flag_each_form():
    src = ("def f():\n    _gl_panels(1, 2)\n"
           "class C:\n    def g(self):\n        return linear._gl_panels(1, 2)\n"
           "x = _gl_panels(3, 4)\ny = _gl_panels\n"
           "def h(a, modulus=True): pass\ndef k(a, *, modulus): pass\nm = lambda modulus: 0\ndef n(mod): pass\n"
           "def p(xi, sign): pass\ndef q(xi, /, sign=1): pass\ndef r(signs): pass\n")
    tree = ast.parse(src)
    assert _callers(tree, "_gl_panels") == ["f", "C", "<module>"]
    assert _params_named(tree, "modulus") == [8, 9, 10]
    assert _params_named(tree, "sign") == [12, 13]
