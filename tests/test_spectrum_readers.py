"""No package code transforms a field's values to its x-spectrum itself:
outside `PhaseSpaceField`, a reader takes ``field.spectrum``, which a field
born from its spectrum (a `strang_step` result, a norms snapshot) holds
without a transform."""

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


def _data_rffts(tree: ast.Module) -> list[int]:
    """Lines of each ``*.fft.rfft(<expr>.data, ...)`` call outside class PhaseSpaceField."""
    inside = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "PhaseSpaceField"
              for n in ast.walk(c)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            and _dotted(node.func).endswith("fft.rfft") and node.args
            and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "data"]


def test_no_rfft_of_a_fields_data_outside_the_field():
    bad = [f"{p.name}:{line}" for p in sorted(SRC.glob("*.py")) for line in _data_rffts(ast.parse(p.read_text()))]
    assert bad == [], f"rfft of .data outside PhaseSpaceField (read .spectrum): {bad}"


def test_the_check_flags_each_form():
    src = ("import numpy as np\nfrom numpy import fft\n"
           "a = np.fft.rfft(state.data, axis=0)\nb = fft.rfft(s.data)\nc = numpy.fft.rfft(x.y.data, axis=0)\n"
           "d = np.fft.rfft(state.spectrum)\ne = np.fft.irfft(state.data)\nf = np.fft.rfft(data)\n"
           "class PhaseSpaceField:\n    def spectrum(self):\n        return np.fft.rfft(self.data, axis=0)\n")
    assert _data_rffts(ast.parse(src)) == [3, 4, 5]
