"""The package's declared runtime dependencies are the ones it imports."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import landau_lab


def test_every_module_imports_without_scipy():
    # SciPy is a test-only dependency: blocking it must leave every module importable
    names = [f"landau_lab.{m.name}" for m in pkgutil.iter_modules(landau_lab.__path__)]
    src = str(Path(landau_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import importlib, sys\nsys.modules['scipy'] = None\n" + "".join(
        f"importlib.import_module({n!r})\n" for n in names)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "landau_lab.cli" in names and "landau_lab.norms" in names
