"""The benchmark's span tracer still hooks into the package.

`bench/tracer.py` patches package names from outside, by name, and only
its traced runs (``--trace 1``) use it, so a renamed function or writer
would break those runs alone.  This loads the tracer by path and installs
it against the package.
"""

import importlib.util
from pathlib import Path

import numpy as np

from landau_lab import cli
from landau_lab.config import loads_config
from landau_lab.sim import ObservableLog

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("landau_lab_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_wraps_the_writers_and_uninstalls(tmp_path):
    tracer = _load_tracer()
    assert [name for name in tracer.WRITERS if not callable(getattr(ObservableLog, name, None))] == []
    originals = {name: vars(ObservableLog)[name] for name in tracer.WRITERS}
    run_experiment, rfft = cli.run_experiment, np.fft.rfft
    t = tracer.Tracer()
    try:
        t.install()
        assert cli.run_experiment is not run_experiment and np.fft.rfft is not rfft
        log = ObservableLog(times=np.arange(3.0), mass=np.ones(3), ekin=np.ones(3), epot=np.ones(3), l2=np.ones(3),
                            gradv_l2=np.ones(3), k_obs=1, rho_modes=np.ones((3, 2), dtype=complex),
                            ftilde_points=((1, 0.0),), ftilde=np.ones((3, 1), dtype=complex), recurrence={1: 1.0})
        for name in tracer.WRITERS:
            getattr(log, name)(tmp_path / f"{name}.csv")
    finally:
        t.uninstall()
    assert [s.name for s in t.spans] == [f"sim.ObservableLog.{name}" for name in tracer.WRITERS]
    assert {name: vars(ObservableLog)[name] for name in tracer.WRITERS} == originals
    assert cli.run_experiment is run_experiment and np.fft.rfft is rfft


NORMS_TINY = """\
[experiment]
name = norms

[interaction]
strength = 157.91367041742973

[grid]
nx = 16
nv = 256

[time]
dt = 0.0625

[perturbation]
modes = 1:2e-3

[norms]
lam = 0.2
n_max = 12
k_max = 2
times = 0,0.5,1

[output]
dir = norms
"""


def test_a_traced_norms_run_spans_the_public_norms_of_every_snapshot(tmp_path, monkeypatch):
    monkeypatch.setenv("LANDAU_LAB_OUTPUT_ROOT", str(tmp_path))
    cfg = loads_config(NORMS_TINY)
    t = _load_tracer().Tracer()
    try:
        t.install()
        assert cli.run_experiment(cfg) == 0
    finally:
        t.uninstall()
    names = [s.name for s in t.spans]
    assert names.count("norms.gliding_norm") == names.count("norms.analytic_norm") == 3
    assert names.count("norms.spatial_norm") == 3
