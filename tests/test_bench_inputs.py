"""The benchmark's operations still load their configs and apply their overrides.

`bench/run.py` builds each workload's operations from `bench/configs` and
text overrides that go through `ExperimentConfig.replace`.  A change to the
config parser that breaks an override form would otherwise surface only
when the benchmark runs; this loads the runner by path and applies every
override of every workload.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from landau_lab import linear
from landau_lab.config import load_config
from landau_lab.sim import PerturbationMode

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_run():
    # the runner puts bench/ on sys.path to import its checks and tracer; undo that afterwards
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))
        for name in ("checks", "tracer"):
            mp.delitem(sys.modules, name, raising=False)
        spec = importlib.util.spec_from_file_location("landau_lab_bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module, module.references()
        for name in ("checks", "tracer"):
            sys.modules.pop(name, None)


def _expected(key: str, raw: str):
    if key == "modes":
        k, amplitude, phase = raw.split(":")
        return (PerturbationMode(k=int(k), amplitude=float(amplitude), phase=float(phase)),)
    return raw if key == "dir" else float(raw)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_every_benchmark_override_applies_to_its_config(bench_run, seed):
    run, ref = bench_run
    applied = {}
    for workload in run.WORKLOADS:
        ops = [op for op in run.build_ops(workload, seed, ref) if op["kind"] == "experiment"]
        applied[workload] = 0
        for op in ops:
            cfg = load_config(BENCH / "configs" / op["config"])
            for section, key, raw in op["overrides"]:
                cfg = cfg.replace(section, key, raw)
                assert cfg.get(section, key) == _expected(key, raw), (op["name"], section, key, raw)
                applied[workload] += 1
            assert cfg.get("output", "dir") == op["name"]
            if op["config"] == "nonlinear_damping.ini":
                (mode,) = cfg.get("perturbation", "modes")
                assert 0.0 <= mode.phase < 2.0 * math.pi and repr(mode.phase) == op["overrides"][0][2].split(":")[2]
            if op["config"] == "certify.ini":  # the strengths go as repr text and come back exact
                assert repr(cfg.get("interaction", "strength")) == op["overrides"][0][2]
                assert cfg.get("interaction", "strength") in ref["certify_strengths"]
    assert all(applied.values()), applied


def test_every_benchmark_census_keeps_the_base_window(bench_run):
    # the census window grows with |what(k)| (`linear._census_height`); every
    # mode that the benchmark's Laplace-side operations scan keeps height 12,
    # so its zeros, reports and times are those of the fixed window
    run, ref = bench_run
    heights = []
    for op in run.build_ops("stability", 0, ref):
        cfg = load_config(BENCH / "configs" / op["config"])
        for section, key, raw in op["overrides"]:
            cfg = cfg.replace(section, key, raw)
        if cfg.experiment == "linear_damping":
            ks = cfg.get("linear", "k_list")
        else:
            ks = range(1, cfg.get("certify", "k_max") + 1)
        what = cfg.build_interaction().what
        heights += [linear._census_height(cfg.build_profile(), float(what(np.array(k)))) for k in ks]
    assert len(heights) == 2 + 6 * 4 and set(heights) == {12.0}
