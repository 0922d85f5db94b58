"""Run whole passes of one workload's operations in a fresh interpreter.

    python3 bench/worker.py <inputs.json> <result.json>

``inputs.json`` (written by run.py) lists the operations of one pass in
order, the run length, the number of set-up samples and whether to trace.
Each pass writes its artifacts under ``<out>/pass_<i>``; the result file
holds, per pass, each operation's wall time (config loading included) and
experiment time, the calibration times taken before each operation and
after the last, exit codes, artifact sizes, system time and page faults;
and the set-up samples, each with the calibration time taken right after
it, peak resident memory and, for traced passes, the per-layer metrics.  Untraced and traced passes
alternate when tracing, starting with an untraced one.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
CONFIGS = BENCH / "configs"

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

from landau_lab import cli, config, models, norms, sim  # noqa: E402

sys.path.insert(0, str(BENCH))
from tracer import Tracer, layer_metrics  # noqa: E402


def experiment(op: dict, pass_dir: Path) -> tuple[float, int]:
    cfg = config.load_config(CONFIGS / op["config"])
    for section, key, raw in op["overrides"]:
        cfg = cfg.replace(section, key, raw)
    t0 = perf_counter()
    code = cli.run_experiment(cfg)
    return perf_counter() - t0, code


def gliding(op: dict, pass_dir: Path) -> tuple[float, int]:
    """Gliding identity under free transport: the norm at tau = t equals the t = 0 norm."""
    t0 = perf_counter()
    profile = models.builtin_profile("maxwellian", (1.0,))
    pert = sim.PerturbationSpec(modes=(sim.PerturbationMode(k=1, amplitude=0.5, phase=op["phase"]),))
    cur = sim.init_state(profile, pert, 32, 512, 8.0)
    free = models.zero_interaction()

    def spec(tau):
        return norms.GlidingNormSpec(lam=0.4, mu=0.05, p=1, tau=tau, n_max=24, k_max=3)

    base = norms.gliding_norm(cur, spec(0.0))
    out = {"base_value": base.value, "base_remainder": base.remainder, "values": {}}
    for t in (1.0, 2.0, 4.0):
        while cur.time < t - 1e-12:
            cur = sim.strang_step(cur, free, 1 / 32)
        out["values"][repr(t)] = norms.gliding_norm(cur, spec(t)).value
    elapsed = perf_counter() - t0
    _write_result(pass_dir / op["name"], out)
    return elapsed, 0


def reversibility(op: dict, pass_dir: Path) -> tuple[float, int]:
    """320 forward then 320 backward steps must return the initial state."""
    t0 = perf_counter()
    profile = models.builtin_profile("maxwellian", (1.0,))
    interaction = models.builtin_interaction("coulomb", 16.0 * np.pi**2)
    pert = sim.PerturbationSpec(modes=(sim.PerturbationMode(k=1, amplitude=1e-3, phase=op["phase"]),))
    start = sim.init_state(profile, pert, 32, 256, 8.0)
    cur = start
    for dt in (1 / 64, -1 / 64):
        for _ in range(320):
            cur = sim.strang_step(cur, interaction, dt)
    rev = float(np.max(np.abs(cur.data - start.data)) / np.max(np.abs(start.data)))
    elapsed = perf_counter() - t0
    _write_result(pass_dir / op["name"], {"reversibility": rev})
    return elapsed, 0


def _write_result(d: Path, out: dict) -> None:
    d.mkdir(parents=True, exist_ok=True)
    (d / "result.json").write_text(json.dumps(out, sort_keys=True) + "\n")


KINDS = {"experiment": experiment, "gliding": gliding, "reversibility": reversibility}


_CAL_INPUT = np.random.default_rng(12345).standard_normal((32, 1024))
_CAL_PHASE = np.exp(-1e-3j * np.arange(513))
_RFFT, _IRFFT = np.fft.rfft, np.fft.irfft  # bound before a tracer wraps numpy.fft


def calibrate() -> float:
    """Wall time of a fixed reference computation that uses no landau_lab code.

    FFTs along both axes and complex exponentials on a 32 x 1024 grid, the
    shape of the program's own arrays, plus an interpreter loop.  Its time
    tracks the speed the machine gives this process at the moment.
    """
    t0 = perf_counter()
    x = _CAL_INPUT
    for _ in range(50):
        x = _IRFFT(_RFFT(x, axis=1) * _CAL_PHASE, n=1024, axis=1)
        x = (np.exp(1e-3j * _IRFFT(_RFFT(x, axis=0), n=32, axis=0))).real
    s = 0
    for k in range(150_000):
        s += k * k % 7
    return perf_counter() - t0


def run_pass(ops: list[dict], pass_dir: Path) -> dict:
    """One pass over the operations, with a calibration before each and after the last."""
    pass_dir.mkdir(parents=True)
    os.environ["LANDAU_LAB_OUTPUT_ROOT"] = str(pass_dir)
    wall_s, op_s, codes, cal = {}, {}, {}, [calibrate()]
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    for op in ops:
        t0 = perf_counter()
        op_s[op["name"]], codes[op["name"]] = KINDS[op["kind"]](op, pass_dir)
        wall_s[op["name"]] = perf_counter() - t0
        cal.append(calibrate())
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    size = sum(p.stat().st_size for p in pass_dir.rglob("*") if p.is_file())
    return {"dir": pass_dir.name, "wall_s": wall_s, "op_s": op_s, "calibration_s": cal, "codes": codes,
            "artifact_bytes": size, "sys_s": r1.ru_stime - r0.ru_stime, "minor_faults": r1.ru_minflt - r0.ru_minflt}


def setup_sample(configs: list[str], env: dict) -> float:
    """Wall time of a fresh interpreter importing the CLI and loading the configs."""
    code = ("import sys; sys.path.insert(0, 'src'); import landau_lab.cli; "
            "from landau_lab.config import load_config; [load_config(p) for p in sys.argv[1:]]")
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code, *(str(CONFIGS / c) for c in configs)], env=env, check=True)
    return perf_counter() - t0


def main(inputs_path: str, result_path: str) -> None:
    inputs = json.loads(Path(inputs_path).read_text())
    out = Path(inputs["out"])
    ops = inputs["ops"]
    configs = sorted({op["config"] for op in ops if "config" in op})
    env = dict(os.environ)  # before run_pass sets LANDAU_LAB_OUTPUT_ROOT
    n_setup, seconds = inputs["setup_samples"], inputs["seconds"]
    passes, spans, setup = [], [], []
    start = perf_counter()
    while (
        not passes
        or perf_counter() - start < seconds
        or (inputs["trace"] and len(passes) % 2 == 1)  # an untraced pass gets its traced partner
    ):
        # set-up samples spread over the run, so that each run sees the
        # machine's slow and fast spells alike
        while len(setup) < max(1, n_setup * min(1.0, (perf_counter() - start) / seconds)):
            setup.append([setup_sample(configs, env), calibrate()])
        traced = inputs["trace"] and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            record = run_pass(ops, out / f"pass_{len(passes):03d}")
        finally:
            if tracer:
                tracer.uninstall()
        record["traced"] = traced
        if tracer:
            record["layers"] = layer_metrics(tracer.spans)
            record["layers"]["cli.artifact_bytes"] = record["artifact_bytes"]
            spans.append(tracer.dump())
        passes.append(record)
    while len(setup) < n_setup:
        setup.append([setup_sample(configs, env), calibrate()])
    if spans:
        (out / "spans.json").write_text(json.dumps(spans))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(
        {"passes": passes, "setup_s": setup, "peak_rss_mib": peak_kib / 1024.0}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
