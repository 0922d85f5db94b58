"""landau-lab benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload {damping,snapshots,stability} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Artifacts and scratch files go to ``.bench_out/<workload>/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine, the source size, per-operation medians and an artifact
digest that two runs with the same seed must share.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from checks import CERTIFY_FACTORS, CHECKS, ECHO_TAUS, analytic_floor_reference, references  # noqa: E402
from tracer import CALL_COUNTS, LAYERS  # noqa: E402

WORKLOADS = ("damping", "snapshots", "stability")
SETUP_SAMPLES = 12
WORKER_TIMEOUT_S = 170.0
# Time of worker.calibrate() when the reference machine (2-vCPU Xeon VM,
# Python 3.11, NumPy 2.4) runs at its faster speed.  Wall times are scaled
# by this over the calibration time measured next to them, which removes the
# machine's speed swings (about 1.5x, in spells of seconds to minutes) from the
# metrics.  Changing it rescales every time metric; keep it fixed.
CALIBRATION_REF_S = 0.075
# one BLAS thread: a fixed, single-threaded baseline on a shared machine
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mib": "MiB",
    "main_s": "s",
    "sweep_s": "s",
}
PER_LAYER = {
    "sim.run_s": "s", "sim.steps": "count", "sim.observations": "count", "sim.us_per_step": "us",
    "sim.ftilde_sample_s": "s", "sim.ftilde_sample_calls": "count",
    "sim.strang_step_s": "s", "sim.strang_step_calls": "count", "sim.init_state_s": "s",
    "sim.fft_calls": "count", "sim.fft_points": "count", "sim.fft_s": "s", "sim.useful_step_share": "ratio",
    "echoes.self_s": "s", "echoes.detect_peaks_s": "s",
    "linear.root_scan_s": "s", "linear.solve_volterra_s": "s", "linear.fit_decay_rate_s": "s",
    "linear.scan_stability_margin_s": "s", "linear.criteria_s": "s",
    "models.ft_points": "count", "models.ft_s": "s", "models.verify_s": "s",
    "norms.gliding_norm_s": "s", "norms.analytic_norm_s": "s", "norms.fft_calls": "count",
    "cli.self_s": "s", "cli.write_s": "s", "cli.artifact_bytes": "bytes", "config.load_s": "s",
    **{f"{name}_calls": "count" for name in CALL_COUNTS},
    "models.ft_calls": "count",
    **{f"{layer}.raised": "count" for layer in LAYERS},
    "worker.first_pass_sys_s": "s", "worker.first_pass_minor_faults": "count",
    "trace.overhead_s": "s",
}


def build_ops(workload: str, seed: int, ref: dict) -> list[dict]:
    """The operations of one pass, in a seed-drawn order.

    The seed also draws the phase of the nonlinear-damping perturbation and
    of the two direct stepping checks; the echo experiment has no phase keys,
    and the norms snapshots keep a fixed input (its known fault must not
    depend on the seed).  No check depends on a phase or on the order.
    """
    rng = random.Random(seed)

    def exp(name, config, part, overrides=(), code=0):
        return {"name": name, "kind": "experiment", "config": config, "part": part,
                "overrides": [list(o) for o in overrides] + [["output", "dir", name]], "code": code}

    if workload == "damping":
        phase = rng.uniform(0.0, 2.0 * math.pi)
        ops = [exp("nonlinear_damping", "nonlinear_damping.ini", "main",
                   [("perturbation", "modes", f"1:2e-3:{phase!r}")])]
        ops += [exp(f"echo_tau{tau}", "echo.ini", "sweep", [("echo", "tau_kick", str(tau))]) for tau in ECHO_TAUS]
        ops.append(exp("echo_control", "echo.ini", "sweep", [("echo", "amp_kick", "0")]))
    elif workload == "snapshots":
        ops = [exp("norms", "norms.ini", "main"),
               {"name": "gliding", "kind": "gliding", "part": "sweep", "phase": rng.uniform(0.0, 2.0 * math.pi), "code": 0},
               {"name": "reversibility", "kind": "reversibility", "part": "sweep",
                "phase": rng.uniform(0.0, 2.0 * math.pi), "code": 0}]
    else:
        ops = [exp("linear_damping", "linear_damping.ini", "main")]
        ops += [exp(f"certify_{i}", "certify.ini", "sweep", [("interaction", "strength", repr(s))],
                    code=0 if f < 1.0 else 4)
                for i, (f, s) in enumerate(zip(CERTIFY_FACTORS, ref["certify_strengths"]))]
    rng.shuffle(ops)
    return ops


def tree_digest(d: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(d.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(d)).encode() + b"\0" + hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def machine_line() -> str:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"machine: cores={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={THREAD_ENV['OPENBLAS_NUM_THREADS']}")


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "landau_lab" / "__init__.py").is_file():
        print(f"error: no landau_lab sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out = root / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {**os.environ, **THREAD_ENV}
    env.pop("LANDAU_LAB_OUTPUT_ROOT", None)

    ref = references()
    ops = build_ops(args.workload, args.seed, ref)
    inputs = {"out": str(out), "ops": ops, "seconds": args.seconds, "trace": bool(args.trace),
              "setup_samples": SETUP_SAMPLES}
    (out / "inputs.json").write_text(json.dumps(inputs, indent=1))
    try:
        subprocess.run([sys.executable, str(BENCH / "worker.py"), str(out / "inputs.json"), str(out / "result.json")],
                       env=env, check=True, timeout=WORKER_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload worker failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads((out / "result.json").read_text())
    passes = result["passes"]

    if args.workload == "snapshots":
        ref["analytic_floor"] = analytic_floor_reference(BENCH / "configs" / "norms.ini")
    attempted = failed = 0
    problems: list[str] = []
    digests = []
    for p in passes:
        d = out / p["dir"]
        for op in ops:
            if p["codes"][op["name"]] != op["code"]:
                problems.append(f"{p['dir']}/{op['name']}: exit {p['codes'][op['name']]}, expected {op['code']}")
        a, f, probs = CHECKS[args.workload](d, ref)
        attempted, failed = attempted + a, failed + f
        problems += [f"{p['dir']}: {msg}" for msg in probs]
        digests.append(tree_digest(d))
    if len(set(digests)) != 1:
        problems.append(f"artifacts differ between passes: {sorted(set(digests))}")

    # speed factor of each operation: reference over measured calibration
    # time, averaged over the calibrations just before and just after it
    for p in passes:
        cal = p["calibration_s"]
        p["speed"] = {op["name"]: CALIBRATION_REF_S / (0.5 * (cal[i] + cal[i + 1])) for i, op in enumerate(ops)}
        p["pass_s"] = sum(p["wall_s"].values())
    plain = [p for p in passes if not p["traced"]]
    parts = {op["name"]: op["part"] for op in ops}
    print(machine_line())
    print(f"src_lines: {src_lines(root)}")
    print(f"passes: {len(passes)} ({len(passes) - len(plain)} traced); untraced pass_s, raw: "
          + " ".join(f"{p['pass_s']:.3f}" for p in plain))
    print("median calibration_s: " + " ".join(f"{statistics.median(p['calibration_s']):.4f}" for p in plain))
    for name in sorted(parts):
        raw = [p["op_s"][name] for p in plain]
        at_ref = [p["op_s"][name] * p["speed"][name] for p in plain]
        print(f"op {name}: median {statistics.median(at_ref):.4f} s at reference speed; raw median "
              f"{statistics.median(raw):.4f} s, fastest {min(raw):.4f} s over {len(raw)}")
    print(f"artifact digest: {digests[0]}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")

    def scaled(ps, key, part_name=None):
        """Median over passes of the summed operation times (of one part), at the reference speed."""
        return statistics.median(
            sum(t * p["speed"][name] for name, t in p[key].items() if part_name in (None, parts[name]))
            for p in ps)

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        for p in traced:  # layer times at the reference speed, by the pass's median calibration
            speed = CALIBRATION_REF_S / statistics.median(p["calibration_s"])
            p["layers"] = {name: v * speed if PER_LAYER[name] in ("s", "us") else v for name, v in p["layers"].items()}
        layers = {name: statistics.median(p["layers"][name] for p in traced) for name in PER_LAYER
                  if name in traced[0]["layers"]}
        layers["worker.first_pass_sys_s"] = passes[0]["sys_s"]
        layers["worker.first_pass_minor_faults"] = passes[0]["minor_faults"]
        # the first pass also pays a fresh process's page faults; leave it out
        layers["trace.overhead_s"] = scaled(traced, "wall_s") - scaled(plain[1:] or plain, "wall_s")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(t * CALIBRATION_REF_S / c for t, c in result["setup_s"]),
            "pass_s": scaled(plain, "wall_s"),
            "peak_rss_mib": result["peak_rss_mib"],
            "main_s": scaled(plain, "op_s", "main"),
            "sweep_s": scaled(plain, "op_s", "sweep"),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
