"""Config parsing, validation, round-trips, and the experiment runner."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import landau_lab
from landau_lab.cli import _norm_rows, main, run_experiment
from landau_lab.config import load_config, loads_config
from landau_lab.errors import ConfigError
from landau_lab.sim import init_state, strang_step

MINIMAL = """\
[experiment]
name = nonlinear_damping
"""

LINEAR_FAST = """\
[experiment]
name = linear_damping

[profile]
name = maxwellian

[interaction]
kind = coulomb
strength = 157.91367041742973

[time]
dt = 0.015625
t_end = 4

[linear]
k_list = 1
amplitude = 1e-3
fit_t_min = 0.5
fit_t_max = 3.5

[output]
dir = {out}
"""


# ---------------------------------------------------------------------------
# parsing and validation


def test_minimal_config_gets_defaults():
    cfg = loads_config(MINIMAL)
    assert cfg.experiment == "nonlinear_damping"
    assert cfg.get("grid", "nx") == 64
    assert cfg.get("time", "dt") == 0.03125
    assert cfg.get("profile", "name") == "maxwellian"
    assert cfg.get("interaction", "kind") == "coulomb"


def test_misspelled_key_is_named():
    with pytest.raises(ConfigError, match="dtt"):
        loads_config(MINIMAL + "\n[time]\ndtt = 0.1\n")


def test_negative_dt_is_range_error():
    with pytest.raises(ConfigError, match=r"\[time\] dt"):
        loads_config(MINIMAL + "\n[time]\ndt = -0.1\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="solver"):
        loads_config(MINIMAL + "\n[solver]\nx = 1\n")


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        loads_config("[experiment]\nname = warp_drive\n")


def test_missing_required_key():
    with pytest.raises(ConfigError, match=r"\[experiment\] name"):
        loads_config("[grid]\nnx = 64\n")


def test_parse_error_carries_source():
    with pytest.raises(ConfigError, match="parse error"):
        loads_config("name = orphan before any section\n", source="bad.ini")


def test_grid_must_be_power_of_two():
    with pytest.raises(ConfigError, match="power of two"):
        loads_config(MINIMAL + "\n[grid]\nnx = 48\n")


def test_structured_values_parse():
    cfg = loads_config(
        MINIMAL + "\n[perturbation]\nmodes = 1:1e-3:0.5; 2:2e-4\nkicks = 4.0:-2:1e-3\n"
        "\n[observables]\nftilde = 1:0.0; 2:0.25\n"
    )
    modes = cfg.get("perturbation", "modes")
    assert len(modes) == 2 and modes[0].k == 1 and modes[0].phase == 0.5
    kicks = cfg.get("perturbation", "kicks")
    assert kicks[0].mode == -2 and kicks[0].time == 4.0
    assert cfg.get("observables", "ftilde") == ((1, 0.0), (2, 0.25))


def test_config_round_trips():
    text = MINIMAL + "\n[perturbation]\nmodes = 1:1e-3\n\n[grid]\nnv = 512\n"
    cfg = loads_config(text)
    again = loads_config(cfg.to_text())
    assert again.values == cfg.values
    assert loads_config(again.to_text()).values == again.values


def test_replace_revalidates():
    cfg = loads_config(MINIMAL)
    cfg2 = cfg.replace("grid", "nv", "512")
    assert cfg2.get("grid", "nv") == 512
    with pytest.raises(ConfigError):
        cfg.replace("grid", "nv", "-8")
    with pytest.raises(ConfigError):
        cfg.replace("grid", "typo", "1")


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.ini")


def test_builders(tmp_path):
    cfg = loads_config(MINIMAL + "\n[interaction]\nkind = none\n\n[profile]\nname = maxwellian\nlam = 2.0\n")
    assert cfg.build_interaction().cw == 0.0
    assert cfg.build_profile().lam == 2.0


# ---------------------------------------------------------------------------
# runner and exit codes


def write_cfg(tmp_path: Path, text: str) -> Path:
    p = tmp_path / "exp.ini"
    p.write_text(text)
    return p


def test_linear_experiment_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, LINEAR_FAST.format(out=out))
    assert main(["run", str(path)]) == 0
    assert (out / "modes.csv").exists()
    assert (out / "decay.svg").exists()
    meta = (out / "run.meta").read_text()
    assert "status = ok" in meta
    assert "rate_fit_k1" in meta and "recurrence_time" in meta
    assert "config.time.dt = 0.015625" in meta
    assert "config_hash = " in meta


def test_runner_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["run", str(write_cfg(tmp_path, LINEAR_FAST.format(out=out_a)))])
    code_b = main(["run", str(write_cfg(tmp_path, LINEAR_FAST.format(out=out_b)))])
    assert code_a == code_b == 0
    assert (out_a / "modes.csv").read_bytes() == (out_b / "modes.csv").read_bytes()
    assert (out_a / "decay.svg").read_bytes() == (out_b / "decay.svg").read_bytes()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.ini")]) == 2
    assert "not found" in capsys.readouterr().err


def test_bad_key_exits_2(tmp_path):
    path = write_cfg(tmp_path, MINIMAL + "\n[time]\ndtt = 1\n")
    assert main(["run", str(path)]) == 2


def test_certify_pass_and_fail(tmp_path):
    ok_cfg = """\
[experiment]
name = certify

[interaction]
kind = coulomb
strength = 1.0

[certify]
lambda_strip = 0.5
kappa = 0.5

[output]
dir = {out}
"""
    out = tmp_path / "ok"
    assert main(["certify", str(write_cfg(tmp_path, ok_cfg.format(out=out)))]) == 0
    report = (out / "stability_report.txt").read_text()
    assert "certified = true" in report
    assert "smallness_criterion" in report

    fail_cfg = ok_cfg.replace("kind = coulomb", "kind = newton").replace("strength = 1.0", "strength = 40.0")
    out2 = tmp_path / "fail"
    assert main(["certify", str(write_cfg(tmp_path, fail_cfg.format(out=out2)))]) == 4
    assert "certified = false" in (out2 / "stability_report.txt").read_text()
    assert "certification_failed" in (out2 / "run.meta").read_text()


def test_certify_subcommand_overrides_experiment(tmp_path):
    # the strong benchmark coupling parks its resolvent root near 0.31, so
    # only a narrower strip certifies; larger k_max tightens the mode tail
    cfg = LINEAR_FAST.format(out=tmp_path / "o") + "\n[certify]\nlambda_strip = 0.2\nkappa = 0.05\nk_max = 6\n"
    path = write_cfg(tmp_path, cfg)
    assert main(["certify", str(path)]) == 0
    assert (tmp_path / "o" / "stability_report.txt").exists()


def test_output_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LANDAU_LAB_OUTPUT_ROOT", str(tmp_path / "root"))
    path = write_cfg(tmp_path, LINEAR_FAST.format(out="sub"))
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "root" / "sub" / "run.meta").exists()


def test_runtime_precondition_maps_to_exit_code_with_meta(tmp_path):
    # kick scheduled past the horizon is only caught inside the run
    cfg = MINIMAL + (
        "\n[grid]\nnx = 32\nnv = 256\n\n[time]\ndt = 0.03125\nt_end = 1\n"
        "\n[perturbation]\nmodes = 1:0.9\nkicks = 2.0:1:1e-3\n"
        f"\n[output]\ndir = {tmp_path / 'numfail'}\n"
    )
    code = run_experiment(loads_config(cfg))
    assert code == 2
    meta = (tmp_path / "numfail" / "run.meta").read_text()
    assert "status = failed:config" in meta and "kick" in meta


def test_sweep_fans_out(tmp_path):
    out = tmp_path / "sweep"
    path = write_cfg(tmp_path, LINEAR_FAST.format(out=out))
    assert main(["sweep", str(path), "--param", "strength=100,200", "--jobs", "2"]) == 0
    assert (out / "strength=100" / "modes.csv").exists()
    assert (out / "strength=200" / "modes.csv").exists()


def test_sweep_range_syntax_and_key_resolution(tmp_path):
    out = tmp_path / "sweep2"
    path = write_cfg(tmp_path, LINEAR_FAST.format(out=out))
    assert main(["sweep", str(path), "--param", "grid.nv=512..513", "--jobs", "1"]) == 2  # 513 not a power of two
    assert main(["sweep", str(path), "--param", "nosuchkey=1,2", "--jobs", "1"]) == 2
    assert main(["sweep", str(path), "--param", "name=a,b", "--jobs", "1"]) == 2  # ambiguous (experiment/profile)


# ---------------------------------------------------------------------------
# success paths of the phase-space experiments, run as separate processes

SMALL_GRID = """\
[interaction]
kind = coulomb
strength = {strength}

[grid]
nx = 16
nv = 256

[output]
dir = out
"""

NONLINEAR_SMALL = """\
[experiment]
name = nonlinear_damping

[time]
dt = 0.03125
t_end = 4
observe_stride = 2

[perturbation]
modes = 1:2e-3

[observables]
k_obs = 2
ftilde = 1:0.0

[linear]
fit_t_min = 0.5
fit_t_max = 3
""" + SMALL_GRID.format(strength=157.91367041742973)

ECHO_SMALL = """\
[experiment]
name = echo

[time]
dt = 0.03125
observe_stride = 2

[echo]
tau_kick = 2
""" + SMALL_GRID.format(strength=1.0)

NORMS_SMALL = """\
[experiment]
name = norms

[time]
dt = 0.0625

[perturbation]
modes = 1:2e-3

[norms]
lam = 0.2
n_max = 12
k_max = 2
times = 2,0,0.5,1
""" + SMALL_GRID.format(strength=157.91367041742973)


def _run_cli_process(config: Path, root: Path) -> dict[str, bytes]:
    """`landau-lab run` in a fresh interpreter; returns the output files by name."""
    src = str(Path(landau_lab.__file__).resolve().parents[1])
    env = dict(os.environ, LANDAU_LAB_OUTPUT_ROOT=str(root),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "landau_lab.cli", "run", str(config)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in sorted((root / "out").iterdir())}


@pytest.mark.parametrize("text, artifacts", [
    (NONLINEAR_SMALL, "decay.svg,ftilde.csv,gradient_growth.svg,modes.csv,observables.csv"),
    (ECHO_SMALL, "echo_timeline.svg,echoes.csv"),
    (NORMS_SMALL, "norms.csv"),
], ids=["nonlinear_damping", "echo", "norms"])
def test_phase_space_experiment_succeeds_and_is_byte_identical_across_processes(tmp_path, text, artifacts):
    config = write_cfg(tmp_path, text)
    first = _run_cli_process(config, tmp_path / "a")
    second = _run_cli_process(config, tmp_path / "b")
    meta = first["run.meta"].decode()
    assert "status = ok" in meta
    assert f"artifacts = {artifacts}\n" in meta
    assert sorted(first) == sorted(artifacts.split(",") + ["run.meta"])
    assert first == second


def test_norms_rows_match_per_snapshot_strang_steps(tmp_path):
    cfg = loads_config(NORMS_SMALL.replace("dir = out", f"dir = {tmp_path / 'norms'}"))
    assert run_experiment(cfg) == 0
    with open(tmp_path / "norms" / "norms.csv", newline="") as fh:
        got = list(csv.reader(fh))[1:]
    sec, dt = cfg.values["norms"], cfg.get("time", "dt")
    cur = init_state(cfg.build_profile(), cfg.build_perturbation(),
                     cfg.get("grid", "nx"), cfg.get("grid", "nv"), cfg.get("grid", "vmax"))
    expected = []
    for t in sorted(sec["times"]):
        while cur.time < t - 1e-12:
            cur = strang_step(cur, cfg.build_interaction(), dt)
        expected += _norm_rows(cur, sec)
    assert len(got) == len(expected) == 12
    for row, ref in zip(got, expected):
        assert row[:7] == ref[:7]
        value, remainder = float(ref[7]), float(ref[8])
        assert float(row[7]) == pytest.approx(value, rel=1e-12)
        assert abs(float(row[8]) - remainder) <= 1e-12 * abs(value)
