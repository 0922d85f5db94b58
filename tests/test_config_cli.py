"""Config parsing and validation, and the experiment runner."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import landau_lab
from landau_lab import cli
from landau_lab.cli import _ANALYTIC_BETA, _norm_rows, main, run_experiment
from landau_lab.config import _SCHEMA, EXPERIMENTS, ExperimentConfig, load_config, loads_config
from landau_lab.errors import ConfigError
from landau_lab.linear import _STRIP_RE_POINTS, fit_decay_rate, root_scan, solve_volterra
from landau_lab.models import bi_maxwellian, builtin_interaction, bump_on_tail
from landau_lab.norms import AnalyticNormSpec, GlidingNormSpec, analytic_norm, gliding_norm, spatial_norm
from landau_lab.sim import init_state, run, strang_step

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
    # one cell is no grid either: init_state would reject it mid-run
    for key in ("nx", "nv"):
        with pytest.raises(ConfigError, match=rf"\[grid\] {key} must be a power of two, got 1"):
            loads_config(MINIMAL + f"\n[grid]\n{key} = 1\n")


def test_readme_example_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    cfg = loads_config(block)
    assert cfg.experiment == "nonlinear_damping" and cfg.get("interaction", "strength") == 157.91367041742973
    assert cfg.get("observables", "ftilde") == ((1, 0.0),)


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
    # the benchmark's override form
    phase = 0.7853981633974483
    (mode,) = cfg.replace("perturbation", "modes", f"1:2e-3:{phase!r}").get("perturbation", "modes")
    assert (mode.k, mode.amplitude, mode.phase) == (1, 2e-3, phase)


def test_mode_items_take_at_most_a_phase():
    # the additive Gaussian shape and its width were removed: every mode multiplies f0
    with pytest.raises(ConfigError, match=r"expected k:amplitude\[:phase\]"):
        loads_config(MINIMAL + "\n[perturbation]\nmodes = 1:1e-3:0:gaussian:0.5\n")


@pytest.mark.parametrize("section, key, form, raws", [
    ("perturbation", "modes", "k:amplitude[:phase]", ("1", "1:1e-3:0:2")),
    ("perturbation", "kicks", "time:mode:amplitude[:phase]", ("4:-2", "4:-2:1e-3:0:1")),
    ("observables", "ftilde", "k:eta", ("1", "1:0.5:2")),
])
def test_each_item_syntax_names_its_form_on_a_wrong_field_count(section, key, form, raws):
    for raw in raws:
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} = {raw!r}: expected {form}")):
            loads_config(MINIMAL + f"\n[{section}]\n{key} = {raw}\n")


@pytest.mark.parametrize("section, key, raw, known", [
    ("norms", "p", "3", "known: 1, 2, inf"),
    ("interaction", "kind", "yukawa", "known: coulomb, newton, screened, none"),
    ("experiment", "name", "warp_drive", "known: " + ", ".join(EXPERIMENTS)),
])
def test_an_unknown_choice_names_the_known_values(section, key, raw, known):
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} = {raw!r}: unknown ")) as err:
        loads_config(MINIMAL.replace("nonlinear_damping", raw) if key == "name" else
                     MINIMAL + f"\n[{section}]\n{key} = {raw}\n")
    assert str(err.value).endswith(known)
    with pytest.raises(ConfigError, match=re.escape(known)):
        loads_config(MINIMAL).replace(section, key, raw)


def test_norm_index_p_parses_to_its_number():
    assert [loads_config(MINIMAL + f"\n[norms]\np = {raw}\n").get("norms", "p") for raw in ("1", "2", " inf")] == \
        [1, 2, np.inf]
    assert loads_config(MINIMAL).get("norms", "p") == 1


def test_replace_revalidates():
    cfg = loads_config(MINIMAL)
    cfg2 = cfg.replace("grid", "nv", "512")
    assert cfg2.get("grid", "nv") == 512
    with pytest.raises(ConfigError):
        cfg.replace("grid", "nv", "-8")
    with pytest.raises(ConfigError):
        cfg.replace("grid", "typo", "1")
    # the per-key ranges apply to replaced values as they do to loaded ones
    for section, key, raw in (("certify", "kappa", "-1"), ("time", "dt", "-0.5"), ("grid", "nx", "0")):
        with pytest.raises(ConfigError, match=rf"out of range for \[{section}\] {key}"):
            cfg.replace(section, key, raw)


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
    assert "rate_fit_k1" in meta
    assert "config.time.dt = 0.015625" in meta
    assert "config_hash = " in meta


def test_runner_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["run", str(write_cfg(tmp_path, LINEAR_FAST.format(out=out_a)))])
    code_b = main(["run", str(write_cfg(tmp_path, LINEAR_FAST.format(out=out_b)))])
    assert code_a == code_b == 0
    assert (out_a / "modes.csv").read_bytes() == (out_b / "modes.csv").read_bytes()
    assert (out_a / "decay.svg").read_bytes() == (out_b / "decay.svg").read_bytes()


def test_linear_damping_off_grid_t_end_exits_2(tmp_path, capsys):
    # as in nonlinear_damping: t_end = 8 is no multiple of dt = 0.03, so no modes.csv row past t_end is written
    text = LINEAR_FAST.format(out=tmp_path / "out").replace("dt = 0.015625", "dt = 0.03")
    text = text.replace("t_end = 4", "t_end = 8")
    assert main(["run", str(write_cfg(tmp_path, text))]) == 2
    assert "t_end = 8 is not a multiple of dt = 0.03" in capsys.readouterr().err
    assert "status = failed:config" in (tmp_path / "out" / "run.meta").read_text()
    assert not (tmp_path / "out" / "modes.csv").exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.ini")]) == 2
    assert "not found" in capsys.readouterr().err


def test_bad_key_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL + "\n[time]\ndtt = 1\n")
    assert main(["run", str(path)]) == 2
    # [experiment] seed was removed: nothing in the package is random
    path = write_cfg(tmp_path, MINIMAL + "seed = 1\n")
    assert main(["run", str(path)]) == 2
    assert "unknown key 'seed'" in capsys.readouterr().err
    # these tuned the lab's own checks, and no workload varied them: now constants
    for section, key in (("certify", "eta_max"), ("certify", "decay_k_max"),
                         ("echo", "floor"), ("echo", "min_separation")):
        path = write_cfg(tmp_path, MINIMAL + f"\n[{section}]\n{key} = 1\n")
        assert main(["run", str(path)]) == 2
        assert f"unknown key {key!r} in section [{section}]" in capsys.readouterr().err


@pytest.mark.parametrize("params", ["1.0, 0.5, 2.0, 9.0", "1.0, 0.5"])
def test_too_many_profile_params_exit_2(tmp_path, capsys, params):
    # maxwellian takes theta alone; lam and c0 are set by their own keys
    out = tmp_path / "o"
    text = LINEAR_FAST.format(out=out).replace("name = maxwellian", f"name = maxwellian\nparams = {params}")
    assert main(["run", str(write_cfg(tmp_path, text))]) == 2
    assert "status = failed:config" in (out / "run.meta").read_text()
    assert "'maxwellian' takes at most 1 parameter(s) (theta)" in capsys.readouterr().err


CERTIFY_COULOMB = """\
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


def test_certify_pass_and_fail(tmp_path):
    out = tmp_path / "ok"
    assert main(["certify", str(write_cfg(tmp_path, CERTIFY_COULOMB.format(out=out)))]) == 0
    report = (out / "stability_report.txt").read_text()
    assert "certified = true" in report
    assert "smallness_criterion" in report

    fail_cfg = CERTIFY_COULOMB.replace("kind = coulomb", "kind = newton").replace("strength = 1.0", "strength = 40.0")
    out2 = tmp_path / "fail"
    assert main(["certify", str(write_cfg(tmp_path, fail_cfg.format(out=out2)))]) == 4
    assert "certified = false" in (out2 / "stability_report.txt").read_text()
    assert "certification_failed" in (out2 / "run.meta").read_text()


# bench/configs/certify.ini: the Maxwellian under Newton, Jeans-unstable above 4 pi^2 = 39.48
CERTIFY_NEWTON = """\
[experiment]
name = certify

[profile]
name = maxwellian
params = 1.0

[interaction]
kind = newton
strength = {strength}

[certify]
lambda_strip = 0.5
kappa = 0.05

[output]
dir = {out}
"""


@pytest.mark.parametrize("strength", ["41", "42", "50", "58"])
def test_certify_fails_a_jeans_unstable_plasma(tmp_path, strength):
    # what(1) Psi(0) = strength / 4 pi^2 > 1 puts a growing real root on mode 1;
    # the sampled strip alone does not see it (at 42, 50 and 58 its margin passed)
    out = tmp_path / "o"
    assert main(["certify", str(write_cfg(tmp_path, CERTIFY_NEWTON.format(strength=strength, out=out)))]) == 4
    report = (out / "stability_report.txt").read_text()
    assert "certified = false\n" in report and "passed = false\n" in report
    assert "unstable_modes = 1\n" in report
    assert "status = certification_failed" in (out / "run.meta").read_text()


def test_a_jeans_zero_left_of_the_census_window_fails_loudly(tmp_path):
    # Newton 600: the growing real zero lies left of Re xi = -3, outside the
    # census window, where the bound on |L| (1.31) cannot rule growth out
    out = tmp_path / "run"
    text = LINEAR_FAST.format(out=out).replace("kind = coulomb\nstrength = 157.91367041742973",
                                               "kind = newton\nstrength = 600")
    assert main(["run", str(write_cfg(tmp_path, text))]) == 3
    meta = (out / "run.meta").read_text()
    assert "status = failed:numeric" in meta and "growth of mode k=1 is not excluded" in meta
    out = tmp_path / "certify"
    text = CERTIFY_NEWTON.format(strength="600", out=out).replace("kappa = 0.05", "kappa = 0.05\nk_max = 1")
    assert main(["certify", str(write_cfg(tmp_path, text))]) == 4
    report = (out / "stability_report.txt").read_text()
    assert "certified = false\n" in report and "unstable_modes = 0\n" in report
    assert ("1 - L may have a zero at Re zeta <= 0 outside the census window (outside score 1.31 >= 1): "
            "growth of mode k=1 is not excluded") in report


CERTIFY_TWO_STREAM = """\
[experiment]
name = certify

[profile]
name = bi_maxwellian
params = 2

[interaction]
kind = coulomb
strength = 100

[certify]
lambda_strip = 0.25
kappa = 0.05
k_max = 8

[output]
dir = {out}
"""


def test_certify_fails_a_stable_plasma_whose_root_lies_inside_the_strip(tmp_path):
    # bi_maxwellian(2) under Coulomb 100 is Penrose-stable, but mode 1 damps
    # slowly: its real root 0.196 lies inside the 0.25 strip, so the true L
    # reaches 1 there (the transform of |ft| certified it with kappa_est 0.173)
    out = tmp_path / "o"
    assert main(["certify", str(write_cfg(tmp_path, CERTIFY_TWO_STREAM.format(out=out)))]) == 4
    report = (out / "stability_report.txt").read_text()
    assert "certified = false\n" in report and "unstable_modes = 0\n" in report
    worst_xi = complex(re.search(r"^worst_xi = (\S+)$", report, re.M).group(1))
    root = root_scan(bi_maxwellian(drift=2.0), builtin_interaction("coulomb", 100.0), 1).root
    assert abs(worst_xi - root) <= 0.25 / _STRIP_RE_POINTS


def test_linear_damping_of_a_two_stream_unstable_plasma_exits_3(tmp_path):
    # bi_maxwellian(2) under Coulomb 150 has what(1) Psi(0) = 1.06 > 1, a growing
    # real root: no decay rate to predict
    out = tmp_path / "o"
    text = LINEAR_FAST.format(out=out).replace("name = maxwellian", "name = bi_maxwellian\nparams = 2").replace(
        "strength = 157.91367041742973", "strength = 150")
    assert main(["run", str(write_cfg(tmp_path, text))]) == 3
    meta = (out / "run.meta").read_text()
    assert "status = failed:numeric" in meta and "zero at zeta = -0.0338" in meta


def test_linear_damping_of_a_growing_bump_on_tail_exits_3(tmp_path):
    # bump_on_tail() under Coulomb 16 pi^2: the census's growing root, not the
    # damped 0.2554 + 4.1989i once reported, at the Volterra solution's growth
    out = tmp_path / "o"
    text = LINEAR_FAST.format(out=out).replace("name = maxwellian", "name = bump_on_tail")
    assert main(["run", str(write_cfg(tmp_path, text))]) == 3
    meta = (out / "run.meta").read_text()
    assert "status = failed:numeric" in meta and "zero at zeta = -0.0822+2.2427i" in meta
    rate = float(re.search(r"grows at rate (\S+),", meta).group(1))
    profile, interaction = bump_on_tail(), builtin_interaction("coulomb", 16.0 * np.pi**2)
    hist = solve_volterra(profile, interaction, lambda t: profile.ft(t), 1, 16.0, 1.0 / 64)
    growth = -fit_decay_rate(hist, (10.0, 16.0)).rate  # ln 1.69
    assert growth == pytest.approx(0.525, abs=0.005)
    assert rate == pytest.approx(growth, rel=0.03)


def test_linear_damping_without_interaction_predicts_no_rate(tmp_path):
    # kind none: 1 - L = 1 has no zero, so there is no root to predict a rate from
    out = tmp_path / "o"
    text = LINEAR_FAST.format(out=out).replace("kind = coulomb\nstrength = 157.91367041742973", "kind = none")
    assert main(["run", str(write_cfg(tmp_path, text))]) == 0
    meta = (out / "run.meta").read_text()
    assert "rate_predicted_k1 = none\n" in meta and "lambda_star_k1 = 1\n" in meta
    assert "rate_fit_k1 = " in meta


def test_echo_past_the_initial_modes_recurrence_exits_3(tmp_path):
    # k_initial = 2 recurs at t_R / 2 = 8 on this grid: the echo at t = 9 is refused
    out = tmp_path / "o"
    text = ECHO_SMALL.replace("tau_kick = 2", "tau_kick = 3\nk_initial = 2\nkick_mode = -3").replace(
        "dir = out", f"dir = {out}")
    assert main(["run", str(write_cfg(tmp_path, text))]) == 3
    meta = (out / "run.meta").read_text()
    assert "status = failed:numeric" in meta and "enlarge nv" in meta


@pytest.mark.parametrize("text", [CERTIFY_NEWTON.format(strength=20, out="{out}"), CERTIFY_COULOMB],
                         ids=["newton-20", "coulomb"])
def test_certify_stable_plasma_reports_no_unstable_mode(tmp_path, text):
    out = tmp_path / "o"
    assert main(["certify", str(write_cfg(tmp_path, text.format(out=out)))]) == 0
    report = (out / "stability_report.txt").read_text()
    assert "certified = true\n" in report and "unstable_modes = 0\n" in report


CERTIFY_ASYMMETRIC = """\
[experiment]
name = certify

[profile]
name = {name}
params = {params}

[interaction]
kind = coulomb
strength = 157.91367041742973

[certify]
lambda_strip = 0.1
kappa = 0.05
k_max = 8

[output]
dir = {out}
"""


@pytest.mark.parametrize("name, params", [("bi_maxwellian", "2, 1, 0.5, 0.3"), ("bump_on_tail", "0.3, 3.0, 0.5")],
                         ids=["bi_maxwellian", "bump_on_tail"])
def test_certify_fails_an_asymmetric_unstable_mixture(tmp_path, name, params):
    # mode 1 grows (a zero of 1 - L at Re xi < 0) while the strip's margin
    # passes: kappa_est 0.108 and 0.178 once certified these mixtures
    out = tmp_path / "o"
    text = CERTIFY_ASYMMETRIC.format(name=name, params=params, out=out)
    assert main(["certify", str(write_cfg(tmp_path, text))]) == 4
    report = (out / "stability_report.txt").read_text()
    assert "certified = false\n" in report and "unstable_modes = 1\n" in report and "warnings = none\n" in report
    assert float(re.search(r"^kappa_est = (\S+)$", report, re.M).group(1)) >= 0.05


SWEEP_STRENGTHS = ("20", "42", "50")


@pytest.fixture(scope="module")
def fresh_certify_runs(tmp_path_factory):
    """`landau-lab certify` of each sweep point, each in a fresh interpreter, under
    the output directory the sweep gives it; returns the output root."""
    root = tmp_path_factory.mktemp("fresh")
    for s in SWEEP_STRENGTHS:
        config = write_cfg(tmp_path_factory.mktemp(f"cfg{s}"), CERTIFY_NEWTON.format(strength=s, out=f"out/strength={s}"))
        proc = subprocess.run([sys.executable, "-m", "landau_lab.cli", "certify", str(config)],
                              env=_child_env(LANDAU_LAB_OUTPUT_ROOT=str(root)), capture_output=True, text=True)
        assert proc.returncode == (0 if s == "20" else 4), proc.stderr
    return root


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_certify_sweep_matches_fresh_process_runs(tmp_path, monkeypatch, fresh_certify_runs, jobs):
    # a sweep reuses each profile's analysis from point to point (and from
    # earlier tests in this process); its artifacts must be those of cold runs
    monkeypatch.setenv("LANDAU_LAB_OUTPUT_ROOT", str(tmp_path))
    path = write_cfg(tmp_path, CERTIFY_NEWTON.format(strength=20, out="out"))
    assert main(["sweep", str(path), "--param", "strength=" + ",".join(SWEEP_STRENGTHS), "--jobs", jobs]) == 4
    for s in SWEEP_STRENGTHS:
        sub = Path("out") / f"strength={s}"
        files = sorted(p.name for p in (tmp_path / sub).iterdir())
        assert files == ["run.meta", "stability_report.txt"]
        assert all((tmp_path / sub / f).read_bytes() == (fresh_certify_runs / sub / f).read_bytes() for f in files)


CERTIFY_SCREENED_DEFAULT_STRIP = """\
[experiment]
name = certify

[profile]
{profile}

[interaction]
kind = screened
strength = 4
screening = 0.5

[output]
dir = {out}
"""


@pytest.mark.parametrize("profile, strip", [
    ("name = maxwellian", "0.5"),
    # bump_on_tail's width is sqrt(0.25) = 0.5: a fixed 0.5 default sat on it and every run exited 2
    ("name = bump_on_tail\nparams = 0.1, 3.0, 0.25", "0.25"),
], ids=["maxwellian", "bump_on_tail"])
def test_unset_lambda_strip_is_half_the_profile_width(tmp_path, profile, strip):
    out = tmp_path / "o"
    text = CERTIFY_SCREENED_DEFAULT_STRIP.format(profile=profile, out=out)
    assert main(["certify", str(write_cfg(tmp_path, text))]) in (0, 4)
    assert f"config.certify.lambda_strip = {strip}\n" in (out / "run.meta").read_text()
    assert f"lambda_strip = {strip}\n" in (out / "stability_report.txt").read_text()


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


def test_importing_the_cli_loads_no_process_pool():
    # only `sweep --jobs` needs the pool; every other command skips its startup cost
    code = ("import sys, landau_lab.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweep_range_syntax_and_key_resolution(tmp_path, capsys):
    out = tmp_path / "sweep2"
    path = write_cfg(tmp_path, LINEAR_FAST.format(out=out))
    assert main(["sweep", str(path), "--param", "grid.nv=512..513", "--jobs", "1"]) == 2  # 513 not a power of two
    assert main(["sweep", str(path), "--param", "nosuchkey=1,2", "--jobs", "1"]) == 2
    assert main(["sweep", str(path), "--param", "name=a,b", "--jobs", "1"]) == 2  # ambiguous (experiment/profile)
    assert main(["sweep", str(path), "--param", "kappa=-1,0.2", "--jobs", "1"]) == 2  # kappa must be positive
    capsys.readouterr()
    assert main(["sweep", str(path), "--param", "kappa=0.1..0.5", "--jobs", "1"]) == 2  # a range needs integer bounds
    err = capsys.readouterr().err
    assert "kappa" in err and "0.1..0.5" in err


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


def _child_env(**env_extra: str) -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(landau_lab.__file__).resolve().parents[1])
    return dict(os.environ, **env_extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_cli_process(config: Path, root: Path, **env_extra: str) -> dict[str, bytes]:
    """`landau-lab run` in a fresh interpreter; returns the output files by name."""
    proc = subprocess.run([sys.executable, "-m", "landau_lab.cli", "run", str(config)],
                          env=_child_env(LANDAU_LAB_OUTPUT_ROOT=str(root), **env_extra),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in sorted((root / "out").iterdir())}


@pytest.mark.parametrize("text, artifacts", [
    (NONLINEAR_SMALL, "decay.svg,ftilde.csv,gradient_growth.svg,modes.csv,observables.csv"),
    (ECHO_SMALL, "echo_timeline.svg,echoes.csv"),
    (NORMS_SMALL, "norms.csv"),
    (LINEAR_FAST.format(out="out"), "decay.svg,modes.csv"),
    (CERTIFY_COULOMB.format(out="out"), "stability_report.txt"),
], ids=["nonlinear_damping", "echo", "norms", "linear_damping", "certify"])
def test_phase_space_experiment_succeeds_and_is_byte_identical_across_processes(tmp_path, text, artifacts):
    config = write_cfg(tmp_path, text)
    first = _run_cli_process(config, tmp_path / "a")
    second = _run_cli_process(config, tmp_path / "b")
    meta = first["run.meta"].decode()
    assert "status = ok" in meta
    assert f"artifacts = {artifacts}\n" in meta
    assert sorted(first) == sorted(artifacts.split(",") + ["run.meta"])
    assert first == second


# 12,288 steps: a history sum over every earlier step is a BLAS dot long
# enough to split over two threads
LINEAR_LONG = LINEAR_FAST.replace("dt = 0.015625", "dt = 0.0009765625").replace("t_end = 4", "t_end = 12")


@pytest.mark.parametrize("text", [LINEAR_FAST.format(out="out"), CERTIFY_COULOMB.format(out="out"),
                                  LINEAR_LONG.format(out="out")],
                         ids=["linear_damping", "certify", "linear_damping_n12288"])
def test_strip_scans_are_byte_identical_across_blas_thread_counts(tmp_path, text):
    # the strip transform is a BLAS matrix product, and the Volterra march sums
    # histories; their artifacts must not depend on the thread count
    config = write_cfg(tmp_path, text)
    one = _run_cli_process(config, tmp_path / "a", OPENBLAS_NUM_THREADS="1")
    two = _run_cli_process(config, tmp_path / "b", OPENBLAS_NUM_THREADS="2")
    assert one == two


# 4 x 65536: a BLAS dot over the velocity grid alone splits over two threads,
# both the real one of ekin and the complex one of an ftilde sample
NONLINEAR_WIDE_V = (NONLINEAR_SMALL.replace("nx = 16", "nx = 4").replace("nv = 256", "nv = 65536")
                    .replace("t_end = 4", "t_end = 0.5").replace("k_obs = 2", "k_obs = 1")
                    .replace("ftilde = 1:0.0", "ftilde = 1:0.5").replace("fit_t_min = 0.5", "fit_t_min = 0")
                    .replace("fit_t_max = 3", "fit_t_max = 0.5"))


@pytest.mark.parametrize("text", [NONLINEAR_SMALL, ECHO_SMALL, NORMS_SMALL, NONLINEAR_WIDE_V],
                         ids=["nonlinear_damping", "echo", "norms", "nonlinear_damping_nv65536"])
def test_phase_space_artifacts_are_byte_identical_across_blas_thread_counts(tmp_path, text):
    # at 32 x 1024 the whole-field sums of the observables are long enough for
    # a BLAS dot product to split over two threads; they must not depend on it
    # (the wide-v config keeps its own grid)
    config = write_cfg(tmp_path, text.replace("nx = 16", "nx = 32").replace("nv = 256", "nv = 1024"))
    one = _run_cli_process(config, tmp_path / "a", OPENBLAS_NUM_THREADS="1")
    two = _run_cli_process(config, tmp_path / "b", OPENBLAS_NUM_THREADS="2")
    assert one == two


# ---------------------------------------------------------------------------
# run.meta records, and hashes, the config keys the run read

EXPERIMENT_CONFIGS = {
    "linear_damping": LINEAR_FAST.format(out="out"),
    "nonlinear_damping": NONLINEAR_SMALL,
    "certify": CERTIFY_COULOMB.format(out="out"),  # sets lambda_strip: no resolved copy of the config
    "echo": ECHO_SMALL,
    "norms": NORMS_SMALL,
}


class RecordingSection(dict):
    """One config section that records each key looked up, also by ``**section``."""

    def __init__(self, section, keys, read):
        super().__init__(keys)
        self.section, self.read = section, read

    def __getitem__(self, key):
        self.read.add((self.section, key))
        return super().__getitem__(key)

    def __iter__(self):  # an overridden iterator sends ``**section`` through __getitem__
        return super().__iter__()


def _listed_keys(name):
    """The (section, key) pairs that the experiment table lists for an experiment."""
    pairs = set()
    for entry in EXPERIMENTS[name]:
        section, _, key = entry.partition(".")
        pairs |= {(section, k) for k in ([key] if key else _SCHEMA[section])}
    return pairs


def test_the_experiment_table_and_the_dispatch_name_the_same_experiments():
    assert set(cli._DISPATCH) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENT_CONFIGS))
def test_run_meta_records_the_sections_the_experiment_reads(tmp_path, monkeypatch, name):
    monkeypatch.setenv("LANDAU_LAB_OUTPUT_ROOT", str(tmp_path))
    read = set()
    loaded = loads_config(EXPERIMENT_CONFIGS[name]).values
    values = {s: RecordingSection(s, keys, read) for s, keys in loaded.items()}
    read_before_meta = []
    write_meta = cli._write_meta

    def recording_write_meta(*args, **kwargs):
        read_before_meta.append(set(read))
        write_meta(*args, **kwargs)

    monkeypatch.setattr(cli, "_write_meta", recording_write_meta)
    assert run_experiment(ExperimentConfig(values=values)) == 0
    assert read_before_meta == [_listed_keys(name)]
    meta = (tmp_path / "out" / "run.meta").read_text().splitlines()
    recorded = {tuple(line.split(" = ")[0].split(".")[1:]) for line in meta if line.startswith("config.")}
    assert recorded == {(s, k) for s, k in _listed_keys(name) if values[s][k] is not None}
    # t_R is a property of the velocity grid, which linear_damping and certify do not use
    assert any(line.startswith("recurrence_time = ") for line in meta) == (name not in ("linear_damping", "certify"))


def test_an_unread_key_changes_neither_run_meta_nor_its_hash(tmp_path, monkeypatch):
    metas = []
    for root, lam in (("a", "0.4"), ("b", "0.3")):  # linear_damping reads no [norms] key
        monkeypatch.setenv("LANDAU_LAB_OUTPUT_ROOT", str(tmp_path / root))
        assert run_experiment(loads_config(LINEAR_FAST.format(out="out") + f"\n[norms]\nlam = {lam}\n")) == 0
        metas.append((tmp_path / root / "out" / "run.meta").read_bytes())
    assert metas[0] == metas[1]


def test_an_unread_key_of_a_read_section_changes_neither_run_meta_nor_its_hash(tmp_path, monkeypatch):
    # linear_damping reads [time] dt and t_end, but not observe_stride
    metas = []
    for root, stride in (("a", "1"), ("b", "4")):
        monkeypatch.setenv("LANDAU_LAB_OUTPUT_ROOT", str(tmp_path / root))
        text = LINEAR_FAST.format(out="out").replace("t_end = 4", f"t_end = 4\nobserve_stride = {stride}")
        assert run_experiment(loads_config(text)) == 0
        metas.append((tmp_path / root / "out" / "run.meta").read_text())
    assert metas[0] == metas[1]
    assert "config.time.t_end = 4.0\n" in metas[0] and "observe_stride" not in metas[0]


@pytest.mark.parametrize("interaction, key, recorded", [
    ("kind = none\nstrength = {}", "strength", False),
    ("kind = coulomb\nstrength = 157.91367041742973\nscreening = {}", "screening", False),
    ("kind = screened\nstrength = 157.91367041742973\nscreening = {}", "screening", True),
], ids=["none-strength", "coulomb-screening", "screened-screening"])
def test_run_meta_records_only_the_interaction_keys_the_kind_reads(tmp_path, monkeypatch, interaction, key, recorded):
    # both runs write into one output dir, so config.output.dir is the same
    monkeypatch.setenv("LANDAU_LAB_OUTPUT_ROOT", str(tmp_path))
    metas = []
    for value in ("1.0", "2.0"):
        text = LINEAR_FAST.format(out="out").replace("kind = coulomb\nstrength = 157.91367041742973",
                                                     interaction.format(value))
        assert run_experiment(loads_config(text)) == 0
        metas.append((tmp_path / "out" / "run.meta").read_text())
    assert (metas[0] == metas[1]) is not recorded
    assert (f"config.interaction.{key} = 1.0\n" in metas[0]) is recorded


def test_nonlinear_run_meta_records_each_mode_horizon_and_the_x_nyquist_content(tmp_path, monkeypatch):
    monkeypatch.setenv("LANDAU_LAB_OUTPUT_ROOT", str(tmp_path))
    assert main(["run", str(write_cfg(tmp_path, NONLINEAR_SMALL))]) == 0
    meta = dict(line.split(" = ", 1) for line in (tmp_path / "out" / "run.meta").read_text().splitlines())
    # t_R(k) = nv / (2 vmax k) = 16 / k on 16 x 256 with vmax 8, for k = 1..k_obs
    assert [(k, v) for k, v in meta.items() if k.startswith("recurrence_time")] == [
        ("recurrence_time", "16"), ("recurrence_time_k1", "16"), ("recurrence_time_k2", "8")]
    assert float(meta["x_nyquist_content"]) < 1e-10


def test_failed_rate_fit_is_reported_in_meta(tmp_path):
    # a 0.1-wide window holds two samples at observe stride 1/16: too few to fit
    text = NONLINEAR_SMALL.replace("t_end = 4", "t_end = 2").replace("fit_t_max = 3", "fit_t_max = 0.6")
    meta = _run_cli_process(write_cfg(tmp_path, text), tmp_path / "a")["run.meta"].decode()
    assert "status = ok" in meta
    assert "rate_fit_k1_error = fewer than 3 usable envelope points in window\n" in meta
    assert "rate_fit_k1 =" not in meta and "rate_fit_r2_k1" not in meta


def test_norms_rows_match_per_snapshot_strang_steps(tmp_path):
    cfg = loads_config(NORMS_SMALL.replace("dir = out", f"dir = {tmp_path / 'norms'}"))
    assert run_experiment(cfg) == 0
    with open(tmp_path / "norms" / "norms.csv", newline="") as fh:
        got = list(csv.reader(fh))[1:]
    sec, dt, interaction = cfg.values["norms"], cfg.get("time", "dt"), cfg.build_interaction()
    cur = init_state(cfg.build_profile(), cfg.build_perturbation(),
                     cfg.get("grid", "nx"), cfg.get("grid", "nv"), cfg.get("grid", "vmax"))
    expected = []
    for t in sorted(sec["times"]):
        while cur.time < t - 1e-12:
            cur = strang_step(cur, interaction, dt)
        expected += _norm_rows(cur, sec)
    assert len(got) == len(expected) == 12
    for row, ref in zip(got, expected):
        assert row[:7] == ref[:7]
        value, remainder = float(ref[7]), float(ref[8])
        assert float(row[7]) == pytest.approx(value, rel=1e-12)
        assert abs(float(row[8]) - remainder) <= 1e-12 * abs(value)


def test_norm_index_inf_reaches_the_gliding_norm_and_both_artifacts(tmp_path, monkeypatch):
    monkeypatch.setenv("LANDAU_LAB_OUTPUT_ROOT", str(tmp_path))
    specs = []

    def recording_spec(**kwargs):
        specs.append(GlidingNormSpec(**kwargs))
        return specs[-1]

    monkeypatch.setattr(cli, "GlidingNormSpec", recording_spec)
    assert run_experiment(loads_config(NORMS_SMALL.replace("k_max = 2", "k_max = 2\np = inf"))) == 0
    assert len(specs) == 4 and all(spec.p == np.inf for spec in specs)
    with open(tmp_path / "out" / "norms.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["p"] for r in rows if r["family"] == "gliding"] == ["inf"] * 4
    assert "config.norms.p = inf\n" in (tmp_path / "out" / "run.meta").read_text()


def test_norms_experiment_applies_the_perturbation_kicks(tmp_path):
    # the kick at t = 0.5 is the impulse of step 8 at dt 1/16, as in `run`;
    # past t = 1 the kicked field is no longer resolved in v for n_max = 12
    text = NORMS_SMALL.replace("modes = 1:2e-3", "modes = 1:2e-3\nkicks = 0.5:1:0.5").replace(
        "times = 2,0,0.5,1", "times = 1,0,0.5,0.75")
    cfg = loads_config(text.replace("dir = out", f"dir = {tmp_path / 'norms'}"))
    assert run_experiment(cfg) == 0
    with open(tmp_path / "norms" / "norms.csv", newline="") as fh:
        got = list(csv.reader(fh))[1:]
    sec, dt, interaction = cfg.values["norms"], cfg.get("time", "dt"), cfg.build_interaction()
    cur = init_state(cfg.build_profile(), cfg.build_perturbation(),
                     cfg.get("grid", "nx"), cfg.get("grid", "nv"), cfg.get("grid", "vmax"))
    wave = 0.5 * np.cos(2 * np.pi * np.arange(cur.nx) / cur.nx)
    expected = []
    for t in sorted(sec["times"]):
        while cur.time < t - 1e-12:
            cur = strang_step(cur, interaction, dt, impulse=wave if round(cur.time / dt) == 8 else None)
        expected += _norm_rows(cur, sec)
    assert len(got) == len(expected) == 12
    for row, ref in zip(got, expected):
        assert row[:7] == ref[:7]
        value, remainder = float(ref[7]), float(ref[8])
        assert float(row[7]) == pytest.approx(value, rel=1e-12)
        assert abs(float(row[8]) - remainder) <= 1e-12 * abs(value)


@pytest.mark.parametrize("kick", ["2:1:0.5", "0.53:1:0.5"])
def test_a_norms_kick_after_the_last_snapshot_or_off_the_step_grid_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                                                     kick):
    monkeypatch.setenv("LANDAU_LAB_OUTPUT_ROOT", str(tmp_path))
    text = NORMS_SMALL.replace("modes = 1:2e-3", f"modes = 1:2e-3\nkicks = {kick}")
    assert main(["run", str(write_cfg(tmp_path, text))]) == 2
    assert f"kick time {float(kick.split(':')[0]):g} must sit on the step grid within [0, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("times", ["2,0,0.53,1", "2,-0.5,1"], ids=["off-grid", "negative"])
def test_a_norms_time_off_the_step_grid_is_a_config_error(tmp_path, monkeypatch, capsys, times):
    monkeypatch.setenv("LANDAU_LAB_OUTPUT_ROOT", str(tmp_path))
    text = NORMS_SMALL.replace("times = 2,0,0.5,1", f"times = {times}")
    assert main(["run", str(write_cfg(tmp_path, text))]) == 2
    bad = [t for t in times.split(",") if t in ("0.53", "-0.5")][0]
    assert f"time {float(bad):g} is not a nonnegative multiple of dt = 0.0625" in capsys.readouterr().err
    assert "status = failed:config" in (tmp_path / "out" / "run.meta").read_text()


@pytest.mark.parametrize("text, change, mode", [
    (NONLINEAR_SMALL, ("modes = 1:2e-3", "modes = 13:1e-3\nkicks = 0.5:20:1e-3"), 13),
    (NONLINEAR_SMALL, ("modes = 1:2e-3", "modes = 1:2e-3\nkicks = 0.5:-9:1e-3"), -9),
    (NORMS_SMALL, ("modes = 1:2e-3", "modes = 13:1e-3"), 13),
    (NORMS_SMALL, ("modes = 1:2e-3", "modes = 1:2e-3\nkicks = 0.5:9:1e-3"), 9),
    (ECHO_SMALL, ("tau_kick = 2", "tau_kick = 2\nkick_mode = -9"), -9),
    (ECHO_SMALL, ("tau_kick = 2", "tau_kick = 2\nkick_mode = -9\namp_kick = 0"), -9),
], ids=["nonlinear-mode", "nonlinear-kick", "norms-mode", "norms-kick", "echo-kick", "echo-control-kick"])
def test_a_mode_beyond_the_x_nyquist_mode_is_a_config_error(tmp_path, monkeypatch, capsys, text, change, mode):
    # on 16 x 256 mode 13 would alias onto k = 3, and a mode-9 kick onto k = 7
    monkeypatch.setenv("LANDAU_LAB_OUTPUT_ROOT", str(tmp_path))
    assert main(["run", str(write_cfg(tmp_path, text.replace(*change)))]) == 2
    assert f"mode {mode} lies beyond the spatial Nyquist mode 8" in capsys.readouterr().err
    assert "status = failed:config" in (tmp_path / "out" / "run.meta").read_text()


def test_the_x_nyquist_mode_itself_is_on_the_grid(tmp_path, monkeypatch, capsys):
    # on the grid, but the x-Nyquist row does not stream: a mode there is refused
    monkeypatch.setenv("LANDAU_LAB_OUTPUT_ROOT", str(tmp_path))
    text = NONLINEAR_SMALL.replace("modes = 1:2e-3", "modes = 1:2e-3; 8:1e-4\nkicks = 0.5:-8:1e-4")
    assert main(["run", str(write_cfg(tmp_path, text))]) == 2
    assert "mode 8 is the spatial Nyquist mode 8, which does not stream" in capsys.readouterr().err
    assert "status = failed:config" in (tmp_path / "out" / "run.meta").read_text()


def _norms_snapshot():
    """The NORMS_SMALL field at t = 1 and its [norms] section."""
    cfg = loads_config(NORMS_SMALL)
    interaction = cfg.build_interaction()
    cur = init_state(cfg.build_profile(), cfg.build_perturbation(),
                     cfg.get("grid", "nx"), cfg.get("grid", "nv"), cfg.get("grid", "vmax"))
    while cur.time < 1.0 - 1e-12:
        cur = strang_step(cur, interaction, cfg.get("time", "dt"))
    return cur, cfg.values["norms"]


def test_norm_rows_take_one_x_transform_per_snapshot(monkeypatch):
    # the snapshot is built from its spectrum, which every norm reads; the
    # |f| integral inverts it once, and nothing transforms it forward
    state, sec = _norms_snapshot()
    calls = []

    def counting(name):
        fn = getattr(np.fft, name)

        def wrapper(a, *args, **kwargs):
            if np.ndim(a) == 2 and kwargs.get("axis", -1) == 0:
                calls.append(name)
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting(name))
    _norm_rows(state, sec)
    assert calls == ["irfft"]


def test_norm_rows_equal_the_public_norms_bit_for_bit():
    state, sec = _norms_snapshot()
    gliding, _, analytic = _norm_rows(state, sec)
    g = gliding_norm(state, GlidingNormSpec(lam=sec["lam"], mu=sec["mu"], gamma=sec["gamma"], p=1,
                                            tau=state.time, n_max=sec["n_max"], k_max=sec["k_max"]))
    a = analytic_norm(state, AnalyticNormSpec(lam=sec["lam"], mu=sec["mu"], beta=_ANALYTIC_BETA))
    assert (float(gliding[7]), float(gliding[8])) == (g.value, g.remainder)
    assert float(analytic[7]) == a


def test_norm_rows_at_mu_zero_equal_the_public_analytic_norm():
    # [norms] mu may be 0, and the analytic norm takes it as it is
    state, sec = _norms_snapshot()
    sec = dict(sec, mu=0.0)
    analytic = _norm_rows(state, sec)[2]
    assert float(analytic[7]) == analytic_norm(state, AnalyticNormSpec(lam=sec["lam"], mu=0.0, beta=_ANALYTIC_BETA))


def test_norms_experiment_takes_no_x_transform_per_snapshot(tmp_path, monkeypatch):
    # the stepper's forward x-FFTs (one for the input, one per step) are the
    # only two-dimensional x-transforms: every snapshot reads the spectrum
    cfg = loads_config(NORMS_SMALL.replace("dir = out", f"dir = {tmp_path / 'norms'}"))
    rfft, axes = np.fft.rfft, []

    def counting_rfft(a, *args, **kwargs):
        if np.ndim(a) == 2:
            axes.append(kwargs.get("axis", -1))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    assert run_experiment(cfg) == 0
    n_steps = int(round(max(cfg.get("norms", "times")) / cfg.get("time", "dt")))
    assert axes.count(0) == n_steps + 1


def test_norms_spatial_coefficients_equal_run_rho_modes_bit_for_bit(tmp_path, monkeypatch):
    cfg = loads_config(NORMS_SMALL.replace("dir = out", f"dir = {tmp_path / 'norms'}"))
    seen = []

    def recording_spatial_norm(coeffs, weight, gamma=0.0):
        seen.append(dict(coeffs))
        return spatial_norm(coeffs, weight, gamma)

    monkeypatch.setattr(landau_lab.cli, "spatial_norm", recording_spatial_norm)
    assert run_experiment(cfg) == 0
    dt, k_max = cfg.get("time", "dt"), cfg.get("norms", "k_max")
    log = run(cfg.build_profile(), cfg.build_interaction(), cfg.build_perturbation(), **cfg.values["grid"],
              dt=dt, t_end=2.0, observe_stride=1, k_obs=k_max)
    times = sorted(cfg.get("norms", "times"))
    assert len(seen) == len(times)
    for t, coeffs in zip(times, seen):
        row = log.rho_modes[int(round(t / dt))]
        assert coeffs and all(coeffs[k] == row[k] for k in coeffs)
    assert sorted(seen[-1]) == list(range(k_max + 1))  # every mode is live by t = 2


def _norms_csv(tmp_path, text):
    cfg = loads_config(text.replace("dir = out", f"dir = {tmp_path / 'norms'}"))
    assert run_experiment(cfg) == 0
    with open(tmp_path / "norms" / "norms.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_norms_tau_follows_the_snapshot_time_unless_set(tmp_path):
    rows = _norms_csv(tmp_path / "a", NORMS_SMALL)
    assert len(rows) == 12 and all(float(r["tau"]) == float(r["t"]) for r in rows)
    fixed = _norms_csv(tmp_path / "b", NORMS_SMALL.replace("lam = 0.2", "lam = 0.2\ntau = 0.5"))
    assert {r["family"] for r in fixed} == {"gliding", "spatial", "analytic"}
    assert all(r["tau"] == "0.5" for r in fixed)
    # tau = t at t = 0.5: the fixed-tau rows of that snapshot are the same
    assert [r for r in fixed if r["t"] == "0.5"] == [r for r in rows if r["t"] == "0.5"]


def test_norms_tau_mode_is_an_unknown_key(tmp_path, capsys):
    text = NORMS_SMALL.replace("lam = 0.2", "lam = 0.2\ntau_mode = time")
    assert main(["run", str(write_cfg(tmp_path, text))]) == 2
    assert "unknown key 'tau_mode'" in capsys.readouterr().err
