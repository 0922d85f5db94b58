"""The CSV artifact writers against a row-at-a-time oracle.

The oracle is the reference format: every float field as ``f"{x:.17g}"``
of its NumPy scalar, ``abs`` as the scalar ``abs(z)``, and each row passed
through ``csv.writer`` (comma-separated, CRLF line ends).  The column
writers must give the same bytes on edge values.
"""

import csv
import dataclasses

import numpy as np
import pytest

from landau_lab.cli import _norm_rows, _write_echoes_csv, run_experiment
from landau_lab.config import loads_config
from landau_lab.echoes import EchoPrediction, Peak
from landau_lab.linear import solve_volterra
from landau_lab.sim import ObservableLog, PhaseSpaceField, _trajectory

EDGE = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0, 2.5e-17,
                 123456789.123, 1.0, -2.0])


def _edge_complex(n_random: int = 1025) -> np.ndarray:
    """Complex edge values, then random samples with those where ``np.abs`` and hypot differ first."""
    special = [complex(a, b) for a in EDGE for b in EDGE[::3]]
    z = np.random.default_rng(7).standard_normal((n_random, 2)) @ np.array([1.0, 1j])
    z *= np.exp(np.random.default_rng(8).uniform(-30.0, 30.0, n_random))
    differ = np.abs(z) != np.hypot(z.real, z.imag)
    return np.concatenate([np.array(special), z[differ], z[~differ]])


def oracle_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def oracle_modes_rows(rows):
    return ([f"{t:.17g}", k, f"{z.real:.17g}", f"{z.imag:.17g}", f"{abs(z):.17g}"] for t, k, z in rows)


def _edge_log() -> ObservableLog:
    """A log whose every column runs through the edge values, and whose modes hold every edge complex."""
    z = _edge_complex()
    n = len(z)
    cols = [np.resize(np.roll(EDGE, s), n) for s in range(6)]
    table = np.stack([z, z[::-1], np.roll(z, 7)], axis=1)
    return ObservableLog(
        times=cols[0], mass=cols[1], ekin=cols[2], epot=cols[3], l2=cols[4], gradv_l2=cols[5], k_obs=2,
        rho_modes=table, ftilde_points=((1, 0.0), (-2, 5e-324), (3, -1.5)), ftilde=table[::-1].copy(),
        recurrence={1: 64.0, 2: 32.0},
    )


def test_observable_log_writers_match_the_row_oracle_on_edge_values(tmp_path):
    log = _edge_log()
    log.write_observables_csv(tmp_path / "observables.csv")
    log.write_modes_csv(tmp_path / "modes.csv")
    log.write_ftilde_csv(tmp_path / "ftilde.csv")
    columns = (log.times, log.mass, log.ekin, log.epot, log.l2, log.gradv_l2)
    oracle_csv(tmp_path / "observables_ref.csv", ["t", "mass", "ekin", "epot", "l2", "gradv_l2"],
               ([f"{x:.17g}" for x in row] for row in zip(*columns)))
    oracle_csv(tmp_path / "modes_ref.csv", ["t", "k", "re", "im", "abs"], oracle_modes_rows(
        (t, k, log.rho_modes[i, k]) for i, t in enumerate(log.times) for k in range(log.k_obs + 1)))
    oracle_csv(tmp_path / "ftilde_ref.csv", ["t", "k", "eta", "re", "im"], (
        [f"{t:.17g}", k, f"{eta:.17g}", f"{z.real:.17g}", f"{z.imag:.17g}"]
        for i, t in enumerate(log.times) for (k, eta), z in zip(log.ftilde_points, log.ftilde[i])))
    for name in ("observables", "modes", "ftilde"):
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}_ref.csv").read_bytes(), name
        assert got.count(b"\r\n") == len(log.times) * {"observables": 1, "modes": 3, "ftilde": 3}[name] + 1


def test_an_empty_log_writes_header_only_tables(tmp_path):
    empty = np.empty(0)
    log = ObservableLog(times=empty, mass=empty, ekin=empty, epot=empty, l2=empty, gradv_l2=empty, k_obs=1,
                        rho_modes=np.empty((0, 2), dtype=complex), ftilde_points=(),
                        ftilde=np.empty((0, 0), dtype=complex), recurrence={1: 1.0})
    log.write_modes_csv(tmp_path / "modes.csv")
    log.write_ftilde_csv(tmp_path / "ftilde.csv")
    assert (tmp_path / "modes.csv").read_bytes() == b"t,k,re,im,abs\r\n"
    assert (tmp_path / "ftilde.csv").read_bytes() == b"t,k,eta,re,im\r\n"


LINEAR_TWO_MODES = """\
[experiment]
name = linear_damping

[interaction]
kind = coulomb
strength = 157.91367041742973

[time]
dt = 0.03125
t_end = 2

[linear]
k_list = 2,1
amplitude = 1e-3
fit_t_min = 0.25
fit_t_max = 1.5

[output]
dir = {out}
"""


def test_linear_modes_csv_is_the_oracle_table_of_its_histories(tmp_path):
    cfg = loads_config(LINEAR_TWO_MODES.format(out=tmp_path / "out"))
    assert run_experiment(cfg) == 0
    profile, interaction, amp = cfg.build_profile(), cfg.build_interaction(), cfg.get("linear", "amplitude")
    rows = []
    for k in (2, 1):
        hist = solve_volterra(profile, interaction, lambda t, k=k: 0.5 * amp * profile.ft(k * t), k, 2.0, 0.03125)
        rows += [(t, k, v) for t, v in zip(hist.times, hist.values)]
    oracle_csv(tmp_path / "ref.csv", ["t", "k", "re", "im", "abs"], oracle_modes_rows(rows))
    assert (tmp_path / "out" / "modes.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def oracle_echo_rows(rep):
    pred, peak = rep.prediction, rep.match
    return [[
        pred.k, pred.ell, f"{rep.tau_kick:.17g}", f"{pred.t_echo:.17g}",
        "" if peak is None else f"{peak.time:.17g}",
        "" if peak is None else f"{peak.amplitude:.17g}",
        "" if peak is None else f"{rep.rel_error:.17g}",
    ]]


def _edge_echo_reports(rep):
    """``rep`` with every float field of its row run through the edge values, with and without a match."""
    floats = [float(x) for x in EDGE]
    for s in range(len(floats)):
        a, b, c, d, e = (floats[(s + i) % len(floats)] for i in range(5))
        pred = EchoPrediction(k=(-1) ** s * (s + 1), ell=s - 3, t_echo=b)
        yield dataclasses.replace(rep, tau_kick=a, prediction=pred, match=Peak(time=c, amplitude=d), rel_error=e)
        yield dataclasses.replace(rep, tau_kick=a, prediction=pred, match=None, rel_error=float("nan"))


@pytest.mark.parametrize("which", ["matched", "control", "edge"])
def test_echoes_csv_matches_the_row_oracle(tmp_path, echo_sweep, echo_control, which):
    reports = {"matched": [echo_sweep[4.0]], "control": [echo_control],
               "edge": list(_edge_echo_reports(echo_sweep[4.0]))}[which]
    header = ["k", "ell", "tau_kick", "t_predicted", "t_detected", "amplitude", "rel_error"]
    for rep in reports:
        _write_echoes_csv(tmp_path / "echoes.csv", rep)
        oracle_csv(tmp_path / "echoes_ref.csv", header, oracle_echo_rows(rep))
        assert (tmp_path / "echoes.csv").read_bytes() == (tmp_path / "echoes_ref.csv").read_bytes()
    if which == "control":
        assert (tmp_path / "echoes.csv").read_bytes().endswith(b",,,\r\n")


NORMS_SMALL = """\
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
times = {times}

[output]
dir = {out}
"""


@pytest.mark.parametrize("times", ["1,0,0.5", ""], ids=["three-snapshots", "no-snapshot"])
def test_norms_csv_is_the_oracle_table_of_its_rows(tmp_path, times):
    cfg = loads_config(NORMS_SMALL.format(times=times, out=tmp_path / "out"))
    assert run_experiment(cfg) == 0
    sec, grid = cfg.values["norms"], cfg.values["grid"]
    rows = []
    for t, fk in _trajectory(cfg.build_profile(), cfg.build_interaction(), cfg.build_perturbation(), **grid,
                             dt=cfg.get("time", "dt"), times=sorted(sec["times"])):
        rows += _norm_rows(PhaseSpaceField(**grid, spectrum=fk, time=t), sec)
    oracle_csv(tmp_path / "ref.csv", ["t", "family", "lambda", "mu", "gamma", "p", "tau", "value", "remainder"], rows)
    got = (tmp_path / "out" / "norms.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    assert got.count(b"\r\n") == 3 * len(sec["times"]) + 1
