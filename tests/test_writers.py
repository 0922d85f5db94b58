"""The CSV artifact writers against a row-at-a-time oracle.

The oracle is the reference format: every float field as ``f"{x:.17g}"``
of its NumPy scalar, ``abs`` as the scalar ``abs(z)``, and each row passed
through ``csv.writer`` (comma-separated, CRLF line ends).  The column
writers must give the same bytes on edge values.
"""

import csv

import numpy as np

from landau_lab.cli import run_experiment
from landau_lab.config import loads_config
from landau_lab.linear import solve_volterra
from landau_lab.sim import ObservableLog

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
