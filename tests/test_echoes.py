"""Echo timing law, peak detection, two-pulse behavior."""

import csv

import numpy as np
import pytest

from landau_lab.cli import _write_echoes_csv
from landau_lab.echoes import detect_peaks, predict_echo_time, run_echo_experiment
from landau_lab.errors import NumericError
from landau_lab.linear import ModeHistory
from landau_lab.models import builtin_interaction, maxwellian
from landau_lab.sim import KickEvent, PerturbationMode, PerturbationSpec, run

# ---------------------------------------------------------------------------
# timing law


def test_predict_echo_time_values():
    assert predict_echo_time(2, -1, 2.0).t_echo == pytest.approx(3.0)
    assert predict_echo_time(1, -1, 5.0).t_echo == pytest.approx(10.0)
    assert predict_echo_time(-1, 1, 4.0).t_echo == pytest.approx(8.0)


def test_predict_echo_time_rejects_degenerate_modes():
    with pytest.raises(ValueError):
        predict_echo_time(2, 2, 1.0)  # ell = k
    with pytest.raises(ValueError):
        predict_echo_time(2, 1, 1.0)  # echo not after the kick
    with pytest.raises(ValueError):
        predict_echo_time(0, -1, 1.0)


# ---------------------------------------------------------------------------
# peak detection


def test_detect_peaks_two_gaussians():
    t = np.arange(0.0, 14.0, 0.01)
    vals = np.exp(-((t - 5.0) ** 2)) + np.exp(-((t - 9.0) ** 2))
    peaks = detect_peaks(ModeHistory(k=1, times=t, values=vals + 0j), floor=0.1, min_separation=1.0)
    assert len(peaks) == 2
    assert peaks[0].time == pytest.approx(5.0, abs=0.01)
    assert peaks[1].time == pytest.approx(9.0, abs=0.01)


def test_detect_peaks_monotone_returns_empty():
    t = np.arange(0.0, 5.0, 0.01)
    hist = ModeHistory(k=1, times=t, values=np.exp(-t) + 0j)
    assert detect_peaks(hist, floor=1e-6, min_separation=0.1) == []


def test_detect_peaks_floor_above_max():
    t = np.arange(0.0, 5.0, 0.01)
    hist = ModeHistory(k=1, times=t, values=np.exp(-((t - 2) ** 2)) + 0j)
    assert detect_peaks(hist, floor=2.0, min_separation=0.1) == []


def test_detect_peaks_separation_keeps_dominant():
    t = np.arange(0.0, 10.0, 0.01)
    vals = np.exp(-((t - 4.0) ** 2)) + 0.2 * np.exp(-((t - 4.8) ** 2) / 0.01)
    peaks = detect_peaks(ModeHistory(k=1, times=t, values=vals + 0j), floor=0.1, min_separation=2.0)
    assert len(peaks) == 1
    assert peaks[0].time == pytest.approx(4.0, abs=0.05)


# ---------------------------------------------------------------------------
# two-pulse experiments (session fixtures shared with the acceptance gates)


def test_echo_times_scale_linearly_with_kick_time(echo_sweep):
    detected = {tau: rep.match.time for tau, rep in echo_sweep.items()}
    slope34 = detected[4.0] / detected[3.0]
    slope45 = detected[5.0] / detected[4.0]
    assert slope34 == pytest.approx(4.0 / 3.0, rel=0.02)
    assert slope45 == pytest.approx(5.0 / 4.0, rel=0.02)


def test_echo_amplitude_grows_with_kick_time(echo_sweep):
    # later kicks act on a longer-filamented store, whose larger velocity
    # frequency boosts the coupling in proportion to tau
    amps = [echo_sweep[tau].match.amplitude for tau in (3.0, 4.0, 5.0)]
    assert amps[0] < amps[1] < amps[2]
    for tau, amp in zip((3.0, 4.0, 5.0), amps):
        assert amp == pytest.approx(np.pi * tau * 1e-3 * 0.5e-3, rel=0.15)


def written_rows(rep, tmp_path) -> list[list[str]]:
    """The data rows of the ``echoes.csv`` that the echo experiment writes for ``rep``."""
    _write_echoes_csv(tmp_path / "echoes.csv", rep)
    with open(tmp_path / "echoes.csv", newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_echo_report_metadata(echo_sweep, tmp_path):
    rep = echo_sweep[4.0]
    assert rep.prediction.k == -1
    assert (rep.prediction.k, rep.prediction.ell) == (-1, 1)
    assert rep.match in rep.peaks
    assert rep.rel_error == abs(rep.match.time - rep.prediction.t_echo) / rep.prediction.t_echo
    rows = written_rows(rep, tmp_path)
    assert len(rows) == 1 and rows[0][0] == "-1" and rows[0][1] == "1"
    assert rows[0][4:] == [f"{rep.match.time:.17g}", f"{rep.match.amplitude:.17g}", f"{rep.rel_error:.17g}"]


def test_echo_report_without_match(echo_control, tmp_path):
    assert echo_control.peaks == [] and echo_control.match is None
    assert np.isnan(echo_control.rel_error)
    rows = written_rows(echo_control, tmp_path)
    assert len(rows) == 1 and rows[0][4:] == ["", "", ""]


SMALL_ECHO = dict(k_initial=1, kick_mode=-2, tau_kick=2.0, nx=16, nv=256, vmax=8.0, dt=1 / 32, observe_stride=2)


@pytest.mark.parametrize("k_initial, kick_mode, tau_kick", [(2, -3, 3.0), (-2, 5, 4.5)],
                         ids=["initial-mode-horizon", "kick-mode-horizon"])
def test_echo_past_either_pulses_recurrence_is_refused(k_initial, kick_mode, tau_kick):
    # t_R = 16 on 256 velocities in [-8, 8).  Both echoes land before 0.8 t_R,
    # the one horizon checked before, but past 0.8 t_R / |k_initial| (t = 9 > 6.4;
    # t = 7.5 > 6.4) and past 0.8 t_R / |kick_mode| after the kick (6 > 4.27; 3 > 2.56)
    t_echo = predict_echo_time(k_initial + kick_mode, k_initial, tau_kick).t_echo
    assert t_echo < 0.8 * 16.0
    params = dict(SMALL_ECHO, k_initial=k_initial, kick_mode=kick_mode, tau_kick=tau_kick)
    with pytest.raises(NumericError, match="enlarge nv"):
        run_echo_experiment(maxwellian(), builtin_interaction("coulomb", 1.0), **params)


def test_echo_inside_both_pulses_horizons_runs():
    # k_initial = 2, kick -3 at tau = 2: echo at t = 6 <= 6.4, 4 after the kick <= 4.27
    params = dict(SMALL_ECHO, k_initial=2, kick_mode=-3, tau_kick=2.0)
    rep = run_echo_experiment(maxwellian(), builtin_interaction("coulomb", 1.0), **params)
    assert rep.prediction.t_echo == 6.0


def test_echo_takes_one_inverse_x_transform_per_step_and_none_per_stop(monkeypatch):
    irfft, axes = np.fft.irfft, []

    def counting_irfft(a, *args, **kwargs):
        if np.ndim(a) == 2:
            axes.append(kwargs.get("axis", -1))
        return irfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting_irfft)
    rep = run_echo_experiment(maxwellian(), builtin_interaction("coulomb", 1.0), **SMALL_ECHO)
    n_steps = int(round(rep.log.times[-1] * 32))
    assert n_steps == 192 and len(rep.log.times) == n_steps // 2 + 1
    assert axes.count(0) == n_steps


def test_echo_history_matches_the_run_of_the_same_kicked_config():
    profile, interaction = maxwellian(), builtin_interaction("coulomb", 1.0)
    rep = run_echo_experiment(profile, interaction, **SMALL_ECHO)
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=1e-3),),
                            kicks=(KickEvent(time=2.0, mode=-2, amplitude=1e-3),))
    log = run(profile, interaction, pert, nx=16, nv=256, vmax=8.0, dt=1 / 32,
              t_end=float(rep.log.times[-1]), observe_stride=2, k_obs=2)
    np.testing.assert_array_equal(rep.log.times, log.times)
    # both sum the same stop spectrum over v, in the same order
    np.testing.assert_array_equal(rep.log.values, log.rho_modes[:, 1])
