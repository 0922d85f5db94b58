"""Plasma echoes: timing law, peak detection, two-pulse runs.

A perturbation at spatial mode ell launched at t = 0 phase-mixes away; an
impulsive kick at mode (k - ell) at time tau revives a macroscopic response
at mode k at the predictable later time t = tau (k - ell) / k, when the
gliding velocity-frequency content of the stored perturbation re-crosses
zero.  The two-pulse run steps along `sim._trajectory`, the schedule that
`sim.run` and the norms experiment share, and reads the response mode
straight from each stop's x-spectrum: no observable log, no inverse x-FFT
per observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .linear import ModeHistory
from .models import Interaction, VelocityProfile
from .sim import KickEvent, PerturbationMode, PerturbationSpec, _rho_hat, _trajectory, recurrence_time

__all__ = [
    "EchoPrediction",
    "Peak",
    "EchoReport",
    "predict_echo_time",
    "detect_peaks",
    "run_echo_experiment",
]


@dataclass(frozen=True)
class EchoPrediction:
    """Predicted echo: response mode k, source mode ell, echo time."""

    k: int
    ell: int
    t_echo: float


def predict_echo_time(k: int, ell: int, tau_source: float) -> EchoPrediction:
    """Invert the resonance tau = k t / (k - ell) to the echo time t.

    Requires k != 0, k (k - ell) > 0 and (k - ell) / k > 1 so the echo lands
    strictly after the kick.
    """
    if k == 0:
        raise ValueError("response mode k must be nonzero")
    if tau_source <= 0:
        raise ValueError("kick time must be positive")
    if k * (k - ell) <= 0:
        raise ValueError(f"no resonance for k = {k}, ell = {ell} (need k (k - ell) > 0)")
    ratio = (k - ell) / k
    if ratio <= 1.0:
        raise ValueError(f"echo would not land after the kick: (k - ell)/k = {ratio:g} <= 1")
    return EchoPrediction(k=k, ell=ell, t_echo=float(tau_source) * ratio)


@dataclass(frozen=True)
class Peak:
    time: float
    amplitude: float


def detect_peaks(history: ModeHistory, floor: float, min_separation: float) -> list[Peak]:
    """Local maxima of |values| above ``floor``, at least ``min_separation`` apart.

    Peak times are refined to sub-stride accuracy by a quadratic fit through
    the maximum and its neighbours; candidates are taken in decreasing
    amplitude order, so a smaller peak within the separation window of an
    accepted one is dropped.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    amp = np.abs(history.values)
    t = history.times
    idx = np.where((amp[1:-1] > amp[:-2]) & (amp[1:-1] > amp[2:]) & (amp[1:-1] > floor))[0] + 1
    peaks: list[Peak] = []
    for i in sorted(idx, key=lambda j: -amp[j]):
        a_m, a_0, a_p = amp[i - 1], amp[i], amp[i + 1]
        denom = a_m - 2.0 * a_0 + a_p
        shift = 0.0 if denom == 0.0 else 0.5 * (a_m - a_p) / denom
        t_ref = t[i] + shift * (t[i] - t[i - 1])
        if all(abs(t_ref - p.time) >= min_separation for p in peaks):
            peaks.append(Peak(time=float(t_ref), amplitude=float(a_0)))
    peaks.sort(key=lambda p: p.time)
    return peaks


@dataclass
class EchoReport:
    """Post-kick peaks of the response mode; ``match`` is the one nearest the
    prediction (None if no peak cleared the floor), ``rel_error`` its relative
    timing error |t_detected - t_echo| / t_echo (nan without a match).
    ``log`` is the history of rho_hat(t, |prediction.k|) at every observation."""

    tau_kick: float
    prediction: EchoPrediction
    peaks: list[Peak]
    match: Peak | None
    rel_error: float
    log: ModeHistory


# peak detection of the two-pulse run: a peak stands above 1e-8 and at least
# one time unit from any larger one
_PEAK_FLOOR = 1e-8
_PEAK_MIN_SEPARATION = 1.0


def run_echo_experiment(
    profile: VelocityProfile,
    interaction: Interaction,
    k_initial: int,
    kick_mode: int,
    tau_kick: float,
    amp_initial: float = 1e-3,
    amp_kick: float = 1e-3,
    *,
    nx: int = 32,
    nv: int = 1024,
    vmax: float = 8.0,
    dt: float = 1.0 / 32,
    observe_stride: int = 2,
) -> EchoReport:
    """Two-pulse echo run: initial mode ``k_initial``, impulsive kick at ``tau_kick``.

    The quadratic coupling mixes modes additively, so the response is
    k = k_initial + kick_mode (the conjugate mirror |k| is observed; the
    real field makes them equal in modulus, and |k| < |kick_mode|).  The
    zero-amplitude control keeps its (zero) kick, so both runs check its
    mode and time.  The run ends at the predicted echo time plus 2, rounded
    up to whole observation strides.  Each observation reads rho_hat(t, |k|)
    = sum_v fk[|k|, v] dv / nx from the stepper's x-spectrum, the only
    quantity the report uses.  Detection looks for post-kick local maxima of
    |rho_hat(t, k)| above 1e-8, at least 1 apart in t, and pairs them with
    the timing law applied to the initial mode as source.
    """
    k_resp = k_initial + kick_mode
    if k_resp == 0:
        raise ValueError("k_initial + kick_mode must be nonzero to observe an echo")
    prediction = predict_echo_time(k_resp, k_initial, tau_kick)
    # a pulse at mode k reaches velocity frequency |k| t a time t after it is
    # launched, and the grid recurs once that reaches t_R(1); so the echo
    # needs t_echo <= 0.8 t_R / |k_initial| and t_echo - tau <= 0.8 t_R / |kick_mode|.
    # The two pulses meet at the echo at one frequency,
    # |k_initial| t_echo = |kick_mode| (t_echo - tau), so one check covers both.
    horizon = recurrence_time(nv, vmax, k_initial)
    if prediction.t_echo > 0.8 * horizon:
        raise NumericError(
            f"predicted echo at t = {prediction.t_echo:g} beyond 0.8 t_R / |k_initial| = {0.8 * horizon:g}, "
            f"{prediction.t_echo - tau_kick:g} after the kick, beyond 0.8 t_R / |kick_mode| = "
            f"{0.8 * recurrence_time(nv, vmax, kick_mode):g}; enlarge nv"
        )
    pert = PerturbationSpec(
        modes=(PerturbationMode(k=k_initial, amplitude=amp_initial),),
        kicks=(KickEvent(time=tau_kick, mode=kick_mode, amplitude=amp_kick),),
    )
    n_obs = int(np.ceil((prediction.t_echo + 2.0) / (observe_stride * dt)))
    times = np.arange(n_obs + 1) * observe_stride * dt
    trajectory = _trajectory(profile, interaction, pert, nx=nx, nv=nv, vmax=vmax, dt=dt, times=times)
    values = np.array([_rho_hat(fk[abs(k_resp)], nx, 2.0 * vmax / nv) for _, fk in trajectory])
    h = ModeHistory(k=abs(k_resp), times=times, values=values)
    guard = 4 * observe_stride * dt  # skip the kick's own transient
    post = h.times > tau_kick + guard
    peaks = detect_peaks(ModeHistory(k=abs(k_resp), times=h.times[post], values=h.values[post]),
                         floor=_PEAK_FLOOR, min_separation=_PEAK_MIN_SEPARATION)
    match = min(peaks, key=lambda p: abs(p.time - prediction.t_echo)) if peaks else None
    return EchoReport(
        tau_kick=tau_kick,
        prediction=prediction,
        peaks=peaks,
        match=match,
        rel_error=float("nan") if match is None else abs(match.time - prediction.t_echo) / prediction.t_echo,
        log=h,
    )
