"""Nonlinear 1D1V phase-space simulation on a periodic x, truncated v grid.

Strang splitting with exact spectral shifts: half free transport (phase
multiplication in the spatial spectrum), a velocity kick with the force
frozen at the half-step density (phase multiplication in the velocity
spectrum), half free transport.  There is no CFL constraint and no implicit
filtering; mass and the grid l2 norm are conserved to roundoff, and the
scheme is exactly reversible.

One engine, `Stepper`, does all stepping.  It fuses the trailing
half-transport of each step with the leading half of the next (Cheng &
Knorr 1976), so a step costs one x-FFT pair and one v-FFT pair, and each
observation one extra inverse x-FFT.  Observations branch off the carried
x-spectrum without replacing it, so the trajectory does not depend on where
they fall.

The velocity domain [-vmax, vmax] is periodically continued for the
transforms, gated by the requirement that the equilibrium tail at the cut
is negligible.  Spectral velocity discreteness makes free phase mixing
refocus at the recurrence time t_R = nv / (2 vmax |k|); quantitative claims
should stay below 0.8 t_R and the log flags later samples.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import NumericError
from .models import Interaction, VelocityProfile
from .linear import ModeHistory

__all__ = [
    "PhaseSpaceField",
    "PerturbationMode",
    "KickEvent",
    "PerturbationSpec",
    "ObservableLog",
    "AsymptoticProfile",
    "init_state",
    "force_field",
    "Stepper",
    "strang_step",
    "recurrence_time",
    "ftilde_sample",
    "run",
    "asymptotic_profile",
]


@dataclass
class PhaseSpaceField:
    """Distribution values f(x_i, v_j) on a uniform nx-by-nv grid.

    x lives on the unit torus (x_i = i / nx), v on [-vmax, vmax) with
    spacing 2 vmax / nv.  A simulation owns its field exclusively;
    observable extraction works on snapshots.
    """

    nx: int
    nv: int
    vmax: float
    data: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (self.nx, self.nv):
            raise ValueError(f"data shape {self.data.shape} != (nx, nv) = {(self.nx, self.nv)}")

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) / self.nx

    @property
    def v(self) -> np.ndarray:
        return -self.vmax + np.arange(self.nv) * self.dv

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def dv(self) -> float:
        return 2.0 * self.vmax / self.nv

    def mass(self) -> float:
        """Total integral of f over the phase-space box."""
        return float(self.data.mean() * 2.0 * self.vmax)

    def density(self) -> np.ndarray:
        """rho(x) = int f dv on the x grid."""
        return self.data.sum(axis=1) * self.dv

    def rho_hat(self, k_max: int) -> np.ndarray:
        """Fourier coefficients of the density for k = 0..k_max."""
        if k_max > self.nx // 2:
            raise ValueError(f"k_max {k_max} beyond the grid's Nyquist mode {self.nx // 2}")
        return np.fft.rfft(self.density())[: k_max + 1] / self.nx

    def copy(self) -> "PhaseSpaceField":
        return replace(self, data=self.data.copy())


@dataclass(frozen=True)
class PerturbationMode:
    """One spatial cosine mode of the initial perturbation.

    ``shape`` selects the velocity profile of the perturbation: the
    equilibrium itself (multiplicative) or a normalized Gaussian of the
    given width (additive).
    """

    k: int
    amplitude: float
    phase: float = 0.0
    shape: str = "same_as_f0"
    width: float | None = None

    def __post_init__(self):
        if self.shape not in ("same_as_f0", "gaussian"):
            raise ValueError(f"unknown perturbation shape {self.shape!r}")
        if self.shape == "gaussian" and (self.width is None or self.width <= 0):
            raise ValueError("gaussian perturbation shape requires width > 0")


@dataclass(frozen=True)
class KickEvent:
    """Impulsive external forcing at one spatial mode, applied for one step.

    ``amplitude`` is the net velocity impulse: during the step containing
    ``time`` the velocity shift gains amplitude * cos(2 pi mode x + phase),
    independent of dt.  This gives a sharp timing origin for echo runs.
    """

    time: float
    mode: int
    amplitude: float
    phase: float = 0.0


@dataclass(frozen=True)
class PerturbationSpec:
    modes: tuple[PerturbationMode, ...] = ()
    kicks: tuple[KickEvent, ...] = ()


def _require_power_of_two(n: int, name: str) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"{name} must be a power of two, got {n}")


def init_state(
    profile: VelocityProfile,
    perturbation: PerturbationSpec,
    nx: int,
    nv: int,
    vmax: float,
    tail_tol: float = 1e-13,
) -> PhaseSpaceField:
    """Build f_i = f0(v) (1 + sum_k amp cos(2 pi k x + phase)) plus additive shapes.

    Fails when the equilibrium tail at +-vmax exceeds ``tail_tol`` (the
    periodic velocity continuation would wrap non-negligible mass) or when
    the perturbed distribution goes negative.
    """
    _require_power_of_two(nx, "nx")
    _require_power_of_two(nv, "nv")
    if vmax <= 0:
        raise ValueError("vmax must be positive")
    tail = float(max(profile.pdf(np.array(vmax)), profile.pdf(np.array(-vmax))))
    if tail >= tail_tol:
        raise ValueError(
            f"velocity cutoff too small: f0(+-{vmax:g}) = {tail:.3e} >= tail_tol = {tail_tol:.1e}"
        )
    x = np.arange(nx) / nx
    v = -vmax + np.arange(nv) * (2.0 * vmax / nv)
    fv = profile.pdf(v)
    mult = np.ones(nx)
    data = None
    for m in perturbation.modes:
        wave = m.amplitude * np.cos(2.0 * np.pi * m.k * x + m.phase)
        if m.shape == "same_as_f0":
            mult = mult + wave
        else:
            bump = np.exp(-(v**2) / (2.0 * m.width**2)) / np.sqrt(2.0 * np.pi * m.width**2)
            data = (data if data is not None else 0.0) + np.outer(wave, bump)
    base = np.outer(mult, fv)
    data = base if data is None else base + data
    if data.min() < 0.0:
        raise ValueError(f"initial distribution is negative (min {data.min():.3e}); reduce amplitudes")
    return PhaseSpaceField(nx=nx, nv=nv, vmax=vmax, data=data, time=0.0)


def recurrence_time(nv: int, vmax: float, k: int) -> float:
    """Grid recurrence horizon t_R = nv / (2 vmax |k|) of the spectral v shift."""
    if k == 0:
        raise ValueError("recurrence time is defined for k != 0")
    return nv / (2.0 * vmax * abs(k))


# ---------------------------------------------------------------------------
# stepping


def _force_multiplier(nx: int, interaction: Interaction) -> np.ndarray:
    # F_hat(k) = -2 i pi k what(k) rho_hat(k); odd derivative zeroed at Nyquist
    kx = np.arange(nx // 2 + 1)
    fmul = -2j * np.pi * kx * interaction.what(kx)
    fmul[-1] = 0.0
    return fmul


def _force(rho: np.ndarray, force_mul: np.ndarray) -> np.ndarray:
    nx = rho.shape[0]
    rho_k = np.fft.rfft(rho) / nx
    return np.fft.irfft(force_mul * rho_k * nx, n=nx)


class Stepper:
    """Strang stepping of size dt on one grid, with fused half-transports.

    Between two stops the trailing half-transport of one step and the
    leading half of the next act as one full transport, so a step costs one
    x-FFT pair and one v-FFT pair; a stop adds one inverse x-FFT.  The state
    carried from step to step is the x-spectrum after the last kick, and a
    stop never replaces it, so the state at step n does not depend on which
    other stops are requested.

    The phase tables and scratch buffers belong to the stepper: it runs one
    `evolve` at a time.
    """

    def __init__(self, nx: int, nv: int, vmax: float, dt: float, interaction: Interaction):
        self.nx, self.nv, self.dt = nx, nv, dt
        self.dv = 2.0 * vmax / nv
        v = -vmax + np.arange(nv) * self.dv
        kx = np.arange(nx // 2 + 1)
        self.transport_half = np.exp(-2j * np.pi * np.outer(kx, v) * (0.5 * dt))
        self.transport_full = self.transport_half * self.transport_half
        self.force_mul = _force_multiplier(nx, interaction)
        # The kick multiplies the v-spectrum by exp(i a j) for eta index
        # j = 0..nv/2 with a = -2 pi shift / (nv dv).  Writing j = m p + q,
        # that is exp(i a m p) exp(i a q): cos/sin of two narrow tables and
        # one complex product instead of cos/sin of the full table.
        nh = nv // 2 + 1
        m = 1 << ((nh - 1).bit_length() + 1) // 2
        n_blocks = -(-nh // m)
        a = -2.0 * np.pi / (nv * self.dv)
        self._phase_factors = [
            (freq, np.empty((nx, *freq.shape)), np.empty((nx, *freq.shape), dtype=complex))
            for freq in (a * np.arange(m)[None, :], a * m * np.arange(n_blocks)[:, None])
        ]
        self._phase_blocks = np.empty((nx, n_blocks, m), dtype=complex)
        self._phase = self._phase_blocks.reshape(nx, n_blocks * m)[:, :nh]
        self._fk = np.empty((nx // 2 + 1, nv), dtype=complex)
        self._obs_fk = np.empty_like(self._fk)
        self._f = np.empty((nx, nv))
        self._fv = np.empty((nx, nh), dtype=complex)

    def _kick(self, impulse: np.ndarray | None) -> None:
        f, fv = self._f, self._fv
        shift = _force(f.sum(axis=1) * self.dv, self.force_mul) * self.dt
        if impulse is not None:
            shift = shift + impulse
        np.fft.rfft(f, axis=1, out=fv)
        for freq, arg, phase in self._phase_factors:
            np.multiply.outer(shift, freq, out=arg)
            np.cos(arg, out=phase.real)
            np.sin(arg, out=phase.imag)
        np.multiply(self._phase_factors[0][2], self._phase_factors[1][2], out=self._phase_blocks)
        fv *= self._phase
        np.fft.irfft(fv, n=self.nv, axis=1, out=f)

    def evolve(
        self,
        data: np.ndarray,
        stops: Iterable[int],
        impulses: dict[int, np.ndarray] | None = None,
        t0: float = 0.0,
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Step from ``data`` and yield ``(n, f, fk)`` at each step index n in ``stops``.

        ``stops`` must be ascending.  ``f`` is the state after n steps and
        ``fk`` its unnormalized x-spectrum (``rfft`` along x); both are the
        stepper's buffers, valid until the generator resumes.
        ``impulses[n]`` adds a velocity shift (x grid) to the kick of step n.
        """
        impulses = impulses or {}
        fk, obs_fk, f = self._fk, self._obs_fk, self._f
        np.fft.rfft(data, axis=0, out=fk)
        n = 0
        for stop in stops:
            if stop < n:
                raise ValueError(f"stops must be ascending from 0, got {stop} after {n}")
            while n < stop:
                fk *= self.transport_half if n == 0 else self.transport_full
                np.fft.irfft(fk, n=self.nx, axis=0, out=f)
                self._kick(impulses.get(n))
                np.fft.rfft(f, axis=0, out=fk)
                n += 1
            if n == 0:
                np.copyto(f, data)
                np.copyto(obs_fk, fk)
            else:
                np.multiply(fk, self.transport_half, out=obs_fk)
                np.fft.irfft(obs_fk, n=self.nx, axis=0, out=f)
            if not np.isfinite(f).all():
                raise NumericError(f"non-finite values detected at t = {t0 + n * self.dt:g}")
            yield n, f, obs_fk


def force_field(state: PhaseSpaceField, interaction: Interaction) -> np.ndarray:
    """Self-consistent force F(x) = -(grad W * rho)(x); real with zero mean."""
    return _force(state.density(), _force_multiplier(state.nx, interaction))


@functools.lru_cache(maxsize=8)
def _cached_stepper(nx: int, nv: int, vmax: float, dt: float, interaction: Interaction) -> Stepper:
    return Stepper(nx, nv, vmax, dt, interaction)


def strang_step(
    state: PhaseSpaceField,
    interaction: Interaction,
    dt: float,
    impulse: np.ndarray | None = None,
) -> PhaseSpaceField:
    """One split step of size dt; ``impulse`` adds an extra velocity shift (x grid).

    Negative dt steps backwards; a forward/backward pair returns the input
    to roundoff because each sub-flow is an exact spectral shift and the
    kick leaves the density unchanged.  The `Stepper` for each (grid, dt,
    interaction) is cached and reused, so concurrent calls from several
    threads must not share one.
    """
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    stepper = _cached_stepper(state.nx, state.nv, state.vmax, dt, interaction)
    impulses = None if impulse is None else {0: impulse}
    _, f, _ = next(stepper.evolve(state.data, (1,), impulses, t0=state.time))
    return PhaseSpaceField(nx=state.nx, nv=state.nv, vmax=state.vmax, data=f.copy(), time=state.time + dt)


# ---------------------------------------------------------------------------
# observables


def _check_ftilde_range(nx: int, nv: int, vmax: float, ks: Sequence[int], etas: np.ndarray) -> None:
    eta_nyq = nv / (4.0 * vmax)
    if np.any(np.abs(etas) > eta_nyq):
        raise ValueError(f"|eta| exceeds the resolvable range {eta_nyq:g}")
    if any(abs(k) > nx // 2 for k in ks):
        raise ValueError(f"|k| exceeds the grid's spatial Nyquist mode {nx // 2}")


def ftilde_sample(state: PhaseSpaceField, k: int, eta_list: Sequence[float]) -> np.ndarray:
    """Double-transform values f~(k, eta) for the requested eta list.

    eta is evaluated by direct summation, so it need not lie on the grid's
    frequency comb, but must stay below the resolvable Nyquist limit
    nv / (4 vmax).
    """
    eta = np.asarray(eta_list, dtype=float)
    _check_ftilde_range(state.nx, state.nv, state.vmax, [k], eta)
    row = np.fft.rfft(state.data, axis=0)[abs(k)] / state.nx
    if k < 0:
        row = np.conj(row)
    phases = np.exp(-2j * np.pi * np.outer(eta, state.v))
    return phases @ row * state.dv


@dataclass
class AsymptoticProfile:
    """Late-time x-averaged velocity profile with a convergence diagnostic."""

    v: np.ndarray
    f_inf: np.ndarray
    sup_diff: float


@dataclass
class ObservableLog:
    """Sampled observables of one simulation run.

    ``rho_modes[:, k]`` holds the density coefficients for k = 0..k_obs
    (negative modes are conjugates for the real field).  ``marginals`` are
    x-averaged velocity profiles.  Samples past 0.8 of the k = 1 recurrence
    time carry the post_recurrence flag; per-mode horizons are in
    ``recurrence``.
    """

    times: np.ndarray
    mass: np.ndarray
    ekin: np.ndarray
    epot: np.ndarray
    l2: np.ndarray
    gradv_l2: np.ndarray
    k_obs: int
    rho_modes: np.ndarray
    ftilde_points: tuple[tuple[int, float], ...]
    ftilde: np.ndarray
    marginals: np.ndarray
    v: np.ndarray
    recurrence: dict[int, float]
    post_recurrence: np.ndarray
    meta: dict = field(default_factory=dict)
    final_state: PhaseSpaceField | None = None

    def mode_history(self, k: int) -> ModeHistory:
        """Density mode as a `ModeHistory` (conjugated for negative k)."""
        if abs(k) > self.k_obs:
            raise ValueError(f"|k| = {abs(k)} was not observed (k_obs = {self.k_obs})")
        vals = self.rho_modes[:, abs(k)]
        if k < 0:
            vals = np.conj(vals)
        return ModeHistory(k=k, times=self.times.copy(), values=vals.copy())

    def cr_envelope(self, r: int) -> np.ndarray:
        """Smoothness surrogate 2 sum_{k>=1} k^r |rho_hat(t, k)| per sample."""
        k = np.arange(1, self.k_obs + 1, dtype=float)
        return 2.0 * np.abs(self.rho_modes[:, 1:]) @ k**r

    def write_observables_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "mass", "ekin", "epot", "l2", "gradv_l2"])
            for i, t in enumerate(self.times):
                w.writerow([f"{t:.17g}", f"{self.mass[i]:.17g}", f"{self.ekin[i]:.17g}",
                            f"{self.epot[i]:.17g}", f"{self.l2[i]:.17g}", f"{self.gradv_l2[i]:.17g}"])

    def write_modes_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "k", "re", "im", "abs"])
            for i, t in enumerate(self.times):
                for k in range(self.k_obs + 1):
                    z = self.rho_modes[i, k]
                    w.writerow([f"{t:.17g}", k, f"{z.real:.17g}", f"{z.imag:.17g}", f"{abs(z):.17g}"])

    def write_ftilde_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "k", "eta", "re", "im"])
            for i, t in enumerate(self.times):
                for j, (k, eta) in enumerate(self.ftilde_points):
                    z = self.ftilde[i, j]
                    w.writerow([f"{t:.17g}", k, f"{eta:.17g}", f"{z.real:.17g}", f"{z.imag:.17g}"])


def run(
    profile: VelocityProfile,
    interaction: Interaction,
    perturbation: PerturbationSpec,
    *,
    nx: int,
    nv: int,
    vmax: float,
    dt: float,
    t_end: float,
    observe_stride: int = 1,
    k_obs: int = 4,
    ftilde_points: Sequence[tuple[int, float]] = (),
    tail_tol: float = 1e-13,
) -> ObservableLog:
    """Run the nonlinear simulation and collect the observable log.

    Kick events in the perturbation spec are applied impulsively during the
    step containing their (grid-aligned) time.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(t_end / dt))
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"t_end = {t_end:g} is not a multiple of dt = {dt:g}")
    if observe_stride < 1 or n_steps % observe_stride != 0:
        raise ValueError(f"observe_stride = {observe_stride} must divide n_steps = {n_steps}")
    if k_obs > nx // 2:
        raise ValueError(f"k_obs = {k_obs} beyond the spatial Nyquist mode {nx // 2}")
    ft_points = tuple((int(k), float(eta)) for k, eta in ftilde_points)
    ft_etas = np.array([eta for _, eta in ft_points])
    _check_ftilde_range(nx, nv, vmax, [k for k, _ in ft_points], ft_etas)

    state = init_state(profile, perturbation, nx, nv, vmax, tail_tol=tail_tol)
    stepper = Stepper(nx, nv, vmax, dt, interaction)
    x = state.x
    v = state.v
    impulses: dict[int, np.ndarray] = {}
    for kick in perturbation.kicks:
        s = int(round(kick.time / dt))
        if abs(s * dt - kick.time) > 1e-9 * max(1.0, abs(kick.time)) or not 0 <= s < n_steps:
            raise ValueError(f"kick time {kick.time:g} must sit on the step grid within [0, t_end)")
        wave = kick.amplitude * np.cos(2.0 * np.pi * kick.mode * x + kick.phase)
        impulses[s] = impulses.get(s, 0.0) + wave

    n_obs = n_steps // observe_stride + 1
    times = np.empty(n_obs)
    mass = np.empty(n_obs)
    ekin = np.empty(n_obs)
    epot = np.empty(n_obs)
    l2 = np.empty(n_obs)
    gradv = np.empty(n_obs)
    rho_modes = np.empty((n_obs, k_obs + 1), dtype=complex)
    ftv = np.empty((n_obs, len(ft_points)), dtype=complex)
    marginals = np.empty((n_obs, nv))

    what_tab = np.asarray(interaction.what(np.arange(nx // 2 + 1)), dtype=float)
    spec_weight = np.full(nx // 2 + 1, 2.0)
    spec_weight[0] = 1.0
    if nx % 2 == 0:
        spec_weight[-1] = 1.0
    v_weight = np.full(nv // 2 + 1, 2.0)
    v_weight[0] = 1.0
    if nv % 2 == 0:
        v_weight[-1] = 1.0
    deriv = 2.0 * np.pi * np.fft.rfftfreq(nv, d=state.dv)
    if nv % 2 == 0:
        deriv[-1] = 0.0
    gradv_weight = np.sqrt(v_weight) * deriv
    gv = np.empty((nx, nv // 2 + 1), dtype=complex)
    half_v2 = 0.5 * v**2
    dv = state.dv
    ft_phases = np.exp(-2j * np.pi * np.outer(ft_etas, v))

    def observe(i: int, t: float, f: np.ndarray, fk: np.ndarray) -> None:
        times[i] = t
        rho = f.sum(axis=1) * dv
        rho_k_full = np.fft.rfft(rho) / nx
        mass[i] = rho.mean()
        np.mean(f, axis=0, out=marginals[i])
        ekin[i] = float(marginals[i] @ half_v2) * dv
        epot[i] = 0.5 * float(np.sum(spec_weight * what_tab * np.abs(rho_k_full) ** 2))
        l2[i] = np.sqrt(float(np.vdot(f, f)) * dv / nx)
        np.fft.rfft(f, axis=1, out=gv)
        np.multiply(gv, gradv_weight, out=gv)
        gradv[i] = np.sqrt(np.vdot(gv, gv).real * dv / (nx * nv**2))
        rho_modes[i] = rho_k_full[: k_obs + 1]
        for j, (k, _) in enumerate(ft_points):
            row = fk[abs(k)] / nx
            ftv[i, j] = ft_phases[j] @ (np.conj(row) if k < 0 else row) * dv

    stops = range(0, n_steps + 1, observe_stride)
    for i, (n, f, fk) in enumerate(stepper.evolve(state.data, stops, impulses)):
        observe(i, n * dt, f, fk)

    final = PhaseSpaceField(nx=nx, nv=nv, vmax=vmax, data=f.copy(), time=n_steps * dt)
    t_r = {k: recurrence_time(nv, vmax, k) for k in range(1, max(k_obs, 1) + 1)}
    meta = {
        "nx": nx, "nv": nv, "vmax": vmax, "dt": dt, "t_end": n_steps * dt,
        "observe_stride": observe_stride, "k_obs": k_obs,
        "recurrence_time": t_r[1],
        "profile": profile.name, "interaction": interaction.kind,
        "n_kicks": len(perturbation.kicks),
    }
    return ObservableLog(
        times=times, mass=mass, ekin=ekin, epot=epot, l2=l2, gradv_l2=gradv,
        k_obs=k_obs, rho_modes=rho_modes, ftilde_points=ft_points, ftilde=ftv,
        marginals=marginals, v=v, recurrence=t_r,
        post_recurrence=times > 0.8 * t_r[1],
        meta=meta, final_state=final,
    )


def asymptotic_profile(log: ObservableLog) -> AsymptoticProfile:
    """Late-time x-averaged profile estimate from the last two logged samples."""
    if log.marginals.shape[0] < 2:
        raise NumericError("need at least two logged samples to estimate the asymptotic profile")
    f_inf = log.marginals[-1].copy()
    sup_diff = float(np.max(np.abs(log.marginals[-1] - log.marginals[-2])))
    return AsymptoticProfile(v=log.v.copy(), f_inf=f_inf, sup_diff=sup_diff)
