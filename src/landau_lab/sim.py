"""Nonlinear 1D1V phase-space simulation on a periodic x, truncated v grid.

Strang splitting with exact spectral shifts: half free transport (phase
multiplication in the spatial spectrum), a velocity kick with the force
frozen at the half-step density (phase multiplication in the velocity
spectrum), half free transport.  Every factor keeps the usual spectral rule
that an odd derivative is zero at a Nyquist bin: the force has no x-Nyquist
mode, the x-Nyquist row does not stream, and the kick leaves the v-Nyquist
bin alone.  So each factor is real with modulus one at both Nyquist bins,
and the carried spectrum is always that of a real field.  There is no CFL
constraint and no implicit filtering; mass and the grid l2 norm are
conserved to roundoff, and the scheme is exactly reversible, also when the
Nyquist bins hold content.

One engine, `Stepper`, does all stepping.  It fuses the trailing
half-transport of each step with the leading half of the next (Cheng &
Knorr 1976), so a step costs one x-FFT pair and one v-FFT pair; a stepper
whose force vanishes on the grid skips the kick, which is then the
identity, on every step without an impulse, so a free step is one phase
product and no FFT.  A stop yields the x-spectrum and nothing else; it
branches off the carried spectrum without replacing it, so the trajectory
does not depend on where the stops fall, and a chain of `strang_step` calls
is the same discretization.  `run`, the echo experiment and the norms
experiment step along one schedule, `_trajectory`, which checks their stop
times, kicks and modes against the grid.

The x-spectrum is also the state a `PhaseSpaceField` carries: a field
built from values or from their spectrum computes the other form only
when it is read.  Every observer and norm reads the spectrum, so
`strang_step` is one engine step whose result inverts nothing until its
values are read, and only the |f| integral of the analytic norm inverts a
snapshot to x-space.  A field also keeps its double transform, which the
gliding and analytic norms share.

The velocity domain [-vmax, vmax] is periodically continued for the
transforms, gated by the requirement that the equilibrium tail at the cut
is negligible.  Spectral velocity discreteness makes free phase mixing
refocus at the recurrence time t_R = nv / (2 vmax |k|); quantitative claims
should stay below 0.8 t_R, and the log records t_R per observed mode.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import NumericError
from .models import Interaction, VelocityProfile
from .linear import ModeHistory, _grid_step, _read_only, write_columns_csv, write_modes_csv

__all__ = [
    "PhaseSpaceField",
    "PerturbationMode",
    "KickEvent",
    "PerturbationSpec",
    "ObservableLog",
    "init_state",
    "Stepper",
    "strang_step",
    "recurrence_time",
    "ftilde_sample",
    "run",
]


class PhaseSpaceField:
    """Distribution f(x_i, v_j) on a uniform nx-by-nv grid, held as values or as their x-spectrum.

    x lives on the unit torus (x_i = i / nx), v on [-vmax, vmax) with
    spacing 2 vmax / nv.  A field is built from exactly one of ``data``, the
    (nx, nv) values, and ``spectrum``, their x-spectrum (``rfft`` along x,
    nx/2 + 1 rows).  It keeps the given array as it is, without a copy, and
    computes the other form, and the double transform, on first use and
    keeps them read-only.  A field is a snapshot: stepping never changes it,
    and the given array must not change while the field is in use.
    """

    def __init__(self, nx: int, nv: int, vmax: float, data: np.ndarray | None = None, time: float = 0.0, *,
                 spectrum: np.ndarray | None = None):
        if (data is None) == (spectrum is None):
            raise ValueError("a field is built from exactly one of data and spectrum")
        self.nx, self.nv, self.vmax, self.time = nx, nv, vmax, time
        self._data = None if data is None else np.asarray(data, dtype=float)
        self._spectrum = None if spectrum is None else np.asarray(spectrum, dtype=complex)
        name, given, shape = (("data", self._data, (nx, nv)) if spectrum is None
                              else ("spectrum", self._spectrum, (nx // 2 + 1, nv)))
        if given.shape != shape:
            raise ValueError(f"{name} shape {given.shape} != {shape} for (nx, nv) = {(nx, nv)}")

    @property
    def data(self) -> np.ndarray:
        """The values f(x_i, v_j)."""
        if self._data is None:
            self._data = _read_only(np.fft.irfft(self._spectrum, n=self.nx, axis=0))
        return self._data

    @property
    def spectrum(self) -> np.ndarray:
        """The unnormalized x-spectrum, ``rfft`` of the values along x."""
        if self._spectrum is None:
            self._spectrum = _read_only(np.fft.rfft(self._data, axis=0))
        return self._spectrum

    @functools.cached_property
    def double_transform(self) -> np.ndarray:
        """f~(k, eta) / dv for k = 0 .. nx/2 on the eta comb: ``fft`` along v of the x-spectrum / nx."""
        return _read_only(np.fft.fft(self.spectrum / self.nx, axis=1))

    def _spectrum_or_into(self, out: np.ndarray) -> np.ndarray:
        """The held x-spectrum, or else the one computed into ``out`` and not kept."""
        if self._spectrum is None:
            return np.fft.rfft(self._data, axis=0, out=out)
        return self._spectrum

    @property
    def v(self) -> np.ndarray:
        return -self.vmax + np.arange(self.nv) * self.dv

    @property
    def dv(self) -> float:
        return 2.0 * self.vmax / self.nv


@dataclass(frozen=True)
class PerturbationMode:
    """One spatial cosine mode of the initial perturbation, multiplying the equilibrium."""

    k: int
    amplitude: float
    phase: float = 0.0


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


# largest equilibrium value allowed at the velocity cut +-vmax
_TAIL_TOL = 1e-13


def _require_power_of_two(n: int, name: str) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"{name} must be a power of two, got {n}")


def init_state(
    profile: VelocityProfile,
    perturbation: PerturbationSpec,
    nx: int,
    nv: int,
    vmax: float,
) -> PhaseSpaceField:
    """Build f_i = f0(v) (1 + sum_k amp cos(2 pi k x + phase)).

    Fails when the equilibrium tail at +-vmax reaches 1e-13 (the
    periodic velocity continuation would wrap non-negligible mass) or when
    the perturbed distribution goes negative.
    """
    _require_power_of_two(nx, "nx")
    _require_power_of_two(nv, "nv")
    if vmax <= 0:
        raise ValueError("vmax must be positive")
    tail = float(max(profile.pdf(np.array(vmax)), profile.pdf(np.array(-vmax))))
    if tail >= _TAIL_TOL:
        raise ValueError(
            f"velocity cutoff too small: f0(+-{vmax:g}) = {tail:.3e} >= {_TAIL_TOL:.1e}"
        )
    x = np.arange(nx) / nx
    v = -vmax + np.arange(nv) * (2.0 * vmax / nv)
    mult = np.ones(nx)
    for m in perturbation.modes:
        mult = mult + m.amplitude * np.cos(2.0 * np.pi * m.k * x + m.phase)
    data = np.outer(mult, profile.pdf(v))
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


def _block_split(n: int) -> tuple[int, int]:
    """Block length m, a power of two near sqrt(n), and block count for
    writing an index 0 <= j < n as j = m p + q with 0 <= q < m."""
    m = 1 << ((n - 1).bit_length() + 1) // 2
    return m, -(-n // m)


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
    x-FFT pair and one v-FFT pair; a stop costs one half-transport product.
    The state carried from step to step is the x-spectrum after the last
    kick, and a stop never replaces it, so the state at step n does not
    depend on which other stops are requested.  By the module's Nyquist rule
    the transport tables' x-Nyquist row and the kick's v-Nyquist phase are 1.

    When the force multiplier is zero on the grid the kick of a step without
    an impulse is the identity (shift 0, phase exactly 1), and the step skips
    it: a free step is one transport product, with no FFT.

    Every step, of `evolve` and of `strang_step`, is one `_step`.  The phase
    tables and scratch buffers belong to the stepper: it runs one `evolve`
    or `strang_step` at a time.
    """

    def __init__(self, nx: int, nv: int, vmax: float, dt: float, interaction: Interaction):
        self.nx, self.nv, self.dt = nx, nv, dt
        self.dv = 2.0 * vmax / nv
        v = -vmax + np.arange(nv) * self.dv
        kx = np.arange(nx // 2 + 1)
        self.transport_half = np.exp(-2j * np.pi * np.outer(kx, v) * (0.5 * dt))
        self.transport_half[-1] = 1.0
        self.transport_full = self.transport_half * self.transport_half
        self.force_mul = _force_multiplier(nx, interaction)
        self._free = not np.any(self.force_mul)
        # The kick multiplies the v-spectrum by exp(i a j) for eta index
        # j = 0..nv/2 with a = -2 pi shift / (nv dv).  Writing j = m p + q,
        # that is exp(i a m p) exp(i a q): cos/sin of one narrow table, the
        # frequencies a q (q < m) then a m p (p < n_blocks) side by side, and
        # one complex product instead of cos/sin of the full table.
        nh = nv // 2 + 1
        m, n_blocks = _block_split(nh)
        a = -2.0 * np.pi / (nv * self.dv)
        self._freq = np.concatenate((a * np.arange(m), a * m * np.arange(n_blocks)))
        self._arg = np.empty((nx, m + n_blocks))
        factors = np.empty((nx, m + n_blocks), dtype=complex)
        self._factors, self._q_factor, self._p_factor = factors, factors[:, None, :m], factors[:, m:, None]
        self._phase_blocks = np.empty((nx, n_blocks, m), dtype=complex)
        self._phase = self._phase_blocks.reshape(nx, n_blocks * m)[:, :nh]
        self._fk = np.empty((nx // 2 + 1, nv), dtype=complex)
        self._obs_fk = np.empty_like(self._fk)
        self._f = np.empty((nx, nv))
        self._fv = np.empty((nx, nh), dtype=complex)

    def _step(self, src: np.ndarray, table: np.ndarray, impulse: np.ndarray | None) -> None:
        """One step: the carried spectrum becomes ``src`` times the transport
        ``table``, then kicked, with ``impulse`` (x grid) added to the shift."""
        fk, f, fv = self._fk, self._f, self._fv
        np.multiply(src, table, out=fk)
        if impulse is None and self._free:
            return
        np.fft.irfft(fk, n=self.nx, axis=0, out=f)
        shift = _force(f.sum(axis=1) * self.dv, self.force_mul) * self.dt
        if impulse is not None:
            shift = shift + impulse
        np.fft.rfft(f, axis=1, out=fv)
        np.multiply.outer(shift, self._freq, out=self._arg)
        np.cos(self._arg, out=self._factors.real)
        np.sin(self._arg, out=self._factors.imag)
        np.multiply(self._q_factor, self._p_factor, out=self._phase_blocks)
        self._phase[:, -1] = 1.0
        fv *= self._phase
        np.fft.irfft(fv, n=self.nv, axis=1, out=f)
        np.fft.rfft(f, axis=0, out=fk)

    def evolve(
        self,
        state: PhaseSpaceField,
        stops: Iterable[int],
        impulses: dict[int, np.ndarray] | None = None,
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Step from ``state`` and yield ``(n, fk)`` at each step index n in ``stops``.

        ``stops`` must be ascending.  ``fk`` is the unnormalized x-spectrum
        (``rfft`` along x) of the state after n steps, at time
        ``state.time + n dt``; its inverse x-FFT is that state.  ``fk`` is the
        stepper's buffer, which the next stop or the next `evolve`
        overwrites.  ``impulses[n]`` adds a velocity shift (x grid) to the
        kick of step n.  A field built from values is transformed straight
        into the stepper's buffer, and keeps no spectrum.
        """
        impulses = impulses or {}
        fk, obs_fk = self._fk, self._obs_fk
        start = state._spectrum_or_into(fk)
        n = 0
        for stop in stops:
            if stop < n:
                raise ValueError(f"stops must be ascending from 0, got {stop} after {n}")
            while n < stop:
                src, table = (fk, self.transport_full) if n else (start, self.transport_half)
                self._step(src, table, impulses.get(n))
                n += 1
            if n == 0:
                np.copyto(obs_fk, start)
            else:
                np.multiply(fk, self.transport_half, out=obs_fk)
            _require_finite(obs_fk, state.time + n * self.dt)
            yield n, obs_fk


def _require_finite(fk: np.ndarray, t: float) -> None:
    # row 0 holds the column sums over x, and a NaN or inf anywhere in a
    # column reaches its sum: this sees every non-finite state
    if not np.isfinite(fk[0]).all():
        raise NumericError(f"non-finite values detected at t = {t:g}")


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
    to roundoff because each sub-flow is an exact spectral shift that leaves
    the Nyquist bins alone, and the kick leaves the density unchanged.  A
    chain of calls is the fused `Stepper` trajectory to roundoff: the step is
    one `Stepper` step from the input's x-spectrum, and the result is built
    from the new spectrum (read-only), so a chain of calls costs one x-FFT
    pair per step and no inverse x-FFT until a result's ``data`` is read.
    The `Stepper` for each (grid, dt, interaction) is cached and reused, so
    concurrent calls from several threads must not share one.
    """
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    stepper = _cached_stepper(state.nx, state.nv, state.vmax, dt, interaction)
    stepper._step(state._spectrum_or_into(stepper._fk), stepper.transport_half, impulse)
    fk = np.multiply(stepper._fk, stepper.transport_half)
    _require_finite(fk, state.time + dt)
    return PhaseSpaceField(nx=state.nx, nv=state.nv, vmax=state.vmax, spectrum=_read_only(fk), time=state.time + dt)


# ---------------------------------------------------------------------------
# observables


def _check_ftilde_range(nx: int, nv: int, vmax: float, ks: Sequence[int], etas: np.ndarray) -> None:
    eta_nyq = nv / (4.0 * vmax)
    if np.any(np.abs(etas) > eta_nyq):
        raise ValueError(f"|eta| exceeds the resolvable range {eta_nyq:g}")
    if any(abs(k) > nx // 2 for k in ks):
        raise ValueError(f"|k| exceeds the grid's spatial Nyquist mode {nx // 2}")


def _direct_ftilde(phases: np.ndarray, row: np.ndarray, k: int, nx: int, dv: float) -> np.ndarray:
    """f~(k, eta): ``phases`` = exp(-2 i pi eta v) summed against rfft row |k| of f, conjugated for k < 0."""
    row = row / nx
    # einsum, not the threaded BLAS product: the sums must not depend on the thread count
    return np.einsum("...j,j->...", phases, np.conj(row) if k < 0 else row) * dv


def ftilde_sample(state: PhaseSpaceField, k: int, eta_list: Sequence[float]) -> np.ndarray:
    """Double-transform values f~(k, eta) for the requested eta list.

    eta is evaluated by direct summation, so it need not lie on the grid's
    frequency comb, but must stay below the resolvable Nyquist limit
    nv / (4 vmax).
    """
    eta = np.asarray(eta_list, dtype=float)
    _check_ftilde_range(state.nx, state.nv, state.vmax, [k], eta)
    phases = np.exp(-2j * np.pi * np.outer(eta, state.v))
    return _direct_ftilde(phases, state.spectrum[abs(k)], k, state.nx, state.dv)


@dataclass
class ObservableLog:
    """Sampled observables of one simulation run.

    ``rho_modes[:, k]`` holds the density coefficients for k = 0..k_obs
    (negative modes are conjugates for the real field).  ``l2`` and
    ``gradv_l2`` are the L2 norms of f and of its velocity derivative over
    the torus and the velocity grid.  ``recurrence`` holds the recurrence
    horizon t_R of each mode k = 1..max(k_obs, 1).  ``x_nyquist_content`` is
    the largest max_v |f^(nx/2, v)| / max_v |f^(0, v)| over the observations:
    the x-Nyquist row does not stream, so content there marks a run short of
    x-resolution.
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
    recurrence: dict[int, float]
    x_nyquist_content: float = 0.0

    def mode_history(self, k: int) -> ModeHistory:
        """Density mode as a `ModeHistory` (conjugated for negative k)."""
        if abs(k) > self.k_obs:
            raise ValueError(f"|k| = {abs(k)} was not observed (k_obs = {self.k_obs})")
        vals = self.rho_modes[:, abs(k)]
        if k < 0:
            vals = np.conj(vals)
        return ModeHistory(k=k, times=self.times.copy(), values=vals.copy())

    def write_observables_csv(self, path) -> None:
        write_columns_csv(path, ["t", "mass", "ekin", "epot", "l2", "gradv_l2"], ",".join(["%.17g"] * 6) + "\r\n",
                          (self.times, self.mass, self.ekin, self.epot, self.l2, self.gradv_l2))

    def write_modes_csv(self, path) -> None:
        n_k = self.k_obs + 1
        write_modes_csv(path, np.repeat(self.times, n_k), np.tile(np.arange(n_k), len(self.times)),
                        self.rho_modes.ravel())

    def write_ftilde_csv(self, path) -> None:
        n, n_points = len(self.times), len(self.ftilde_points)
        ks = np.array([k for k, _ in self.ftilde_points], dtype=int)
        etas = np.array([eta for _, eta in self.ftilde_points], dtype=float)
        z = self.ftilde.ravel()
        write_columns_csv(path, ["t", "k", "eta", "re", "im"], "%.17g,%d,%.17g,%.17g,%.17g\r\n",
                          (np.repeat(self.times, n_points), np.tile(ks, n), np.tile(etas, n), z.real, z.imag))


def _rho_hat(fk_rows: np.ndarray, nx: int, dv: float) -> np.ndarray:
    """Density coefficients rho_hat(t, k) = sum_v fk[k, v] dv / nx of the given rows of an x-spectrum.

    Every reader of rho_hat reduces the stepper's spectrum through here, so
    their values agree bit for bit.
    """
    return fk_rows.sum(axis=-1) * (dv / nx)


def _trajectory(
    profile: VelocityProfile, interaction: Interaction, perturbation: PerturbationSpec, *,
    nx: int, nv: int, vmax: float, dt: float, times: Sequence[float],
) -> Iterator[tuple[float, np.ndarray]]:
    """The one step schedule of `run`, the echo experiment and the norms experiment.

    Each of ``times`` (ascending) must sit on the step grid, each kick on a
    step before the last time, and each perturbation and kick mode below the
    x-Nyquist mode nx/2, which does not stream; a higher one would alias.  Yields
    ``(t, fk)`` at each time, ``fk`` being the x-spectrum, a buffer that the
    next stop overwrites.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    stops = [_grid_step(t, dt) for t in times]
    for t, n in zip(times, stops):
        if n < 0:
            raise ValueError(f"time {t:g} is not a nonnegative multiple of dt = {dt:g}")
    for k in [m.k for m in perturbation.modes] + [kick.mode for kick in perturbation.kicks]:
        if abs(k) > nx // 2:
            raise ValueError(f"mode {k} lies beyond the spatial Nyquist mode {nx // 2} and would alias")
        if abs(k) == nx // 2:
            raise ValueError(f"mode {k} is the spatial Nyquist mode {nx // 2}, which does not stream")
    n_last = max(stops, default=0)
    x = np.arange(nx) / nx
    impulses: dict[int, np.ndarray] = {}
    for kick in perturbation.kicks:
        s = _grid_step(kick.time, dt)
        if not 0 <= s < n_last:
            raise ValueError(f"kick time {kick.time:g} must sit on the step grid within [0, {n_last * dt:g})")
        wave = kick.amplitude * np.cos(2.0 * np.pi * kick.mode * x + kick.phase)
        impulses[s] = impulses.get(s, 0.0) + wave
    state = init_state(profile, perturbation, nx, nv, vmax)
    stepper = Stepper(nx, nv, vmax, dt, interaction)
    for t, (_, fk) in zip(times, stepper.evolve(state, stops, impulses)):
        yield t, fk


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
) -> ObservableLog:
    """Run the nonlinear simulation and collect the observable log.

    Kick events in the perturbation spec are applied impulsively during the
    step containing their (grid-aligned) time.  Every observable is read
    from the stop's x-spectrum (Parseval over x, and over v for the
    velocity gradient), so observing costs no inverse x-FFT.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = _grid_step(t_end, dt)
    if n_steps < 1:
        raise ValueError(f"t_end = {t_end:g} is not a multiple of dt = {dt:g}")
    if observe_stride < 1 or n_steps % observe_stride != 0:
        raise ValueError(f"observe_stride = {observe_stride} must divide n_steps = {n_steps}")
    if k_obs > nx // 2:
        raise ValueError(f"k_obs = {k_obs} beyond the spatial Nyquist mode {nx // 2}")
    ft_points = tuple((int(k), float(eta)) for k, eta in ftilde_points)
    ft_etas = np.array([eta for _, eta in ft_points])
    _check_ftilde_range(nx, nv, vmax, [k for k, _ in ft_points], ft_etas)

    times = np.arange(0, n_steps + 1, observe_stride) * dt
    n_obs = len(times)
    dv = 2.0 * vmax / nv
    v = -vmax + np.arange(nv) * dv
    mass = np.empty(n_obs)
    ekin = np.empty(n_obs)
    epot = np.empty(n_obs)
    l2 = np.empty(n_obs)
    gradv = np.empty(n_obs)
    rho_modes = np.empty((n_obs, k_obs + 1), dtype=complex)
    ftv = np.empty((n_obs, len(ft_points)), dtype=complex)
    x_nyq = np.empty(n_obs)
    prof = np.empty(nv)

    # nx and nv are powers of two (init_state), so the last rfft bin in x is
    # the Nyquist bin, counted once in Parseval sums, and the v Nyquist bin
    # carries no odd derivative
    what_tab = np.asarray(interaction.what(np.arange(nx // 2 + 1)), dtype=float)
    spec_weight = np.full(nx // 2 + 1, 2.0)
    spec_weight[0] = spec_weight[-1] = 1.0
    deriv = 2.0 * np.pi * np.fft.fftfreq(nv, d=dv)
    deriv[nv // 2] = 0.0
    g = np.empty((nx // 2 + 1, nv), dtype=complex)
    half_v2 = 0.5 * v**2
    ft_phases = np.exp(-2j * np.pi * np.outer(ft_etas, v))

    def spectral_sq(a: np.ndarray) -> float:
        # Parseval over x: weighted by spec_weight, the rows of a half
        # x-spectrum stand for the full spectrum of a real x-field, so this is
        # nx times the sum of squares over x (also after a v-FFT, as every eta
        # is summed).  einsum, not the threaded BLAS dot, so that the sum does
        # not depend on the thread count; two steps, as one three-operand
        # einsum is slower.
        re_im = a.view(float)
        return float(np.einsum("k,k->", spec_weight, np.einsum("kj,kj->k", re_im, re_im)))

    def observe(i: int, fk: np.ndarray) -> None:
        rho_k_full = _rho_hat(fk, nx, dv)
        mass[i] = rho_k_full[0].real
        np.divide(fk[0].real, nx, out=prof)
        ekin[i] = float(np.einsum("i,i->", prof, half_v2)) * dv
        epot[i] = 0.5 * float(np.sum(spec_weight * what_tab * np.abs(rho_k_full) ** 2))
        l2[i] = np.sqrt(spectral_sq(fk) * dv) / nx
        # the v-derivative by its comb on the v-spectrum of the x-spectrum;
        # Parseval over v: sum_j |g_j|^2 = sum_eta |G_eta|^2 / nv
        np.fft.fft(fk, axis=1, out=g)
        np.multiply(g, deriv, out=g)
        gradv[i] = np.sqrt(spectral_sq(g) * dv / nv) / nx
        rho_modes[i] = rho_k_full[: k_obs + 1]
        x_nyq[i] = np.abs(fk[-1]).max() / np.abs(fk[0]).max()
        for j, (k, _) in enumerate(ft_points):
            ftv[i, j] = _direct_ftilde(ft_phases[j], fk[abs(k)], k, nx, dv)

    trajectory = _trajectory(profile, interaction, perturbation, nx=nx, nv=nv, vmax=vmax, dt=dt, times=times)
    for i, (_, fk) in enumerate(trajectory):
        observe(i, fk)

    t_r = {k: recurrence_time(nv, vmax, k) for k in range(1, max(k_obs, 1) + 1)}
    return ObservableLog(
        times=times, mass=mass, ekin=ekin, epot=epot, l2=l2, gradv_l2=gradv,
        k_obs=k_obs, rho_modes=rho_modes, ftilde_points=ft_points, ftilde=ftv, recurrence=t_r,
        x_nyquist_content=float(x_nyq.max()),
    )
