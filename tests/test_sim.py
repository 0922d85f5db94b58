"""Split-step simulator: exactness, conservation, convergence, observables."""

import re

import numpy as np
import pytest

from landau_lab.errors import NumericError
from landau_lab.models import builtin_interaction, maxwellian, zero_interaction
from landau_lab.sim import (
    KickEvent,
    Stepper,
    PerturbationMode,
    PhaseSpaceField,
    PerturbationSpec,
    ftilde_sample,
    init_state,
    recurrence_time,
    run,
    strang_step,
)
from landau_lab.sim import _cached_stepper, _force, _force_multiplier, _trajectory

MAX = maxwellian()
STRONG = builtin_interaction("coulomb", 16.0 * np.pi**2)
SINGLE = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=1e-3),))


def small_state(pert=SINGLE, nx=32, nv=256):
    return init_state(MAX, pert, nx=nx, nv=nv, vmax=8.0)


@pytest.fixture
def fft_calls(monkeypatch):
    """(name, ndim, axis) of every numpy.fft transform called during the test."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def recording(a, *args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls.append((_name, np.ndim(a), kwargs.get("axis", -1)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, recording)
    return calls


def last_spectrum(st, interaction, dt, n_steps, impulses=None):
    """The x-spectrum that a `Stepper` yields after n_steps from the state ``st``."""
    stepper = Stepper(st.nx, st.nv, st.vmax, dt, interaction)
    (_, fk), = stepper.evolve(st, [n_steps], impulses)
    return fk


# ---------------------------------------------------------------------------
# initialization


def test_init_equilibrium_matches_profile():
    st = small_state(PerturbationSpec())
    np.testing.assert_allclose(st.data, np.outer(np.ones(32), MAX.pdf(st.v)), rtol=0, atol=1e-18)
    assert (st.data.sum(axis=1) * st.dv).mean() == pytest.approx(1.0, abs=1e-9)


def test_init_single_mode_coefficient():
    st = small_state()
    rho = np.fft.rfft(st.data.sum(axis=1) * st.dv)[:3] / st.nx
    assert abs(rho[1]) == pytest.approx(0.5e-3, rel=1e-10)
    assert abs(rho[2]) < 1e-16


def test_init_modes_superpose():
    p12 = PerturbationSpec(modes=(
        PerturbationMode(k=1, amplitude=1e-3),
        PerturbationMode(k=2, amplitude=5e-4, phase=0.7),
    ))
    st = small_state(p12)
    rho = np.fft.rfft(st.data.sum(axis=1) * st.dv)[:4] / st.nx
    assert abs(rho[1]) == pytest.approx(0.5e-3, rel=1e-9)
    assert rho[2] == pytest.approx(2.5e-4 * np.exp(0.7j), rel=1e-9)


def test_init_rejects_bad_grids_and_negativity():
    with pytest.raises(ValueError, match="power of two"):
        init_state(MAX, SINGLE, nx=48, nv=256, vmax=8.0)
    with pytest.raises(ValueError, match="cutoff"):
        init_state(MAX, SINGLE, nx=32, nv=256, vmax=4.0)
    with pytest.raises(ValueError, match="negative"):
        init_state(MAX, PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=1.5),)), nx=32, nv=256, vmax=8.0)


# ---------------------------------------------------------------------------
# force


def test_force_zero_for_homogeneous_state():
    st = small_state(PerturbationSpec())
    f = _force(st.data.sum(axis=1) * st.dv, _force_multiplier(st.nx, STRONG))
    assert np.max(np.abs(f)) < 1e-15


def test_force_matches_poisson_oracle():
    # oracle: solve -phi'' = rho - <rho> by second-order finite differences
    eps = 1e-3
    st = small_state(PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=eps),)))
    c1 = builtin_interaction("coulomb", 1.0)
    rho = st.data.sum(axis=1) * st.dv
    f = _force(rho, _force_multiplier(st.nx, c1))
    nx = st.nx
    dx = 1.0 / nx
    src = rho - rho.mean()
    lap = (np.diag(np.full(nx, -2.0)) + np.diag(np.ones(nx - 1), 1) + np.diag(np.ones(nx - 1), -1))
    lap[0, -1] = lap[-1, 0] = 1.0
    lap /= dx**2
    phi = np.linalg.lstsq(-lap, src, rcond=None)[0]
    force_fd = -np.gradient(phi, dx, edge_order=2)
    # analytic check too: F = eps sin(2 pi x) / (2 pi)
    np.testing.assert_allclose(f, eps * np.sin(2 * np.pi * np.arange(nx) / nx) / (2 * np.pi), rtol=0, atol=1e-12)
    assert np.max(np.abs(f - force_fd)) < 2e-2 * np.max(np.abs(f)) + 1e-12
    assert abs(f.mean()) < 1e-17


# ---------------------------------------------------------------------------
# stepping


def test_equilibrium_is_stationary():
    st = small_state(PerturbationSpec())
    cur = st
    for _ in range(50):
        cur = strang_step(cur, STRONG, 1 / 32)
    assert np.max(np.abs(cur.data - st.data)) < 1e-13 * st.data.max()


def test_free_transport_is_exact_spectral_shift():
    st = small_state()
    cur = st
    n = 64
    for _ in range(n):
        cur = strang_step(cur, zero_interaction(), 1 / 32)
    t = n / 32
    kx = np.arange(st.nx // 2 + 1)
    shift = np.exp(-2j * np.pi * np.outer(kx, st.v) * t)
    expected = np.fft.irfft(np.fft.rfft(st.data, axis=0) * shift, n=st.nx, axis=0)
    assert np.max(np.abs(cur.data - expected)) < 1e-13 * st.data.max()


def test_free_evolve_makes_no_fft_and_is_the_exact_shift(fft_calls):
    # zero force: the kick is the identity and is skipped, so each step is
    # one transport product; the x-Nyquist row does not stream
    st = small_state(PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=0.3),
                                             PerturbationMode(k=16, amplitude=0.2))))
    spec0 = st.spectrum.copy()
    start = PhaseSpaceField(st.nx, st.nv, st.vmax, spectrum=spec0)
    stepper = Stepper(st.nx, st.nv, st.vmax, 1 / 32, zero_interaction())
    fft_calls.clear()
    seen = [(n, fk.copy()) for n, fk in stepper.evolve(start, [0, 1, 40, 100])]
    assert fft_calls == []
    kx = np.arange(st.nx // 2 + 1)
    for n, fk in seen:
        expected = spec0 * np.exp(-2j * np.pi * np.outer(kx, st.v) * (n / 32))
        expected[-1] = spec0[-1]
        assert np.max(np.abs(fk - expected)) <= 1e-14 * np.max(np.abs(spec0))
    assert np.max(np.abs(seen[-1][1][-1])) > 1e-3 * np.max(np.abs(spec0))  # the Nyquist row is live


def test_strang_step_chain_costs_one_x_fft_pair_per_step(fft_calls):
    cur = strang_step(small_state(), STRONG, 1 / 32)
    fft_calls.clear()
    n = 6
    for _ in range(n):
        cur = strang_step(cur, STRONG, 1 / 32)
    x_calls = [name for name, ndim, axis in fft_calls if ndim == 2 and axis == 0]
    assert sorted(x_calls) == ["irfft"] * n + ["rfft"] * n
    # the result is born from its spectrum: its values are inverted once, when read
    fft_calls.clear()
    data = cur.data
    assert cur.data is data
    assert fft_calls == [("irfft", 2, 0)]


def test_derived_forms_are_read_only():
    one = strang_step(small_state(), STRONG, 1 / 32)
    for form in (one.data, one.spectrum, small_state().spectrum):
        with pytest.raises(ValueError, match="read-only"):
            form[0, 0] = 1.0
    given = small_state()
    given.data[0, 0] += 0.0  # a given form is kept as it is, writable


def test_field_takes_exactly_one_form_of_the_right_shape():
    st = small_state()
    with pytest.raises(ValueError, match="exactly one"):
        PhaseSpaceField(st.nx, st.nv, st.vmax)
    with pytest.raises(ValueError, match="exactly one"):
        PhaseSpaceField(st.nx, st.nv, st.vmax, data=st.data, spectrum=st.spectrum)
    with pytest.raises(ValueError, match="spectrum shape"):
        PhaseSpaceField(st.nx, st.nv, st.vmax, spectrum=st.data)
    with pytest.raises(ValueError, match="data shape"):
        PhaseSpaceField(st.nx, st.nv, st.vmax, data=st.spectrum.real)
    both = PhaseSpaceField(st.nx, st.nv, st.vmax, spectrum=st.spectrum, time=0.5)
    np.testing.assert_allclose(both.data, st.data, rtol=0, atol=1e-15 * np.max(st.data))


def test_free_strang_steps_share_one_cached_stepper():
    assert zero_interaction() is zero_interaction()
    before = _cached_stepper.cache_info()
    cur = small_state()
    for _ in range(10):
        cur = strang_step(cur, zero_interaction(), 1 / 48)  # a dt no other test uses
    after = _cached_stepper.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 9)


def test_forward_backward_reversibility():
    st = small_state()
    cur = st
    for _ in range(320):
        cur = strang_step(cur, STRONG, 1 / 64)
    for _ in range(320):
        cur = strang_step(cur, STRONG, -1 / 64)
    assert np.max(np.abs(cur.data - st.data)) <= 1e-10 * st.data.max()


def test_step_detects_nonfinite():
    st = small_state()
    st.data[0, 0] = np.nan
    with pytest.raises(NumericError):
        strang_step(st, STRONG, 1 / 32)


def test_dt_halving_reduces_terminal_error():
    def terminal(dt):
        return np.fft.irfft(last_spectrum(small_state(), STRONG, dt, int(round(2.0 / dt))), n=32, axis=0)

    ref = terminal(1 / 512)
    e1 = np.max(np.abs(terminal(1 / 64) - ref))
    e2 = np.max(np.abs(terminal(1 / 128) - ref))
    assert 3.5 <= e1 / e2 <= 4.5


def test_run_matches_strang_step_loop_with_kick():
    # the fused engine behind run(), with run's kick schedule, against plain full Strang steps
    dt = 1 / 32
    pert = PerturbationSpec(modes=SINGLE.modes, kicks=(KickEvent(time=0.5, mode=2, amplitude=1e-3, phase=0.3),))
    log = run(MAX, STRONG, pert, nx=32, nv=256, vmax=8.0, dt=dt, t_end=1.0, observe_stride=4, k_obs=2)
    (_, fk), = _trajectory(MAX, STRONG, pert, nx=32, nv=256, vmax=8.0, dt=dt, times=[1.0])
    fused = np.fft.irfft(fk, n=32, axis=0)
    cur = small_state(pert)
    wave = 1e-3 * np.cos(2 * np.pi * 2 * np.arange(cur.nx) / cur.nx + 0.3)
    for n in range(32):
        cur = strang_step(cur, STRONG, dt, impulse=wave if n == 16 else None)
    assert np.max(np.abs(fused - cur.data)) <= 1e-12 * np.max(np.abs(cur.data))
    assert log.times[-1] == pytest.approx(cur.time)
    rho_k = np.fft.rfft(cur.data.sum(axis=1) * cur.dv)[:3] / cur.nx
    np.testing.assert_allclose(log.rho_modes[-1], rho_k, rtol=0, atol=1e-14)


# mode 1 kicked at t = 0.5 on 16 x 256: the kick fills the x-Nyquist row
KICKED = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=2e-3),),
                          kicks=(KickEvent(time=0.5, mode=1, amplitude=0.5),))


def test_trajectory_and_a_strang_step_loop_are_one_discretization():
    # neither path streams the x-Nyquist row, so the fused steps and the
    # per-call steps agree at roundoff once that row holds content
    dt = 1 / 16
    fused = {t: np.fft.irfft(fk, n=16, axis=0)
             for t, fk in _trajectory(MAX, STRONG, KICKED, nx=16, nv=256, vmax=8.0, dt=dt, times=[0.75, 1.0])}
    cur = small_state(KICKED, nx=16)
    wave = 0.5 * np.cos(2 * np.pi * np.arange(16) / 16)
    for n in range(16):
        cur = strang_step(cur, STRONG, dt, impulse=wave if n == 8 else None)
        if (n + 1) * dt in fused:
            assert np.max(np.abs(fused[(n + 1) * dt] - cur.data)) <= 1e-14
    assert np.max(np.abs(cur.spectrum[-1])) > 1e-4 * np.max(np.abs(cur.spectrum[0]))


def test_a_round_trip_with_x_nyquist_content_returns_to_its_start():
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=0.05), PerturbationMode(k=2, amplitude=0.05)))
    st = small_state(pert, nx=16)
    cur = st
    for dt in (1 / 16, -1 / 16):
        for _ in range(192):
            cur = strang_step(cur, STRONG, dt)
        if dt > 0:  # filamented, with content in the x-Nyquist row
            assert np.max(np.abs(cur.spectrum[-1])) > 1e-3 * np.max(np.abs(cur.spectrum[0]))
    assert np.max(np.abs(cur.data - st.data)) <= 1e-10 * np.max(np.abs(st.data))


def test_a_kicked_run_keeps_l2_and_reports_its_x_nyquist_content():
    log = run(MAX, STRONG, KICKED, nx=16, nv=256, vmax=8.0, dt=1 / 32, t_end=12.0)
    np.testing.assert_allclose(log.l2, log.l2[0], rtol=1e-12, atol=0)
    assert log.x_nyquist_content > 1e-10


def test_x_nyquist_content_of_a_resolved_run_is_roundoff():
    kw = dict(nx=16, nv=256, vmax=8.0, dt=1 / 16, t_end=1.0)
    assert run(MAX, STRONG, PerturbationSpec(modes=KICKED.modes), **kw).x_nyquist_content < 1e-10
    assert run(MAX, STRONG, KICKED, **kw).x_nyquist_content > 1e-10


def test_final_state_does_not_depend_on_observe_stride():
    kw = dict(nx=32, nv=256, vmax=8.0, dt=1 / 32, t_end=1.0, k_obs=1)
    every = run(MAX, STRONG, SINGLE, observe_stride=1, **kw)
    last = run(MAX, STRONG, SINGLE, observe_stride=32, **kw)
    for name in ("times", "mass", "ekin", "epot", "l2", "gradv_l2", "rho_modes"):
        assert np.array_equal(getattr(every, name)[-1], getattr(last, name)[-1]), name
    assert np.array_equal(every.ekin[::32], last.ekin)
    assert np.array_equal(every.rho_modes[::32], last.rho_modes)


def test_evolve_yields_each_stop_and_keeps_the_trajectory():
    st = small_state()
    stepper = Stepper(st.nx, st.nv, st.vmax, 1 / 32, STRONG)
    seen = [(n, fk.copy()) for n, fk in stepper.evolve(st, [0, 3, 3, 8])]
    assert [n for n, _ in seen] == [0, 3, 3, 8]
    np.testing.assert_array_equal(seen[0][1], np.fft.rfft(st.data, axis=0))
    np.testing.assert_array_equal(seen[1][1], seen[2][1])
    _, alone = next(stepper.evolve(st, [8]))
    np.testing.assert_array_equal(alone, seen[3][1])
    with pytest.raises(ValueError, match="ascending"):
        list(stepper.evolve(st, [2, 1]))


@pytest.mark.parametrize("stops", [[0], [3]], ids=["stop_0", "stop_3"])
def test_evolve_detects_nonfinite_without_an_x_state_request(stops):
    # the check reads the stop's spectrum, so a caller that never inverts
    # it to x-space still sees the NaN
    st = small_state()
    st.data[5, 100] = np.nan
    stepper = Stepper(st.nx, st.nv, st.vmax, 1 / 32, STRONG)
    with pytest.raises(NumericError, match="non-finite"):
        next(stepper.evolve(st, stops))


def test_strang_step_reuses_cached_steppers():
    st = small_state()
    interaction = builtin_interaction("coulomb", 16.0 * np.pi**2)  # fresh cache keys
    before = _cached_stepper.cache_info()
    cur = st
    for dt in (1 / 64, -1 / 64):
        for _ in range(10):
            cur = strang_step(cur, interaction, dt)
    after = _cached_stepper.cache_info()
    assert after.misses - before.misses == 2
    assert after.hits - before.hits == 18
    assert np.max(np.abs(cur.data - st.data)) <= 1e-12 * st.data.max()
    # a returned state does not share the cached stepper's buffers
    one = strang_step(st, interaction, 1 / 64)
    kept = one.data.copy()
    strang_step(one, interaction, 1 / 64)
    np.testing.assert_array_equal(one.data, kept)


# ---------------------------------------------------------------------------
# run-level conservation and observables


def x_space_observables(f, nx, dv, k_obs, interaction):
    """Reference: mass, ekin, epot, l2, gradv_l2 and rho_k (k <= k_obs) summed over the x-space state f."""
    nv = f.shape[1]
    v = -0.5 * nv * dv + np.arange(nv) * dv
    rho = f.sum(axis=1) * dv
    rho_k = np.fft.fft(rho) / nx  # every mode, negative ones too
    epot = 0.5 * np.sum(interaction.what(np.fft.fftfreq(nx, d=1.0 / nx)) * np.abs(rho_k) ** 2)
    # |d_v f|^2 by Parseval over the real v-FFT: interior bins count twice,
    # and the Nyquist bin has no odd derivative
    deriv = 2.0 * np.pi * np.fft.rfftfreq(nv, d=dv)
    deriv[-1] = 0.0
    weight = np.full(nv // 2 + 1, 2.0)
    weight[0] = weight[-1] = 1.0
    grad_sq = np.sum(weight * deriv**2 * np.abs(np.fft.rfft(f, axis=1)) ** 2) / nv
    return (rho.mean(), float(np.sum(f.mean(axis=0) * 0.5 * v**2)) * dv, epot,
            np.sqrt(np.sum(f**2) * dv / nx), np.sqrt(grad_sq * dv / nx), rho_k[: k_obs + 1])


def test_run_observables_match_x_space_sums_at_every_stop():
    # run reads every observable from the stop's x-spectrum; the reference
    # steps the same trajectory and sums over the x-space state itself
    dt, stride, k_obs = 1 / 32, 4, 3
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=0.05), PerturbationMode(k=3, amplitude=0.02)),
                            kicks=(KickEvent(time=0.5, mode=2, amplitude=0.05, phase=0.3),))
    log = run(MAX, STRONG, pert, nx=32, nv=256, vmax=8.0, dt=dt, t_end=2.0, observe_stride=stride, k_obs=k_obs)
    st = small_state(pert)
    impulses = {16: 0.05 * np.cos(2 * np.pi * 2 * np.arange(st.nx) / st.nx + 0.3)}
    stepper = Stepper(st.nx, st.nv, st.vmax, dt, STRONG)
    ref = [x_space_observables(np.fft.irfft(fk, n=st.nx, axis=0), st.nx, st.dv, k_obs, STRONG)
           for _, fk in stepper.evolve(st, range(0, 65, stride), impulses)]
    mass, ekin, epot, l2, gradv, modes = (np.array(col) for col in zip(*ref))
    assert len(mass) == len(log.times) == 17
    for name, got, want in (("mass", log.mass, mass), ("ekin", log.ekin, ekin), ("epot", log.epot, epot),
                            ("l2", log.l2, l2), ("gradv_l2", log.gradv_l2, gradv)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=name)
    np.testing.assert_allclose(log.rho_modes, modes, rtol=0, atol=1e-14)
    assert np.max(np.abs(modes[:, 1:])) > 1e-3  # the modes are live, not roundoff


@pytest.mark.parametrize("stride", [1, 4, 64])
def test_run_takes_one_inverse_x_transform_per_step(monkeypatch, stride):
    irfft, axes = np.fft.irfft, []

    def counting_irfft(a, *args, **kwargs):
        if np.ndim(a) == 2:
            axes.append(kwargs.get("axis", -1))
        return irfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting_irfft)
    log = run(MAX, STRONG, SINGLE, nx=32, nv=256, vmax=8.0, dt=1 / 32, t_end=2.0, observe_stride=stride, k_obs=1)
    assert len(log.times) == 64 // stride + 1
    assert axes.count(0) == 64


@pytest.fixture(scope="module")
def damped_log():
    return run(MAX, STRONG, SINGLE, nx=32, nv=256, vmax=8.0, dt=1 / 64, t_end=6.0,
               observe_stride=4, k_obs=2, ftilde_points=((1, 0.0), (0, 0.0)))


def test_mass_conserved(damped_log):
    assert np.max(np.abs(damped_log.mass / damped_log.mass[0] - 1.0)) <= 1e-12


def test_field_stays_real_and_finite():
    # the damped_log trajectory, to its last step
    f = np.fft.irfft(last_spectrum(small_state(), STRONG, 1 / 64, 384), n=32, axis=0)
    assert f.dtype == np.float64
    assert np.isfinite(f).all()


def test_l2_drift_bounded(damped_log):
    assert np.max(np.abs(damped_log.l2 / damped_log.l2[0] - 1.0)) <= 1e-6


def test_energy_drift_scales_second_order():
    def drift(dt):
        log = run(MAX, STRONG, SINGLE, nx=32, nv=256, vmax=8.0, dt=dt, t_end=4.0,
                  observe_stride=4, k_obs=1)
        e = log.ekin + log.epot
        return np.max(np.abs(e - e[0])) / e[0]

    assert 3.5 <= drift(1 / 64) / drift(1 / 128) <= 4.5


@pytest.mark.parametrize("nv", [256, 1024])
def test_gradv_l2_of_the_maxwellian_matches_closed_form(nv):
    # ||d_v M||_L2 = (int v^2 M^2 dv)^(1/2) = (4 sqrt(pi))^(-1/2) for the unit Maxwellian
    log = run(MAX, STRONG, PerturbationSpec(), nx=4, nv=nv, vmax=8.0, dt=1 / 32, t_end=1 / 32, k_obs=1)
    np.testing.assert_allclose(log.gradv_l2, (4.0 * np.sqrt(np.pi)) ** -0.5, rtol=1e-12)


def test_homogeneous_run_has_no_modes():
    log = run(MAX, STRONG, PerturbationSpec(), nx=32, nv=256, vmax=8.0, dt=1 / 32, t_end=2.0,
              observe_stride=8, k_obs=2)
    assert np.max(np.abs(log.rho_modes[:, 1:])) < 1e-13


def test_ftilde_identities(damped_log):
    # eta = 0 at k reproduces the density mode; (0, 0) is the total mass
    np.testing.assert_allclose(damped_log.ftilde[:, 0], damped_log.rho_modes[:, 1], rtol=0, atol=1e-14)
    np.testing.assert_allclose(damped_log.ftilde[:, 1].real, damped_log.mass, rtol=1e-12)


def test_ftilde_free_transport_identity():
    st = small_state()
    cur = st
    for _ in range(32):
        cur = strang_step(cur, zero_interaction(), 1 / 32)
    t = 1.0
    for eta in (0.0, 0.25, -0.5):
        np.testing.assert_allclose(
            ftilde_sample(cur, 1, [eta])[0], ftilde_sample(st, 1, [eta + t])[0], rtol=0, atol=1e-16
        )


def test_ftilde_range_validation():
    st = small_state()
    with pytest.raises(ValueError):
        ftilde_sample(st, 1, [st.nv / (4 * st.vmax) + 1.0])
    with pytest.raises(ValueError):
        ftilde_sample(st, st.nx, [0.0])


def test_run_rejects_out_of_range_ftilde_points():
    st = small_state()
    kw = dict(nx=32, nv=256, vmax=8.0, dt=1 / 32, t_end=1.0, observe_stride=4)
    for k, eta in ((1, st.nv / (4 * st.vmax) + 1.0), (st.nx, 0.0)):
        with pytest.raises(ValueError) as sample_error:
            ftilde_sample(st, k, [eta])
        with pytest.raises(ValueError, match=re.escape(str(sample_error.value))):
            run(MAX, STRONG, SINGLE, ftilde_points=((k, eta),), **kw)


def test_recurrence_time_scalings():
    assert recurrence_time(1024, 8.0, 1) == 64.0
    assert recurrence_time(1024, 8.0, 2) == 32.0
    assert recurrence_time(2048, 8.0, 1) == 128.0
    with pytest.raises(ValueError):
        recurrence_time(1024, 8.0, 0)


def test_free_transport_mode_revives_at_recurrence():
    # the discrete velocity comb refocuses the damped mode at t_R exactly
    log = run(MAX, zero_interaction(), SINGLE, nx=32, nv=64, vmax=8.0, dt=1 / 16,
              t_end=recurrence_time(64, 8.0, 1), observe_stride=1, k_obs=1)
    amp = np.abs(log.rho_modes[:, 1])
    mid = amp[len(amp) // 2]
    assert mid < 1e-12  # fully phase-mixed in between
    assert amp[-1] == pytest.approx(amp[0], rel=1e-10)  # spurious revival at t_R


def test_kick_changes_only_target_mode_linearly():
    pert = PerturbationSpec(kicks=(KickEvent(time=0.5, mode=2, amplitude=1e-4),))
    log = run(MAX, zero_interaction(), pert, nx=32, nv=256, vmax=8.0, dt=1 / 32, t_end=1.0,
              observe_stride=4, k_obs=3)
    before = np.abs(log.rho_modes[log.times < 0.5])
    assert np.max(before[:, 1:]) < 1e-15
    after = np.abs(log.rho_modes[log.times > 0.6])
    assert np.max(after[:, 2]) > 1e-6
    assert np.max(after[:, 1]) < 1e-12 and np.max(after[:, 3]) < 1e-12


def test_run_validates_stride_and_kick_times():
    with pytest.raises(ValueError, match="observe_stride"):
        run(MAX, STRONG, SINGLE, nx=32, nv=256, vmax=8.0, dt=1 / 32, t_end=1.0, observe_stride=7)
    bad = PerturbationSpec(kicks=(KickEvent(time=2.0, mode=1, amplitude=1e-4),))
    with pytest.raises(ValueError, match="kick"):
        run(MAX, STRONG, bad, nx=32, nv=256, vmax=8.0, dt=1 / 32, t_end=1.0, observe_stride=4)


# ---------------------------------------------------------------------------
# asymptotic profile: the x-average of f, read from the k = 0 row of the spectrum


def x_averaged_profile(pert, nv, t_end):
    st = small_state(pert, nv=nv)
    return st.v, last_spectrum(st, STRONG, 1 / 32, int(round(t_end * 32)))[0].real / st.nx


def test_asymptotic_profile_homogeneous_is_equilibrium():
    v, f_inf = x_averaged_profile(PerturbationSpec(), nv=256, t_end=1.0)
    np.testing.assert_allclose(f_inf, MAX.pdf(v), rtol=0, atol=1e-15)


def test_asymptotic_profile_linear_regime_preserves_average():
    delta = 1e-4
    v, f_inf = x_averaged_profile(PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=delta),)), nv=512,
                                  t_end=12.0)
    initial_marginal = MAX.pdf(v)  # cosine average vanishes
    assert np.max(np.abs(f_inf - initial_marginal)) <= 100 * delta**2


def test_filamentation_gradient_grows_while_modes_decay():
    # linear-regime damped run: velocity gradients feed on phase mixing while
    # every macroscopic mode decays; nv = 2048 keeps even the k = 2 recurrence
    # horizon (t_R = 64) beyond the t = 40 checkpoint
    delta = 1e-5
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=delta),))
    log = run(MAX, builtin_interaction("coulomb", 400.0), pert, nx=32, nv=2048, vmax=8.0,
              dt=1 / 32, t_end=40.0, observe_stride=32, k_obs=2)
    idx = [int(np.argmin(np.abs(log.times - t))) for t in (10.0, 20.0, 40.0)]
    grads = log.gradv_l2[idx]
    mode_max = np.abs(log.rho_modes[:, 1:]).max(axis=1)[idx]
    assert grads[0] < grads[1] < grads[2]
    assert mode_max[0] > mode_max[1] > mode_max[2]


def test_asymptotic_profile_quadratic_memory_scaling():
    # the deposited profile change scales like the square of the perturbation
    diffs = []
    for delta in (1e-2, 5e-3, 2.5e-3):
        v, f_inf = x_averaged_profile(PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=delta),)), nv=512,
                                      t_end=12.0)
        diffs.append(np.max(np.abs(f_inf - MAX.pdf(v))))
    r1, r2 = diffs[0] / diffs[1], diffs[1] / diffs[2]
    assert 3.0 < r1 < 5.0
    assert 3.0 < r2 < 5.0
