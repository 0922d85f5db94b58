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
    PerturbationSpec,
    asymptotic_profile,
    force_field,
    ftilde_sample,
    init_state,
    recurrence_time,
    run,
    strang_step,
)
from landau_lab.sim import _cached_stepper

MAX = maxwellian()
STRONG = builtin_interaction("coulomb", 16.0 * np.pi**2)
SINGLE = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=1e-3),))


def small_state(pert=SINGLE, nx=32, nv=256):
    return init_state(MAX, pert, nx=nx, nv=nv, vmax=8.0)


# ---------------------------------------------------------------------------
# initialization


def test_init_equilibrium_matches_profile():
    st = small_state(PerturbationSpec())
    np.testing.assert_allclose(st.data, np.outer(np.ones(32), MAX.pdf(st.v)), rtol=0, atol=1e-18)
    assert st.mass() == pytest.approx(1.0, abs=1e-9)


def test_init_single_mode_coefficient():
    st = small_state()
    rho = st.rho_hat(2)
    assert abs(rho[1]) == pytest.approx(0.5e-3, rel=1e-10)
    assert abs(rho[2]) < 1e-16


def test_init_modes_superpose():
    p12 = PerturbationSpec(modes=(
        PerturbationMode(k=1, amplitude=1e-3),
        PerturbationMode(k=2, amplitude=5e-4, phase=0.7),
    ))
    st = small_state(p12)
    rho = st.rho_hat(3)
    assert abs(rho[1]) == pytest.approx(0.5e-3, rel=1e-9)
    assert rho[2] == pytest.approx(2.5e-4 * np.exp(0.7j), rel=1e-9)


def test_init_rejects_bad_grids_and_negativity():
    with pytest.raises(ValueError, match="power of two"):
        init_state(MAX, SINGLE, nx=48, nv=256, vmax=8.0)
    with pytest.raises(ValueError, match="cutoff"):
        init_state(MAX, SINGLE, nx=32, nv=256, vmax=4.0)
    with pytest.raises(ValueError, match="negative"):
        init_state(MAX, PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=1.5),)), nx=32, nv=256, vmax=8.0)


def test_init_gaussian_shape_is_additive():
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=1e-4, shape="gaussian", width=0.5),))
    st = small_state(pert)
    bump = np.exp(-st.v**2 / 0.5) / np.sqrt(2 * np.pi * 0.25)
    expected = np.outer(np.ones(32), MAX.pdf(st.v)) + np.outer(1e-4 * np.cos(2 * np.pi * st.x), bump)
    np.testing.assert_allclose(st.data, expected, rtol=0, atol=1e-18)


# ---------------------------------------------------------------------------
# force


def test_force_zero_for_homogeneous_state():
    st = small_state(PerturbationSpec())
    f = force_field(st, STRONG)
    assert np.max(np.abs(f)) < 1e-15


def test_force_matches_poisson_oracle():
    # oracle: solve -phi'' = rho - <rho> by second-order finite differences
    eps = 1e-3
    st = small_state(PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=eps),)))
    c1 = builtin_interaction("coulomb", 1.0)
    f = force_field(st, c1)
    nx = st.nx
    dx = 1.0 / nx
    rho = st.density()
    src = rho - rho.mean()
    lap = (np.diag(np.full(nx, -2.0)) + np.diag(np.ones(nx - 1), 1) + np.diag(np.ones(nx - 1), -1))
    lap[0, -1] = lap[-1, 0] = 1.0
    lap /= dx**2
    phi = np.linalg.lstsq(-lap, src, rcond=None)[0]
    force_fd = -np.gradient(phi, dx, edge_order=2)
    # analytic check too: F = eps sin(2 pi x) / (2 pi)
    np.testing.assert_allclose(f, eps * np.sin(2 * np.pi * st.x) / (2 * np.pi), rtol=0, atol=1e-12)
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
        log = run(MAX, STRONG, SINGLE, nx=32, nv=256, vmax=8.0, dt=dt, t_end=2.0,
                  observe_stride=int(round(2.0 / dt)), k_obs=1)
        return log.final_state.data

    ref = terminal(1 / 512)
    e1 = np.max(np.abs(terminal(1 / 64) - ref))
    e2 = np.max(np.abs(terminal(1 / 128) - ref))
    assert 3.5 <= e1 / e2 <= 4.5


def test_run_matches_strang_step_loop_with_kick():
    # the fused engine behind run() against plain full Strang steps
    dt = 1 / 32
    pert = PerturbationSpec(modes=SINGLE.modes, kicks=(KickEvent(time=0.5, mode=2, amplitude=1e-3, phase=0.3),))
    log = run(MAX, STRONG, pert, nx=32, nv=256, vmax=8.0, dt=dt, t_end=1.0, observe_stride=4, k_obs=2)
    cur = small_state(pert)
    wave = 1e-3 * np.cos(2 * np.pi * 2 * cur.x + 0.3)
    for n in range(32):
        cur = strang_step(cur, STRONG, dt, impulse=wave if n == 16 else None)
    assert log.final_state.time == pytest.approx(cur.time)
    assert np.max(np.abs(log.final_state.data - cur.data)) <= 1e-12 * np.max(np.abs(cur.data))


def test_final_state_does_not_depend_on_observe_stride():
    kw = dict(nx=32, nv=256, vmax=8.0, dt=1 / 32, t_end=1.0, k_obs=1)
    every = run(MAX, STRONG, SINGLE, observe_stride=1, **kw)
    last = run(MAX, STRONG, SINGLE, observe_stride=32, **kw)
    assert np.array_equal(every.final_state.data, last.final_state.data)
    assert np.array_equal(every.marginals[::32], last.marginals)


def test_evolve_yields_each_stop_and_keeps_the_trajectory():
    st = small_state()
    stepper = Stepper(st.nx, st.nv, st.vmax, 1 / 32, STRONG)
    seen = [(n, f.copy()) for n, f, _ in stepper.evolve(st.data, [0, 3, 3, 8])]
    assert [n for n, _ in seen] == [0, 3, 3, 8]
    np.testing.assert_array_equal(seen[0][1], st.data)
    np.testing.assert_array_equal(seen[1][1], seen[2][1])
    _, alone, _ = next(stepper.evolve(st.data, [8]))
    np.testing.assert_array_equal(alone, seen[3][1])
    with pytest.raises(ValueError, match="ascending"):
        list(stepper.evolve(st.data, [2, 1]))


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


@pytest.fixture(scope="module")
def damped_log():
    return run(MAX, STRONG, SINGLE, nx=32, nv=256, vmax=8.0, dt=1 / 64, t_end=6.0,
               observe_stride=4, k_obs=2, ftilde_points=((1, 0.0), (0, 0.0)))


def test_mass_conserved(damped_log):
    assert np.max(np.abs(damped_log.mass / damped_log.mass[0] - 1.0)) <= 1e-12


def test_field_stays_real_and_finite(damped_log):
    assert damped_log.final_state.data.dtype == np.float64
    assert np.isfinite(damped_log.final_state.data).all()


def test_l2_drift_bounded(damped_log):
    assert np.max(np.abs(damped_log.l2 / damped_log.l2[0] - 1.0)) <= 1e-6


def test_energy_drift_scales_second_order():
    def drift(dt):
        log = run(MAX, STRONG, SINGLE, nx=32, nv=256, vmax=8.0, dt=dt, t_end=4.0,
                  observe_stride=4, k_obs=1)
        e = log.ekin + log.epot
        return np.max(np.abs(e - e[0])) / e[0]

    assert 3.5 <= drift(1 / 64) / drift(1 / 128) <= 4.5


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


def test_ftilde_range_validation(damped_log):
    st = damped_log.final_state
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
    assert bool(log.post_recurrence[-1])


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
# asymptotic profile


def test_asymptotic_profile_homogeneous_is_equilibrium():
    log = run(MAX, STRONG, PerturbationSpec(), nx=32, nv=256, vmax=8.0, dt=1 / 32, t_end=1.0,
              observe_stride=16, k_obs=1)
    est = asymptotic_profile(log)
    np.testing.assert_allclose(est.f_inf, MAX.pdf(est.v), rtol=0, atol=1e-15)
    assert est.sup_diff < 1e-15


def test_asymptotic_profile_linear_regime_preserves_average():
    delta = 1e-4
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=delta),))
    log = run(MAX, STRONG, pert, nx=32, nv=512, vmax=8.0, dt=1 / 32, t_end=12.0,
              observe_stride=32, k_obs=1)
    est = asymptotic_profile(log)
    initial_marginal = MAX.pdf(est.v)  # cosine average vanishes
    assert np.max(np.abs(est.f_inf - initial_marginal)) <= 100 * delta**2


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


def test_cr_envelope_weights_modes():
    log = run(MAX, STRONG, SINGLE, nx=32, nv=256, vmax=8.0, dt=1 / 32, t_end=1.0,
              observe_stride=8, k_obs=3)
    expected = 2 * np.abs(log.rho_modes[:, 1:]).sum(axis=1)
    np.testing.assert_allclose(log.cr_envelope(0), expected, rtol=1e-12)
    weighted = 2 * (np.abs(log.rho_modes[:, 1:]) * np.array([1.0, 4.0, 9.0])).sum(axis=1)
    np.testing.assert_allclose(log.cr_envelope(2), weighted, rtol=1e-12)


def test_asymptotic_profile_quadratic_memory_scaling():
    # the deposited profile change scales like the square of the perturbation
    diffs = []
    for delta in (1e-2, 5e-3, 2.5e-3):
        pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=delta),))
        log = run(MAX, STRONG, pert, nx=32, nv=512, vmax=8.0, dt=1 / 32, t_end=12.0,
                  observe_stride=32, k_obs=1)
        est = asymptotic_profile(log)
        diffs.append(np.max(np.abs(est.f_inf - MAX.pdf(est.v))))
    r1, r2 = diffs[0] / diffs[1], diffs[1] / diffs[2]
    assert 3.0 < r1 < 5.0
    assert 3.0 < r2 < 5.0
