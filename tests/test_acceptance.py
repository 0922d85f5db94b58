"""End-to-end verification gates.

Each test implements one quantitative gate at its stated tolerance and
prints a one-line verdict; run with ``pytest tests/test_acceptance.py -v -s``
to see the lines.  Session fixtures in conftest.py share the expensive runs.
"""

import numpy as np
from scipy.integrate import quad

from landau_lab.linear import fit_decay_rate, scan_stability_margin, smallness_criterion, monotone_criterion, solve_volterra
from landau_lab.models import builtin_interaction, zero_interaction
from landau_lab.norms import GlidingNormSpec, coincidence_check, gliding_norm
from landau_lab.sim import (
    PerturbationMode,
    PerturbationSpec,
    init_state,
    recurrence_time,
    run,
    strang_step,
)

FOUR_PI2 = 4.0 * np.pi**2


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# gate 1: free-transport oracle


def test_gate1_free_transport_tracks_profile_transform(profile):
    delta = 1e-3
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=2 * delta),))
    t_r = recurrence_time(1024, 8.0, 1)
    log = run(profile, zero_interaction(), pert, nx=64, nv=1024, vmax=8.0,
              dt=1 / 32, t_end=1640 / 32, observe_stride=8, k_obs=1)
    mask = log.times <= 0.8 * t_r
    exact = delta * np.exp(-2 * np.pi**2 * log.times[mask] ** 2)
    err = float(np.max(np.abs(log.rho_modes[mask, 1] - exact))) / delta
    report("free-transport oracle", err <= 1e-6,
           f"sup |rho_sim - delta ft(t)| / delta = {err:.3e} (tol 1e-6, t <= {0.8 * t_r:g})")


# ---------------------------------------------------------------------------
# gate 2: mode equation vs nonlinear solver in the linear regime


def test_gate2_simulation_matches_mode_equation(profile, unit_coulomb):
    delta = 1e-4
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=2 * delta),))
    t_end = min(20.0, 0.8 * recurrence_time(512, 8.0, 1))
    log = run(profile, unit_coulomb, pert, nx=64, nv=512, vmax=8.0,
              dt=1 / 64, t_end=20.0, observe_stride=4, k_obs=1)
    hist = solve_volterra(profile, unit_coulomb, lambda t: delta * profile.ft(t), 1, 20.0, 1 / 256)
    idx = np.round(log.times / (1 / 256)).astype(int)
    mask = log.times <= t_end
    diff = np.abs(log.rho_modes[mask, 1] - hist.values[idx[mask]])
    rel = float(np.max(diff) / np.max(np.abs(hist.values)))
    report("linear agreement", rel <= 1e-2,
           f"sup |rho_sim - rho_volterra| / max |rho_volterra| = {rel:.3e} (tol 1e-2)")


# ---------------------------------------------------------------------------
# gate 3: fitted decay rates vs resolvent-root prediction


def test_gate3_volterra_rate_matches_root_scan(volterra_benchmark):
    windows = {1: (0.5, 6.5), 2: (0.15, 1.2)}
    details = []
    ok = True
    for k, (hist, scan) in volterra_benchmark.items():
        fit = fit_decay_rate(hist, windows[k])
        rel = abs(fit.rate - scan.rate) / scan.rate
        ok &= rel <= 0.05
        details.append(f"k={k}: fit {fit.rate:.4f} vs predicted {scan.rate:.4f} ({rel:.2%})")
    report("damping-rate consistency", ok, "; ".join(details) + " (tol 5%)")


# ---------------------------------------------------------------------------
# gate 4: nonlinear decay matches the linear rate


def test_gate4_nonlinear_decay_three_decades(nl_benchmark, volterra_benchmark):
    hist = nl_benchmark.mode_history(1)
    t_r = nl_benchmark.recurrence[1]
    fit = fit_decay_rate(hist, (0.5, 4.5))
    peak = float(np.max(np.abs(hist.values[hist.times <= 0.8 * t_r])))
    envelope_end = float(np.exp(fit.intercept - fit.rate * 4.5))
    decades = np.log10(peak / envelope_end)
    linear_rate = volterra_benchmark[1][1].rate
    rel = abs(fit.rate - linear_rate) / linear_rate
    ok = decades >= 3.0 and fit.quality >= 0.98 and rel <= 0.10
    report("nonlinear decay", ok,
           f"envelope drop {decades:.2f} decades (>= 3), R^2 = {fit.quality:.4f} (>= 0.98), "
           f"rate {fit.rate:.4f} vs linear {linear_rate:.4f} ({rel:.2%}, tol 10%)")


# ---------------------------------------------------------------------------
# gate 5: weak convergence and filamentation


def test_gate5_weak_convergence_and_filamentation(nl_benchmark):
    log = nl_benchmark
    late = log.times >= 10.0
    ft10 = float(np.max(np.abs(log.ftilde[late, 0])))
    # samples inside the velocity-resolved window t < t_eta(1) ~ 30.7: mode 1's filaments
    # reach the v-Nyquist edge near t_R(1)/2 = 32, alias, and |grad_v f| turns over
    idx = [int(np.argmin(np.abs(log.times - t))) for t in (10.0, 20.0, 30.0)]
    grads = log.gradv_l2[idx]
    mass_drift = float(np.max(np.abs(log.mass / log.mass[0] - 1.0)))
    ok = ft10 < 1e-6 and grads[0] < grads[1] < grads[2] and mass_drift <= 1e-10
    report("weak convergence + filamentation", ok,
           f"max |ftilde(t>=10, k=1, 0)| = {ft10:.2e} (< 1e-6); "
           f"|grad_v f| at 10/20/30 = {grads[0]:.6f}/{grads[1]:.6f}/{grads[2]:.6f} strictly increasing; "
           f"mass drift {mass_drift:.2e} (<= 1e-10)")


# ---------------------------------------------------------------------------
# gate 6: echo timing law


def test_gate6_echo_timing(echo_sweep, echo_control):
    ok = True
    details = []
    for tau, rep in sorted(echo_sweep.items()):
        ok &= rep.match is not None and rep.rel_error <= 0.02
        details.append(f"tau={tau:g}: predicted {rep.prediction.t_echo:g}, "
                       f"detected {rep.match.time:.3f} ({rep.rel_error:.2%})")
    ok &= len(echo_control.peaks) == 0
    details.append(f"zero-amplitude control peaks: {len(echo_control.peaks)}")
    report("echo timing", ok, "; ".join(details) + " (tol 2%)")


# ---------------------------------------------------------------------------
# gate 7: stability certification and the instability threshold


def test_gate7_certification_and_jeans_threshold(profile, unit_coulomb):
    cond_a = monotone_criterion(profile, unit_coulomb)
    margin = smallness_criterion(profile, unit_coulomb)
    margin_err = abs(margin - 1.0 / FOUR_PI2)
    ok = cond_a and margin < 1.0 and margin_err <= 1e-6

    lam_strip, kappa = 0.5, 0.05

    def passes(s: float) -> bool:
        rep = scan_stability_margin(profile, builtin_interaction("newton", s), lam_strip, kappa, k_max=4)
        return rep.passed

    def bisect(lo: float, hi: float) -> float:
        assert passes(lo) and not passes(hi)
        while (hi - lo) / hi > 3e-3:
            mid = 0.5 * (lo + hi)
            if passes(mid):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    s_a = bisect(1.0, 40.0)
    s_b = bisect(10.0, 60.0)
    stable = abs(s_a - s_b) / s_a <= 0.01

    # real-axis oracle at the scan's outermost sampled strip point
    re_max = lam_strip * (1.0 - 1.0 / 8)
    integral = quad(lambda t: t * np.exp(-2 * np.pi**2 * t**2 + 2 * np.pi * re_max * t), 0, 12, limit=400)[0]
    s_oracle = (1.0 - kappa) / integral
    oracle_rel = abs(s_a - s_oracle) / s_oracle

    ok = ok and stable and oracle_rel <= 0.02
    report("stability certification", ok,
           f"monotone criterion {cond_a}; smallness margin {margin:.8f} "
           f"(= 1/4pi^2 within {margin_err:.1e}); attractive threshold {s_a:.3f} "
           f"(repeat {s_b:.3f}, oracle {s_oracle:.3f}, dev {oracle_rel:.2%})")


# ---------------------------------------------------------------------------
# gate 8: norm identities


def test_gate8_norm_identities(profile):
    rng = np.random.default_rng(12345)
    ok = True
    worst = 0.0
    for _ in range(5):
        coeffs = {0: complex(rng.normal(), 0.0)}
        for k in (1, 2, 3):
            # decay fast enough that the weighted tail stays summable
            c = complex(rng.normal(), rng.normal()) * rng.uniform(0.1, 1.0) * 30.0**-k
            coeffs[k], coeffs[-k] = c, np.conj(c)
        spec = GlidingNormSpec(lam=rng.uniform(0.05, 0.15), mu=rng.uniform(0.01, 0.1),
                               gamma=float(rng.integers(0, 2)), tau=rng.uniform(0.5, 2.0), n_max=30)
        res = coincidence_check(coeffs, spec)
        worst = max(worst, res.rel_diff)
        ok &= res.rel_diff <= 1e-12

    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=0.5),))
    cur = init_state(profile, pert, nx=32, nv=512, vmax=8.0)
    base = gliding_norm(cur, GlidingNormSpec(lam=0.4, mu=0.05, p=1, tau=0.0, n_max=24, k_max=3))
    glide_devs = []
    for t in (1.0, 2.0, 4.0):
        while cur.time < t - 1e-12:
            cur = strang_step(cur, zero_interaction(), 1 / 32)
        now = gliding_norm(cur, GlidingNormSpec(lam=0.4, mu=0.05, p=1, tau=t, n_max=24, k_max=3))
        dev = abs(now.value - base.value)
        glide_devs.append(dev)
        ok &= dev <= 2.0 * max(base.remainder, 1e-12 * base.value)
    report("norm identities", ok,
           f"x-only coincidence worst rel diff {worst:.2e} (<= 1e-12); gliding identity "
           f"deviations {['%.2e' % d for d in glide_devs]} within twice the truncation remainder")


# ---------------------------------------------------------------------------
# gate 9: numerics hygiene


def test_gate9_conservation_and_reversibility(profile, bench_interaction):
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=1e-3),))
    log = run(profile, bench_interaction, pert, nx=64, nv=256, vmax=8.0,
              dt=1 / 64, t_end=10000 / 64, observe_stride=500, k_obs=1)
    mass_drift = float(np.max(np.abs(log.mass / log.mass[0] - 1.0)))

    def energy_drift(dt):
        lg = run(profile, bench_interaction, pert, nx=32, nv=256, vmax=8.0,
                 dt=dt, t_end=4.0, observe_stride=4, k_obs=1)
        e = lg.ekin + lg.epot
        return float(np.max(np.abs(e - e[0])) / e[0])

    ratio = energy_drift(1 / 64) / energy_drift(1 / 128)

    st = init_state(profile, pert, nx=32, nv=256, vmax=8.0)
    cur = st
    for _ in range(320):
        cur = strang_step(cur, bench_interaction, 1 / 64)
    for _ in range(320):
        cur = strang_step(cur, bench_interaction, -1 / 64)
    rev = float(np.max(np.abs(cur.data - st.data)) / np.max(np.abs(st.data)))

    ok = mass_drift <= 1e-12 and 3.5 <= ratio <= 4.5 and rev <= 1e-10
    report("numerics hygiene", ok,
           f"mass drift {mass_drift:.2e} per 1e4 steps (<= 1e-12); energy-drift halving "
           f"ratio {ratio:.2f} (in [3.5, 4.5]); reversibility {rev:.2e} (<= 1e-10)")
