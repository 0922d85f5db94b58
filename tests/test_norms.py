"""Gliding, spatial and analytic norm diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e
from scipy.integrate import quad

from landau_lab.errors import DivergenceError
from landau_lab.models import maxwellian, zero_interaction
from landau_lab.norms import (
    AnalyticNormSpec,
    GlidingNormSpec,
    NormValue,
    _GLIDING_FLOOR,
    _tail_estimate,
    analytic_norm,
    coincidence_check,
    gliding_norm,
    spatial_norm,
)
from landau_lab.sim import (PerturbationMode, PerturbationSpec, PhaseSpaceField, ftilde_sample, init_state,
                            strang_step)

MAX = maxwellian()


def hermite_term_oracle(v: np.ndarray, dv: float, lam: float, n_max: int, p: float = 1) -> float:
    """Independent route to sum_n lam^n/n! ||d^n/dv^n gauss||_Lp on the grid.

    Derivatives come from the Hermite recurrence (symbolic, no transforms);
    the Lp quadrature is the same periodic grid rule the norm module uses,
    so only the differentiation path differs.
    """
    g = np.exp(-(v**2) / 2) / np.sqrt(2 * np.pi)
    total = 0.0
    log_fact = 0.0
    for n in range(n_max + 1):
        coef = np.zeros(n + 1)
        coef[n] = 1.0
        dn = hermite_e.hermeval(v, coef) * g  # |d^n g| in magnitude
        if n > 0:
            log_fact += np.log(n)
        w = np.exp(n * np.log(lam) - log_fact) if lam > 0 else (1.0 if n == 0 else 0.0)
        if p == 1:
            total += w * np.sum(np.abs(dn)) * dv
        elif p == 2:
            total += w * np.sqrt(np.sum(dn**2) * dv)
        else:
            total += w * np.max(np.abs(dn))
    return total


def per_term_gliding_norm(field: PhaseSpaceField, spec: GlidingNormSpec, paired: bool = True) -> NormValue:
    """The gliding norm as one inverse transform and one Lp reduction per (k, n).

    With ``paired`` this is `gliding_norm`'s arithmetic term by term, modes
    k = 0 .. k_max with each k > 0 weighted twice: the reference for its
    batched ladder, which must agree bit for bit.  Without it every mode
    -k_max .. k_max is evaluated, mode -k from the conjugated and
    eta-reversed spectrum of mode k.
    """
    dv = field.dv
    rows = field.spectrum / field.nx
    eta = np.fft.fftfreq(field.nv, d=dv)
    spectra = np.fft.fft(rows[: spec.k_max + 1], axis=1)
    clip = _GLIDING_FLOOR * float(np.max(np.abs(spectra)))
    spectra = np.where(np.abs(spectra) < clip, 0.0, spectra)
    terms = np.zeros(spec.n_max + 1)
    for k in range(0 if paired else -spec.k_max, spec.k_max + 1):
        spectrum = spectra[abs(k)]
        if k < 0:
            spectrum = np.conj(spectrum[np.r_[0, len(spectrum) - 1:0:-1]])
        if not np.any(spectrum):
            continue
        mult = 2j * np.pi * (eta + spec.tau * k)
        pair = 2.0 if paired and k else 1.0
        weight_k = pair * np.exp(2.0 * np.pi * spec.mu * abs(k)) * (1.0 + abs(k)) ** spec.gamma
        cur = spectrum.astype(complex)
        log_fact = 0.0
        for n in range(spec.n_max + 1):
            if n > 0:
                cur = cur * mult
                log_fact += np.log(n)
            vals = np.fft.ifft(cur)
            if spec.lam > 0:
                coef = np.exp(n * np.log(spec.lam) - log_fact)
            else:
                coef = 1.0 if n == 0 else 0.0
            if spec.p == 1:
                lp = float(np.sum(np.abs(vals)) * dv)
            elif spec.p == 2:
                lp = float(np.sqrt(np.sum(np.abs(vals) ** 2) * dv))
            else:
                lp = float(np.max(np.abs(vals)))
            terms[n] += weight_k * coef * lp
    return NormValue(value=float(np.sum(terms)), remainder=_tail_estimate(terms))


def two_mode_transported_state(t=2.5, nv=512):
    """Modes 1 and 2 with nonzero phases, freely transported to time t."""
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=0.3, phase=0.7),
                                   PerturbationMode(k=2, amplitude=0.1, phase=1.3)))
    cur = init_state(MAX, pert, nx=32, nv=nv, vmax=8.0)
    while cur.time < t - 1e-12:
        cur = strang_step(cur, zero_interaction(), 1 / 16)
    return cur


def equilibrium_state(nx=32, nv=512):
    return init_state(MAX, PerturbationSpec(), nx=nx, nv=nv, vmax=8.0)


# ---------------------------------------------------------------------------
# gliding norm


@pytest.mark.parametrize("p", [1, 2, np.inf])
def test_gliding_norm_homogeneous_matches_derivative_series(p):
    st_eq = equilibrium_state()
    spec = GlidingNormSpec(lam=0.5, mu=0.0, p=p, tau=0.0, n_max=16, k_max=2)
    got = gliding_norm(st_eq, spec).value
    assert got == pytest.approx(hermite_term_oracle(st_eq.v, st_eq.dv, 0.5, 16, p), rel=1e-9)


def test_gliding_norm_homogeneous_ignores_spatial_indices():
    st_eq = equilibrium_state()
    a = gliding_norm(st_eq, GlidingNormSpec(lam=0.5, mu=0.0, gamma=0.0, tau=0.0, k_max=2))
    b = gliding_norm(st_eq, GlidingNormSpec(lam=0.5, mu=0.8, gamma=2.0, tau=5.0, k_max=2))
    assert a.value == b.value


def test_gliding_norm_single_cosine_mode():
    # f = cos(2 pi x) g(v): two modes of amplitude 1/2, weight e^{2 pi mu} each
    nx, nv = 32, 512
    x = np.arange(nx) / nx
    v = -8.0 + np.arange(nv) * (16.0 / nv)
    field = PhaseSpaceField(nx=nx, nv=nv, vmax=8.0, data=np.outer(np.cos(2 * np.pi * x), MAX.pdf(v)))
    mu = 0.3
    got = gliding_norm(field, GlidingNormSpec(lam=0.4, mu=mu, p=1, tau=0.0, n_max=16, k_max=2))
    oracle = np.exp(2 * np.pi * mu) * hermite_term_oracle(v, 16.0 / nv, 0.4, 16, 1)
    assert got.value == pytest.approx(oracle, rel=1e-9)


def test_gliding_identity_under_free_transport():
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=0.5),))
    st0 = init_state(MAX, pert, nx=32, nv=512, vmax=8.0)
    base = gliding_norm(st0, GlidingNormSpec(lam=0.4, mu=0.05, p=1, tau=0.0, n_max=24, k_max=3))
    cur = st0
    for t in (1.0, 2.0, 4.0):
        while cur.time < t - 1e-12:
            cur = strang_step(cur, zero_interaction(), 1 / 32)
        now = gliding_norm(cur, GlidingNormSpec(lam=0.4, mu=0.05, p=1, tau=t, n_max=24, k_max=3))
        assert abs(now.value - base.value) <= 2.0 * max(base.remainder, 1e-12 * base.value)


def test_gliding_norm_monotone_in_indices():
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=0.3),))
    st0 = init_state(MAX, pert, nx=32, nv=512, vmax=8.0)
    base = gliding_norm(st0, GlidingNormSpec(lam=0.3, mu=0.1, gamma=0.0, k_max=3)).value
    assert gliding_norm(st0, GlidingNormSpec(lam=0.4, mu=0.1, gamma=0.0, k_max=3)).value >= base
    assert gliding_norm(st0, GlidingNormSpec(lam=0.3, mu=0.2, gamma=0.0, k_max=3)).value >= base
    assert gliding_norm(st0, GlidingNormSpec(lam=0.3, mu=0.1, gamma=1.0, k_max=3)).value >= base


def test_gliding_norm_triangle_inequality():
    pert1 = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=0.3),))
    pert2 = PerturbationSpec(modes=(PerturbationMode(k=2, amplitude=0.2, phase=0.5),))
    f = init_state(MAX, pert1, nx=32, nv=512, vmax=8.0)
    g = init_state(MAX, pert2, nx=32, nv=512, vmax=8.0)
    fg = PhaseSpaceField(nx=32, nv=512, vmax=8.0, data=f.data + g.data)
    spec = GlidingNormSpec(lam=0.3, mu=0.1, k_max=3)
    nf, ng, nfg = gliding_norm(f, spec), gliding_norm(g, spec), gliding_norm(fg, spec)
    slack = nf.remainder + ng.remainder + nfg.remainder + 1e-12 * nfg.value
    assert nfg.value <= nf.value + ng.value + slack


def test_gliding_norm_translation_invariant_in_x():
    specs = GlidingNormSpec(lam=0.3, mu=0.1, gamma=0.5, p=1, tau=1.0, k_max=3)
    vals = []
    for phase in (0.0, 0.7):
        pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=0.4, phase=phase),))
        cur = init_state(MAX, pert, nx=32, nv=512, vmax=8.0)
        for _ in range(32):
            cur = strang_step(cur, zero_interaction(), 1 / 32)
        vals.append(gliding_norm(cur, specs).value)
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)


def test_gliding_norm_negative_mode_spectrum_mapping():
    # brute-force reference: full x-FFT row for -k, transformed directly
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=0.4, phase=0.9),))
    cur = init_state(MAX, pert, nx=32, nv=256, vmax=8.0)
    for _ in range(16):
        cur = strang_step(cur, zero_interaction(), 1 / 16)
    full = np.fft.fft(cur.data, axis=0) / cur.nx
    spec_neg_direct = np.fft.fft(full[cur.nx - 1])
    rows = np.fft.rfft(cur.data, axis=0) / cur.nx
    spec_pos = np.fft.fft(rows[1])
    mapped = np.conj(spec_pos[np.r_[0, len(spec_pos) - 1:0:-1]])
    np.testing.assert_allclose(mapped, spec_neg_direct, rtol=0, atol=1e-12 * np.abs(spec_pos).max())


def test_gliding_norm_unconverged_truncation_flagged():
    # without the gliding shift a well-transported field needs n ~ 2 pi lam k t
    # terms; at n_max = 24 they are still growing and the evaluation refuses
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=0.5),))
    cur = init_state(MAX, pert, nx=32, nv=512, vmax=8.0)
    for _ in range(int(4.0 * 32)):
        cur = strang_step(cur, zero_interaction(), 1 / 32)
    with pytest.raises(DivergenceError):
        gliding_norm(cur, GlidingNormSpec(lam=1.0, mu=0.05, p=1, tau=0.0, n_max=24, k_max=2))


def test_gliding_norm_unresolved_derivative_flagged():
    # park genuine content next to the velocity-frequency edge: nv = 128 at
    # vmax = 8 resolves |eta| <= 4; transport to t = 3.6 puts the mode-1 bump there
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=0.5),))
    cur = init_state(MAX, pert, nx=32, nv=128, vmax=8.0)
    for _ in range(int(3.6 * 20)):
        cur = strang_step(cur, zero_interaction(), 1 / 20)
    # the check runs on each mode before its transform, modes in order 0 .. k_max
    with pytest.raises(ValueError, match="not resolved in v for mode k = 1"):
        gliding_norm(cur, GlidingNormSpec(lam=0.2, mu=0.0, p=1, tau=3.6, n_max=8, k_max=1))


@pytest.mark.parametrize("p", [1, 2, np.inf])
@pytest.mark.parametrize("tau", [0.0, 2.5])
@pytest.mark.parametrize("n_max", [0, 24])
def test_gliding_norm_bit_identical_to_per_term_loop(p, tau, n_max):
    # k_max = 4 lies above the populated modes 1 and 2, so zero spectra are skipped
    cur = two_mode_transported_state()
    spec = GlidingNormSpec(lam=0.3, mu=0.1, gamma=0.5, p=p, tau=tau, n_max=n_max, k_max=4)
    got, ref = gliding_norm(cur, spec), per_term_gliding_norm(cur, spec)
    assert got.value == ref.value
    assert got.remainder == ref.remainder


@pytest.mark.parametrize("p", [1, 2, np.inf])
@pytest.mark.parametrize("tau", [0.0, 2.5])
@pytest.mark.parametrize("n_max", [0, 24])
def test_gliding_norm_pairs_agree_with_the_plus_minus_k_loop(p, tau, n_max):
    # each k > 0 counted twice stands for modes k and -k, whose ladder rows
    # are complex conjugates: equal sizes up to roundoff
    cur = two_mode_transported_state()
    spec = GlidingNormSpec(lam=0.3, mu=0.1, gamma=0.5, p=p, tau=tau, n_max=n_max, k_max=4)
    got, ref = gliding_norm(cur, spec), per_term_gliding_norm(cur, spec, paired=False)
    assert got.value == pytest.approx(ref.value, rel=1e-14, abs=0)
    assert got.remainder == pytest.approx(ref.remainder, rel=1e-14, abs=0)


def test_norms_of_a_spectrum_born_field_take_no_forward_x_transform(monkeypatch):
    # a strang_step result carries its x-spectrum, which the norms and
    # ftilde_sample read; only the |f| integral inverts it
    cur = two_mode_transported_state()
    rfft, forward = np.fft.rfft, []

    def counting_rfft(a, *args, **kwargs):
        if np.ndim(a) == 2 and kwargs.get("axis", -1) == 0:
            forward.append(np.shape(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    gliding_norm(cur, GlidingNormSpec(lam=0.3, mu=0.1, tau=2.5, k_max=4))
    analytic_norm(cur, AnalyticNormSpec(lam=0.3, mu=0.1, beta=0.1))
    ftilde_sample(cur, 1, [0.0, 0.5])
    assert forward == []


@pytest.mark.parametrize("p", [1, 2, np.inf])
def test_gliding_norm_lam_zero_is_finite_and_silent(p):
    # lam = 0 keeps only n = 0: the weighted Lp sizes of the mode profiles
    cur = two_mode_transported_state()
    spec = GlidingNormSpec(lam=0.0, mu=0.1, gamma=0.5, p=p, tau=2.5, k_max=4)
    with np.errstate(all="raise"):
        got = gliding_norm(cur, spec)
    rows = np.fft.rfft(cur.data, axis=0) / cur.nx
    expected = 0.0
    for k in range(-spec.k_max, spec.k_max + 1):
        row = rows[abs(k)]
        if p == 1:
            size = np.sum(np.abs(row)) * cur.dv
        elif p == 2:
            size = np.sqrt(np.sum(np.abs(row) ** 2) * cur.dv)
        else:
            size = np.max(np.abs(row))
        expected += np.exp(2 * np.pi * spec.mu * abs(k)) * (1.0 + abs(k)) ** spec.gamma * size
    assert np.isfinite(got.value)
    assert got.value == pytest.approx(expected, rel=1e-12)
    assert got.remainder == 0.0


# ---------------------------------------------------------------------------
# spatial norm


def test_spatial_norm_constant():
    assert spatial_norm({0: 1.0}, weight=0.7) == 1.0


def test_spatial_norm_cosine_weights():
    w = 0.25
    coeffs = {1: 0.5, -1: 0.5}
    assert spatial_norm(coeffs, weight=w) == pytest.approx(np.exp(2 * np.pi * w), rel=1e-14)
    assert spatial_norm(coeffs, weight=w, gamma=1.0) == pytest.approx(2 * np.exp(2 * np.pi * w), rel=1e-14)


def test_spatial_norm_divergence_flag():
    coeffs = {k: 1.0 for k in range(-6, 7)}  # flat coefficients, growing weights
    with pytest.raises(DivergenceError):
        spatial_norm(coeffs, weight=0.5)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=0.1, max_value=10.0))
def test_spatial_norm_homogeneous_scaling(c):
    coeffs = {0: 0.2, 1: 0.5, -1: 0.5, 2: 0.1, -2: 0.1}
    scaled = {k: c * z for k, z in coeffs.items()}
    assert spatial_norm(scaled, weight=0.2) == pytest.approx(c * spatial_norm(coeffs, weight=0.2), rel=1e-12)


# ---------------------------------------------------------------------------
# analytic norm


def test_analytic_norm_maxwellian_sup_and_integral():
    st_eq = equilibrium_state()
    lam = np.pi / 4  # maximizer eta = lam / (2 pi) sits exactly on the grid comb
    beta = 0.1
    val = analytic_norm(st_eq, AnalyticNormSpec(lam=lam, mu=0.3, beta=beta))
    integral = quad(lambda v: MAX.pdf(v) * np.exp(2 * np.pi * beta * abs(v)), -40, 40, limit=400)[0]
    assert val == pytest.approx(np.exp(lam**2 / 2) + integral, rel=2e-5)


def test_norm_specs_share_one_index_rule():
    # lam, mu >= 0 for both families; negative indices and beta <= 0 stay errors
    for lam, mu in ((0.0, 0.3), (0.3, 0.0), (0.0, 0.0)):
        GlidingNormSpec(lam=lam, mu=mu)
        AnalyticNormSpec(lam=lam, mu=mu, beta=0.1)
    for lam, mu in ((-0.1, 0.3), (0.3, -0.1)):
        with pytest.raises(ValueError, match=">= 0"):
            GlidingNormSpec(lam=lam, mu=mu)
        with pytest.raises(ValueError, match=">= 0"):
            AnalyticNormSpec(lam=lam, mu=mu, beta=0.1)
    with pytest.raises(ValueError, match="beta"):
        AnalyticNormSpec(lam=0.3, mu=0.3, beta=0.0)


def test_analytic_norm_at_zero_indices_is_the_mass_plus_the_integral():
    # unit weights leave the sup at f~(0, 0), the mass of the nonnegative equilibrium
    st_eq = equilibrium_state()
    beta = 0.1
    mass = st_eq.data.sum() * st_eq.dv / st_eq.nx
    integral = np.sum(st_eq.data * np.exp(2 * np.pi * beta * np.abs(st_eq.v))) * st_eq.dv / st_eq.nx
    assert analytic_norm(st_eq, AnalyticNormSpec(lam=0.0, mu=0.0, beta=beta)) == pytest.approx(mass + integral, rel=1e-14)


def test_analytic_norm_zero_field():
    st0 = PhaseSpaceField(nx=32, nv=256, vmax=8.0, data=np.zeros((32, 256)))
    assert analytic_norm(st0, AnalyticNormSpec(lam=0.5, mu=0.5, beta=0.1)) == 0.0


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=1e-3, max_value=1e3))
def test_analytic_norm_absolute_homogeneity(c):
    st_eq = equilibrium_state(nx=16, nv=256)
    scaled = PhaseSpaceField(nx=16, nv=256, vmax=8.0, data=c * st_eq.data)
    spec = AnalyticNormSpec(lam=0.5, mu=0.2, beta=0.05)
    assert analytic_norm(scaled, spec) == pytest.approx(c * analytic_norm(st_eq, spec), rel=1e-12)


def test_analytic_norm_overflow_guard():
    st_eq = equilibrium_state(nx=16, nv=256)
    from landau_lab.errors import NumericError

    with pytest.raises(NumericError):
        analytic_norm(st_eq, AnalyticNormSpec(lam=0.5, mu=0.5, beta=20.0))


# ---------------------------------------------------------------------------
# coincidence of the two norms on x-only input


def test_coincidence_single_cosine():
    res = coincidence_check({1: 0.5, -1: 0.5}, GlidingNormSpec(lam=0.1, mu=0.05, tau=2.0))
    assert res.z == pytest.approx(np.exp(2 * np.pi * 0.25), rel=1e-12)
    assert res.f == pytest.approx(np.exp(2 * np.pi * 0.25), rel=1e-12)
    assert res.rel_diff <= 1e-12


def test_coincidence_constant():
    res = coincidence_check({0: 3.7}, GlidingNormSpec(lam=0.3, mu=0.4, tau=5.0))
    assert res.z == res.f == pytest.approx(3.7)
    assert res.rel_diff == 0.0


def test_coincidence_tau_zero_reduces_to_spatial():
    coeffs = {0: 0.3, 1: 0.4, -1: 0.4, 3: 0.05, -3: 0.05}
    res = coincidence_check(coeffs, GlidingNormSpec(lam=0.7, mu=0.11, gamma=1.5, tau=0.0))
    assert res.f == pytest.approx(spatial_norm(coeffs, weight=0.11, gamma=1.5), rel=1e-14)
    assert res.rel_diff <= 1e-14



def test_a_field_computes_its_double_transform_once_for_both_norms(monkeypatch):
    pert = PerturbationSpec(modes=(PerturbationMode(k=1, amplitude=0.3), PerturbationMode(k=2, amplitude=0.1)))
    field = init_state(MAX, pert, nx=16, nv=256, vmax=8.0)
    fft, shapes = np.fft.fft, []

    def counting_fft(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    gliding_norm(field, GlidingNormSpec(lam=0.2, mu=0.05, n_max=8, k_max=2))
    analytic_norm(field, AnalyticNormSpec(lam=0.2, mu=0.05, beta=0.1))
    assert shapes == [(9, 256)]
    assert not field.double_transform.flags.writeable
    assert np.array_equal(field.double_transform, fft(field.spectrum / field.nx, axis=1))
