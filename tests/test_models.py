"""Profiles, interactions, and hypothesis-check oracles."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from landau_lab.models import (
    Interaction,
    bi_maxwellian,
    builtin_interaction,
    builtin_profile,
    bump_on_tail,
    maxwellian,
    verify_analyticity,
    verify_decay,
    zero_interaction,
)

FOUR_PI2 = 4.0 * np.pi**2


def ft_by_quadrature(profile, eta):
    """Independent oracle: brute-force transform integral."""
    re = quad(lambda v: profile.pdf(v) * np.cos(2 * np.pi * eta * v), -30, 30, limit=200)[0]
    im = quad(lambda v: -profile.pdf(v) * np.sin(2 * np.pi * eta * v), -30, 30, limit=200)[0]
    return re + 1j * im


@pytest.mark.parametrize(
    "profile",
    [maxwellian(), maxwellian(theta=0.5), bi_maxwellian(drift=2.0), bump_on_tail(weight=0.1, drift=3.0)],
    ids=["maxwellian", "cold_maxwellian", "bi_maxwellian", "bump_on_tail"],
)
def test_mass_normalized(profile):
    mass = quad(lambda v: float(profile.pdf(v)), -40, 40, limit=400)[0]
    assert abs(mass - 1.0) < 1e-10


@pytest.mark.parametrize(
    "profile",
    [maxwellian(), bi_maxwellian(drift=1.5, weight=0.3), bump_on_tail()],
    ids=["maxwellian", "bi_maxwellian", "bump_on_tail"],
)
def test_closed_form_ft_matches_quadrature(profile):
    for eta in np.linspace(-3, 3, 100):
        assert abs(profile.ft(eta) - ft_by_quadrature(profile, eta)) < 1e-8


def test_maxwellian_ft_gaussian():
    p = maxwellian()
    eta = np.linspace(-2, 2, 41)
    np.testing.assert_allclose(p.ft(eta), np.exp(-2 * np.pi**2 * eta**2), rtol=1e-13, atol=1e-300)
    assert p.ft(0.0) == pytest.approx(1.0, abs=1e-14)


def test_ft_conjugate_symmetry():
    p = bump_on_tail(weight=0.2, drift=2.5)
    eta = np.linspace(0.0, 3.0, 57)
    np.testing.assert_allclose(p.ft(-eta), np.conj(p.ft(eta)), rtol=0, atol=1e-15)


def test_bump_weight_zero_is_maxwellian():
    b = bump_on_tail(weight=0.0)
    m = maxwellian()
    v = np.linspace(-6, 6, 201)
    np.testing.assert_array_equal(b.pdf(v), m.pdf(v))
    np.testing.assert_array_equal(b.ft(v / 4.0), m.ft(v / 4.0))


def test_builtin_profile_dispatch():
    p = builtin_profile("maxwellian", [1.0])
    assert p.pdf(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-14)
    with pytest.raises(ValueError, match="unknown profile"):
        builtin_profile("lorentzian")
    with pytest.raises(ValueError, match="positive"):
        builtin_profile("maxwellian", [-1.0])
    with pytest.raises(ValueError, match=r"'maxwellian' takes at most 1 parameter\(s\) \(theta\), got 2"):
        builtin_profile("maxwellian", [1.0, 0.5])
    with pytest.raises(ValueError, match="weight"):
        bump_on_tail(weight=1.5)


def test_a_profile_is_its_mixture():
    # the callables are closed forms of the components: they take no part in
    # equality or hashing, so memos keyed by the profile see through a wrapper
    m = maxwellian()
    wrapped = dataclasses.replace(m, ft=lambda eta: m.ft(eta), pdf=lambda v: m.pdf(v))
    assert wrapped == m and hash(wrapped) == hash(m)
    assert dataclasses.replace(m, lam=0.5) != m
    assert dataclasses.replace(m, c0=5.0) != m
    assert bump_on_tail(weight=0.0) != m  # the same mixture under another name


def test_analyticity_reads_no_transform_sample():
    # the bounds come from the components alone: with every callable swapped
    # for one that raises, a profile no other test checks (so no memo could
    # serve it) reports the same
    m = maxwellian(0.37)

    def refuse(_):
        raise AssertionError("verify_analyticity sampled a callable")

    swapped = dataclasses.replace(m, ft=refuse, pdf=refuse, dpdf=refuse)
    assert verify_analyticity(swapped) == verify_analyticity(m)


# ---------------------------------------------------------------------------
# interactions


def test_coulomb_fourier_value():
    w = builtin_interaction("coulomb", strength=1.0)
    assert float(w.what(1)) == pytest.approx(1.0 / FOUR_PI2, rel=1e-14)
    assert float(w.what(1)) == pytest.approx(0.025330, abs=1e-6)
    assert float(w.what(0)) == 0.0


def test_newton_sign_and_scaling():
    w = builtin_interaction("newton", strength=1.0)
    assert float(w.what(2)) == pytest.approx(-1.0 / (16 * np.pi**2), rel=1e-14)


def test_screened_limit_is_coulomb():
    c = builtin_interaction("coulomb", strength=1.0)
    s = builtin_interaction("screened", strength=1.0, screening=1e-8)
    assert float(s.what(1)) == pytest.approx(float(c.what(1)), rel=1e-12)


def test_what_even_symmetry():
    for kind in ("coulomb", "newton"):
        w = builtin_interaction(kind, strength=2.0)
        k = np.arange(1, 9)
        np.testing.assert_array_equal(w.what(-k), w.what(k))


def test_interaction_param_validation():
    with pytest.raises(ValueError, match="strength"):
        builtin_interaction("coulomb", strength=0.0)
    with pytest.raises(ValueError, match="screening"):
        builtin_interaction("screened", strength=1.0)
    with pytest.raises(ValueError, match="unknown interaction"):
        builtin_interaction("yukawa")


# ---------------------------------------------------------------------------
# analyticity check


def test_analyticity_maxwellian_explicit_constants():
    # oracle: max_eta exp(-2 pi^2 eta^2 + 2 pi eta) = exp(1/2) at eta = 1/(2 pi)
    p = dataclasses.replace(maxwellian(), lam=1.0, c0=2.0)
    rep = verify_analyticity(p)
    assert rep.passed
    assert rep.worst_ratio == pytest.approx(np.exp(0.5) / 2.0, rel=3e-4)


def test_analyticity_fails_below_central_value():
    # |ft(0)| = 1, so any c0 < 1 fails (the eta = 0 sample alone gives ratio 1/c0)
    rep = verify_analyticity(dataclasses.replace(maxwellian(), c0=0.5))
    assert not rep.passed
    assert rep.worst_ratio >= 2.0


def test_analyticity_zero_width():
    rep = verify_analyticity(dataclasses.replace(maxwellian(), lam=0.0, c0=2.0))
    assert rep.worst_ratio == pytest.approx(0.5, rel=1e-12)


def test_analyticity_default_constants_pass():
    for p in (maxwellian(), maxwellian(theta=0.25), bi_maxwellian(), bump_on_tail()):
        rep = verify_analyticity(p)
        assert rep.passed, p.name
        # the derivative series is reported against the same constant
        assert rep.series_ratio <= 1.0, p.name


@functools.lru_cache(maxsize=1)
def hermite_l1_norms(n_max=40):
    """Oracle: m_n = E|He_n(Z)| for standard normal Z, n = 0..n_max, by a dense
    trapezoid, with He_{n+1} = v He_n - n He_{n-1}, He_0 = 1."""
    v = np.linspace(-14.0, 14.0, 28001)
    weight = np.exp(-(v**2) / 2.0) / np.sqrt(2.0 * np.pi)
    out = np.empty(n_max + 1)
    prev, cur = np.zeros_like(v), np.ones_like(v)
    for n in range(n_max + 1):
        out[n] = np.trapezoid(np.abs(cur) * weight, v)
        prev, cur = cur, v * cur - n * prev
    return out


def trapezoid_series(profile):
    """Oracle: sum_n lam^n/n! ||f0^(n)||_L1 per component, n <= 40, from the table."""
    m = hermite_l1_norms()
    n = np.arange(len(m))
    return sum(w * float(np.sum((profile.lam / np.sqrt(theta)) ** n / np.array([math.factorial(j) for j in n]) * m))
               for w, _, theta in profile.components)


def test_hermite_l1_norms_low_orders():
    # closed forms: E|He_0| = 1, E|He_1| = 2 phi(0), E|He_2| = 4 phi(1)
    m = hermite_l1_norms()
    phi = lambda v: np.exp(-v * v / 2) / np.sqrt(2 * np.pi)
    # kinks of |He_n| limit the trapezoid to ~1e-6 relative, plenty here
    assert m[0] == pytest.approx(1.0, rel=1e-5)
    assert m[1] == pytest.approx(2 * phi(0.0), rel=1e-5)
    assert m[2] == pytest.approx(4 * phi(1.0), rel=1e-5)
    assert m[3] == pytest.approx(8 * phi(np.sqrt(3)) + 2 * phi(0.0), rel=1e-5)


@pytest.mark.parametrize(
    "profile",
    [maxwellian(), maxwellian(theta=0.25), bi_maxwellian(), bi_maxwellian(2.0, 1.0, 0.5, 0.3), bump_on_tail()],
    ids=["maxwellian", "cold_maxwellian", "bi_maxwellian", "asymmetric_bi_maxwellian", "bump_on_tail"],
)
def test_analyticity_bounds_hold_against_sampled_oracles(profile):
    rep = verify_analyticity(profile)
    # the sup on 200,001 samples of |eta| <= 4 lies under the bound, and on it
    # for one component, whose peak |eta| = lam / (2 pi theta) lies inside
    eta = np.linspace(-4.0, 4.0, 200001)
    sampled = float(np.max(np.abs(profile.ft(eta)) * np.exp(2 * np.pi * profile.lam * np.abs(eta)))) / profile.c0
    assert sampled <= rep.worst_ratio
    if len(profile.components) == 1:
        assert sampled == pytest.approx(rep.worst_ratio, rel=1e-7)
    # the series from the trapezoid table lies under its bound, which is
    # w sum_n x^n / sqrt(n!) per component, x = lam / sqrt(theta)
    assert trapezoid_series(profile) <= rep.series_ratio * profile.c0
    lgamma_sum = sum(w * sum(math.exp(n * math.log(profile.lam / math.sqrt(theta)) - 0.5 * math.lgamma(n + 1))
                             for n in range(200))
                     for w, _, theta in profile.components)
    assert rep.series_ratio * profile.c0 == pytest.approx(lgamma_sum, rel=1e-12)


def test_analyticity_sup_beyond_the_old_sample_range():
    # the peak of exp(-2 pi^2 theta eta^2 + 2 pi lam |eta|) lies at
    # |eta| = lam / (2 pi theta) = 15.9 for theta = 0.01, lam = 1, with value
    # exp(50): a sample on |eta| <= 4 sees 0.349 of c0 = 1e10 and passes
    rep = verify_analyticity(dataclasses.replace(maxwellian(0.01), lam=1.0, c0=1e10))
    assert not rep.passed
    assert rep.worst_ratio == pytest.approx(np.exp(50.0) / 1e10, rel=1e-12)
    assert np.isfinite(rep.series_ratio)


def test_analyticity_overflow_reports_inf():
    # x = 60: exp(x^2 / 2) overflows a double; the report says inf and fails
    rep = verify_analyticity(dataclasses.replace(maxwellian(), lam=60.0))
    assert rep.worst_ratio == rep.series_ratio == np.inf
    assert not rep.passed
    # a massless component adds nothing, however cold: x = 100 here
    rep = verify_analyticity(dataclasses.replace(bi_maxwellian(2.0, 1e-4, 1.0, 0.0), lam=1.0, c0=2.0))
    assert rep == verify_analyticity(dataclasses.replace(maxwellian(), lam=1.0, c0=2.0))


def test_derivative_series_value_maxwellian():
    rep = verify_analyticity(maxwellian())
    # the first four terms have closed forms: 1, 2*phi(0), 2*phi(1), (8*phi(sqrt3)+2*phi(0))/6
    phi = lambda v: np.exp(-v * v / 2) / np.sqrt(2 * np.pi)
    lower = 1.0 + 2 * phi(0.0) + 2 * phi(1.0) + (8 * phi(np.sqrt(3)) + 2 * phi(0.0)) / 6
    series = rep.series_ratio * maxwellian().c0
    assert lower < trapezoid_series(maxwellian()) <= series


# ---------------------------------------------------------------------------
# decay check


def test_decay_coulomb_equality():
    # the Coulomb bound is attained: it passes, and one part in 1e9 less cw fails
    base = builtin_interaction("coulomb", strength=1.0)
    assert verify_decay(base).passed
    assert not verify_decay(dataclasses.replace(base, cw=base.cw * (1.0 - 1e-9))).passed


def test_decay_wrong_gamma_fails():
    base = builtin_interaction("coulomb", strength=1.0)
    # direct-comparison oracle: 1/(4 pi^2 k^2) > cw/k^2.5 for every k > 1
    tampered = Interaction(kind="custom", what=base.what, gamma=1.5, cw=1.0 / FOUR_PI2)
    rep = verify_decay(tampered)
    assert not rep.passed
    assert rep.worst_k == 32  # ratio k^0.5 grows with k, up to the last mode checked


def test_decay_screened_passes():
    rep = verify_decay(builtin_interaction("screened", strength=1.0, screening=0.5))
    assert rep.passed


def test_decay_zero_interaction():
    # 0 <= cw = 0 passes; a nonzero what(k) under cw = 0 fails
    rep = verify_decay(zero_interaction())
    assert rep.passed
    assert rep.worst_k == 1
    assert not verify_decay(dataclasses.replace(zero_interaction(), what=builtin_interaction("coulomb").what)).passed
