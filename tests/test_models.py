"""Profiles, interactions, and hypothesis-check oracles."""

import dataclasses

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
    _SERIES_N_MAX,
    _derivative_series,
    _hermite_l1_norms,
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


def test_analyticity_report_is_reused_for_an_equal_profile():
    calls = []
    m = maxwellian(0.7)

    def ft(eta):
        calls.append(1)
        return m.ft(eta)

    first = verify_analyticity(m)
    assert verify_analyticity(dataclasses.replace(m, ft=ft)) is first and calls == []


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
        _, tail = _derivative_series(p.components, p.lam, _SERIES_N_MAX)
        assert tail < 1e-12


def test_hermite_l1_norms_low_orders():
    # closed forms: E|He_0| = 1, E|He_1| = 2 phi(0), E|He_2| = 4 phi(1)
    m = _hermite_l1_norms(4)
    phi = lambda v: np.exp(-v * v / 2) / np.sqrt(2 * np.pi)
    # kinks of |He_n| limit the trapezoid to ~1e-6 relative, plenty here
    assert m[0] == pytest.approx(1.0, rel=1e-5)
    assert m[1] == pytest.approx(2 * phi(0.0), rel=1e-5)
    assert m[2] == pytest.approx(4 * phi(1.0), rel=1e-5)
    assert m[3] == pytest.approx(8 * phi(np.sqrt(3)) + 2 * phi(0.0), rel=1e-5)


def test_hermite_l1_norms_match_the_hermeval_table():
    # reference: each He_n evaluated from its coefficient vector on the same grid
    from numpy.polynomial import hermite_e

    v = np.linspace(-14.0, 14.0, 28001)
    weight = np.exp(-(v**2) / 2.0) / np.sqrt(2.0 * np.pi)
    ref = [np.trapezoid(np.abs(hermite_e.hermeval(v, np.eye(n + 1)[n])) * weight, v)
           for n in range(_SERIES_N_MAX + 1)]
    np.testing.assert_allclose(_hermite_l1_norms(_SERIES_N_MAX), ref, rtol=1e-14, atol=0)


def test_derivative_series_value_maxwellian():
    rep = verify_analyticity(maxwellian())
    # the first four terms have closed forms: 1, 2*phi(0), 2*phi(1), (8*phi(sqrt3)+2*phi(0))/6
    phi = lambda v: np.exp(-v * v / 2) / np.sqrt(2 * np.pi)
    lower = 1.0 + 2 * phi(0.0) + 2 * phi(1.0) + (8 * phi(np.sqrt(3)) + 2 * phi(0.0)) / 6
    series = rep.series_ratio * maxwellian().c0
    assert series > lower - 1e-6
    assert lower < series < lower + 0.3


# ---------------------------------------------------------------------------
# decay check


def test_decay_coulomb_equality():
    rep = verify_decay(builtin_interaction("coulomb", strength=1.0), k_max=32)
    assert rep.passed
    assert rep.worst_ratio == pytest.approx(1.0, rel=1e-12)


def test_decay_wrong_gamma_fails():
    base = builtin_interaction("coulomb", strength=1.0)
    # direct-comparison oracle: 1/(4 pi^2 k^2) > cw/k^2.5 for every k > 1
    tampered = Interaction(kind="custom", what=base.what, gamma=1.5, cw=1.0 / FOUR_PI2)
    rep = verify_decay(tampered, k_max=16)
    assert not rep.passed
    assert rep.worst_k == 16  # ratio k^0.5 grows with k


def test_decay_screened_passes():
    rep = verify_decay(builtin_interaction("screened", strength=1.0, screening=0.5), k_max=16)
    assert rep.passed


def test_decay_zero_interaction():
    rep = verify_decay(zero_interaction(), k_max=8)
    assert rep.passed
    assert rep.worst_ratio == 0.0
