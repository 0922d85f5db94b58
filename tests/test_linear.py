"""Memory kernel, Volterra marching, stability scans, rate extraction."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import wofz

from landau_lab import linear
from landau_lab.errors import NumericError, StabilityGapError
from landau_lab.linear import (
    ModeHistory,
    _faddeeva,
    _psi,
    _root_newton,
    fit_decay_rate,
    memory_kernel,
    monotone_criterion,
    root_scan,
    scan_stability_margin,
    smallness_criterion,
    solve_volterra,
)
from landau_lab.models import (
    bi_maxwellian,
    builtin_interaction,
    bump_on_tail,
    maxwellian,
    zero_interaction,
)

FOUR_PI2 = 4.0 * np.pi**2
MAX = maxwellian()
COULOMB = builtin_interaction("coulomb", 1.0)
STRONG = builtin_interaction("coulomb", 16.0 * np.pi**2)  # classic weak-damping benchmark
# Newton strength at which the k = 1 strip functional reaches 1 - 0.05 at the outermost
# sampled point of the 0.5 strip, by adaptive quadrature; the certify sweep brackets it
NEWTON_THRESHOLD = 20.7494514853421


def per_point_kernel_transform(profile, interaction, k, zetas):
    """L(k, zeta) = what(k) Psi(zeta) of ft(sgn(k) s) on the points zetas: the grid-search
    reference of the scans, one mode and one sign at a time."""
    return float(interaction.what(np.array(k))) * _psi(profile, zetas, int(np.sign(k)))[0]


def long_double_kernel_transform(profile, res, ims, *, sign):
    """The (len(res), len(ims)) transform Psi of ft(sign s) by composite 20-node
    Gauss-Legendre quadrature, with every node, phase, growth factor and sum in
    np.longdouble.

    On x86-64 that is extended precision, whose epsilon is 1/2048 of
    double's.  Each panel spans at most half a wavelength of the fastest
    phase, |Im xi| + max |u|; the horizon puts the slowest envelope
    exp(-2 pi^2 theta_min s^2 + 2 pi max(Re xi) s) at exp(-60).
    """
    res = np.asarray(res, dtype=np.longdouble)
    ims = np.asarray(ims, dtype=np.longdouble)
    c = 8 * np.arctan(np.longdouble(1))  # 2 pi
    a = c * c / 2 * min(th for _, _, th in profile.components)
    b = c * max(np.max(res), 0)
    s_max = (b + np.sqrt(b * b + 240 * a)) / (2 * a)
    freq = np.max(np.abs(ims)) + max(abs(u) for _, u, _ in profile.components)
    n_panels = int(np.ceil(s_max * max(4, 2 * freq)))
    x, wx = (q.astype(np.longdouble) for q in np.polynomial.legendre.leggauss(20))
    half = s_max / (2 * n_panels)
    s = (half * (2 * np.arange(n_panels, dtype=np.longdouble)[:, None] + 1 + x)).ravel()
    ws = np.tile(half * wx, n_panels)
    ftv = sum(w * np.exp(-c * c / 2 * th * s * s - 1j * c * sign * u * s) for w, u, th in profile.components)
    arg = c * np.multiply.outer(ims, s)
    return np.einsum("rs,is->ri", np.exp(c * np.multiply.outer(res, s)) * (-c * c * ws * ftv * s),
                     np.cos(arg) + 1j * np.sin(arg))


def strip_functional(profile, interaction, k, xi):
    """The strip functional at one point xi, the scan's L(k, xi):
    what(k) Psi(conj xi) = -4 pi^2 what(k) int_0^inf e^{2 pi |k| conj(xi) t} ft(kt) k^2 t dt."""
    return complex(per_point_kernel_transform(profile, interaction, k, np.conj(xi)))


def per_width_root_scan(profile, interaction, k):
    """A grid search of |1 - L| over 25 strip widths in [0, lam] and 241 Im
    samples in [0, 6], one transform per width, refined by Newton's method
    when the best sample is within 0.5 of 1.

    Returns the root (None when refinement does not start) and lambda_star:
    a reference independent of the census, right wherever the least-damped
    root lies in the strip with Im >= 0 and no zero lies at Re < 0.
    """
    ims = np.linspace(0.0, 6.0, 241)
    best = (np.inf, 0j)
    for w in np.linspace(0.0, profile.lam, 25):
        g = np.abs(per_point_kernel_transform(profile, interaction, k, w + 1j * ims) - 1.0)
        j = int(np.argmin(g))
        if g[j] < best[0]:
            best = (g[j], complex(w, ims[j]))
    if best[0] < 0.5:
        root = _root_newton(profile, interaction, k, best[1])
        return root, float(min(root.real, profile.lam))
    return None, float(profile.lam)


def per_point_margin_scan(profile, interaction, lambda_strip, k_max=4):
    """(kappa_est, worst_k, worst_xi) of `scan_stability_margin`, one transform per mode
    and sign, k = 1..k_max and then k = -1..-k_max."""
    res = np.linspace(0.0, lambda_strip, linear._STRIP_RE_POINTS, endpoint=False)
    ims = np.linspace(0.0, linear._STRIP_IM_MAX, linear._STRIP_IM_POINTS)
    best = (np.inf, 1, 0j)
    for k in [*range(1, k_max + 1), *range(-1, -k_max - 1, -1)]:
        vals = per_point_kernel_transform(profile, interaction, k, res[:, None] + 1j * ims[None, :])
        gaps = np.abs(vals - 1.0)
        i = np.unravel_index(int(np.argmin(gaps)), gaps.shape)
        if gaps[i] < best[0]:
            best = (float(gaps[i]), k, complex(res[i[0]], ims[i[1]]))
    return best


# ---------------------------------------------------------------------------
# memory kernel


def test_kernel_vanishes_at_zero():
    assert memory_kernel(MAX, COULOMB, 3, 0.0) == 0.0


def test_kernel_closed_form_value():
    # -4 pi^2 * (1/4pi^2) * exp(-2 pi^2) * 1 * 1, cross-checked by quadrature transform
    val = complex(memory_kernel(MAX, COULOMB, 1, 1.0))
    assert val == pytest.approx(-np.exp(-2 * np.pi**2), rel=1e-12)
    ft1 = quad(lambda v: MAX.pdf(v) * np.cos(2 * np.pi * v), -30, 30, limit=200)[0]
    assert val == pytest.approx(-FOUR_PI2 * float(COULOMB.what(1)) * ft1, rel=1e-7)


def test_kernel_even_profile_symmetry():
    t = np.linspace(0, 3, 31)
    np.testing.assert_allclose(
        memory_kernel(MAX, COULOMB, -2, t), memory_kernel(MAX, COULOMB, 2, t), rtol=0, atol=1e-18
    )
    assert np.max(np.abs(memory_kernel(MAX, COULOMB, 2, t).imag)) == 0.0


def test_kernel_rejects_zero_mode():
    with pytest.raises(ValueError):
        memory_kernel(MAX, COULOMB, 0, 1.0)


def test_kernel_complex_for_drifting_profile():
    bump = bump_on_tail(weight=0.2, drift=2.0)
    t = np.linspace(0.1, 2.0, 20)
    vals = memory_kernel(bump, COULOMB, 1, t)
    assert np.max(np.abs(vals.imag)) > 0.0
    # real profile still gives conjugate mode symmetry
    np.testing.assert_allclose(memory_kernel(bump, COULOMB, -1, t), np.conj(vals), rtol=0, atol=1e-18)


def test_majorant_functional_differs_from_true_transform_when_not_even():
    # the strip functional is the true transform of the kernel; for a drifting
    # profile the transform of |ft|, a majorant, is a different function
    bump = bump_on_tail(weight=0.2, drift=2.0)
    xi = 0.1 + 0.0j

    def integrand(t, modulus):
        kern = memory_kernel(bump, COULOMB, 1, t)
        return np.exp(2 * np.pi * np.conj(xi) * t) * (-abs(kern) if modulus else kern)

    true_transform, majorant = (quad(integrand, 0, 12, args=(m,), complex_func=True, limit=400)[0]
                                for m in (False, True))
    assert strip_functional(bump, COULOMB, 1, xi) == pytest.approx(true_transform, rel=1e-9)
    assert abs(majorant - true_transform) > 0.1 * abs(majorant)


# ---------------------------------------------------------------------------
# closed-form transform


def psi_oracle(profile, xi, sign):
    """(Psi, Psi') at one point by adaptive quadrature of their s-integrals, to
    relative 1e-13 (absolute 1e-16) on each of the real and imaginary parts."""
    horizon = 12.0 / np.sqrt(min(th for _, _, th in profile.components))

    def part(power, f):
        return quad(lambda s: f(np.exp(2 * np.pi * xi * s) * profile.ft(sign * s) * s**power),
                    0, horizon, epsabs=1e-16, epsrel=1e-13, limit=500)[0]

    return tuple(c * complex(part(p, np.real), part(p, np.imag))
                 for c, p in ((-FOUR_PI2, 1), (-8 * np.pi**3, 2)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_faddeeva_matches_wofz_in_both_half_planes():
    # every argument -i b / (2 sqrt a) of the scans and more: Re xi in
    # [-0.5, 0.6], |Im xi| <= 60, |u| <= 3, theta in {0.25, 0.5, 1}, plus
    # Re xi = -40, where exp(-z^2) overflows, so no branch may evaluate it there
    xi = np.r_[np.linspace(-0.5, 0.6, 23), -40.0][:, None] + 1j * np.linspace(-60.0, 60.0, 241)
    z = np.concatenate([((-1j * xi - u) / np.sqrt(2 * theta)).ravel()
                        for u in np.linspace(-3.0, 3.0, 7) for theta in (0.25, 0.5, 1.0)])
    assert np.any(z.imag < 0) and np.any(z.imag > 0) and np.any(z.imag == 0)
    ref = wofz(z)
    assert np.max(np.abs(_faddeeva(z) - ref) / np.abs(ref)) <= 1e-13
    assert complex(_faddeeva(0.3 - 0.2j)) == pytest.approx(complex(wofz(0.3 - 0.2j)), rel=1e-13)


@pytest.mark.filterwarnings("error::RuntimeWarning")
# quad can flag roundoff short of 1e-13 on a part; the values agree to 2e-13
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("profile", [MAX, bi_maxwellian(drift=2.0), bi_maxwellian(2.0, 1.0, 0.5, 0.3), bump_on_tail()],
                         ids=["maxwellian", "even_bi_maxwellian", "asymmetric_bi_maxwellian", "bump_on_tail"])
def test_psi_and_its_derivative_match_quadrature(profile):
    xis = np.array([0.0, 0.3 + 1.7j, 0.45 - 2.5j, -0.4 + 0.8j, -0.2 - 2.5j, -3.0 + 4.0j])
    for sign in (1, -1):
        psi, dpsi = _psi(profile, xis, sign)
        for x, p, dp in zip(xis, psi, dpsi):
            want, dwant = psi_oracle(profile, x, sign)
            assert complex(p) == pytest.approx(want, rel=1e-12)
            assert complex(dp) == pytest.approx(dwant, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("profile", [MAX, bi_maxwellian(2.0, 1.0, 0.5, 0.3), bump_on_tail()],
                         ids=["maxwellian", "asymmetric_bi_maxwellian", "bump_on_tail"])
def test_psi_and_its_derivative_are_exact_on_the_census_left_edge(profile):
    # Psi' = -8 pi^3 sum w (M0 + b I1) / 2a cancels as Re xi falls: for
    # bump_on_tail() it is 5.8e-12 off at -12 + 1i.  The census's left edge
    # is where its contour needs Psi' most to the left, so both hold 1e-11 there
    xis = linear._CENSUS_RE_MIN + 1j * np.linspace(-linear._CENSUS_IM_MAX, linear._CENSUS_IM_MAX, 9)
    for sign in (1, -1):
        psi, dpsi = _psi(profile, xis, sign)
        for x, p, dp in zip(xis, psi, dpsi):
            want, dwant = psi_oracle(profile, x, sign)
            assert complex(p) == pytest.approx(want, rel=1e-11)
            assert complex(dp) == pytest.approx(dwant, rel=1e-11)


@pytest.mark.parametrize("left_half_plane", [True, False])
@pytest.mark.parametrize("profile", [MAX, bump_on_tail(weight=0.2, drift=2.0)], ids=["maxwellian", "drifting_bump"])
def test_strip_transform_matches_per_point_sum(profile, left_half_plane):
    # the closed form on a grid of the strip, or of Re xi < 0 where the
    # growing modes live, against a long-double quadrature
    res = np.linspace(-0.45, 0.0, 6) if left_half_plane else np.linspace(0.0, 0.45, 6)
    ims = np.linspace(-6.0, 6.0, 49)  # negative Im values included
    for sign in (1, -1):
        got = _psi(profile, res[:, None] + 1j * ims, sign)[0]
        ref = long_double_kernel_transform(profile, res, ims, sign=sign)
        assert got.shape == (len(res), len(ims))
        np.testing.assert_allclose(got, ref.astype(complex), rtol=1e-13, atol=0)


def test_psi_is_elementwise_on_any_grid():
    # no grid rule: an irregular grid gives each point's own value
    xis = np.array([[0.0, 0.3 - 2.0j, 0.1 + 5.0j], [-0.7 + 0.2j, 0.45 + 0.0j, 2.0 - 1.0j]])
    bump = bump_on_tail(weight=0.2, drift=2.0)
    psi, dpsi = _psi(bump, xis, -1)
    for idx in np.ndindex(xis.shape):
        p, dp = _psi(bump, xis[idx], -1)
        assert (p.shape, dp.shape) == ((), ())
        assert (psi[idx], dpsi[idx]) == pytest.approx((complex(p), complex(dp)), rel=1e-15)


def test_strip_transform_zero_interaction_is_exactly_zero():
    for k in (1, -2):
        for xi in (0j, 0.3 - 2.0j, 0.3 + 5.0j):
            assert strip_functional(MAX, zero_interaction(), k, xi) == 0.0


def test_laplace_exponent_overflow_is_a_numeric_error():
    # Psi grows like exp(b^2 / 4a) = exp(Re(xi)^2 / 2 theta) on the real axis,
    # past the largest double for Re xi > 37.7 at theta = 1
    with pytest.raises(NumericError, match="Laplace transform overflow"):
        root_scan(replace(maxwellian(), lam=40.0), COULOMB, 1)
    with pytest.raises(NumericError, match="Laplace transform overflow"):
        scan_stability_margin(replace(maxwellian(), lam=50.0), COULOMB, 45.0, 0.05)
    with pytest.raises(NumericError, match="Laplace transform overflow"):
        strip_functional(replace(maxwellian(), lam=40.0), COULOMB, 1, 38.0 + 1.0j)
    # the closed form needs no horizon: width 30 is finite, but that window
    # holds 46 zeros of 1 - L, one of them at 2.2474 + 1.1816i, so lambda_star
    # is no longer the cap 30: the census refuses to resolve them
    with pytest.raises(NumericError, match="46 zeros of 1 - L"):
        root_scan(replace(maxwellian(), lam=30.0), COULOMB, 1)
    assert _root_newton(replace(maxwellian(), lam=30.0), COULOMB, 1, 2.25 + 1.18j) == pytest.approx(
        2.2474 + 1.1816j, abs=1e-4)
    assert np.isfinite(scan_stability_margin(replace(maxwellian(), lam=40.0), COULOMB, 30.0, 0.05).kappa_est)
    assert np.isfinite(strip_functional(replace(maxwellian(), lam=40.0), COULOMB, 1, 30.0 + 1.0j))


# ---------------------------------------------------------------------------
# strip functional


def test_functional_zero_interaction():
    assert strip_functional(MAX, zero_interaction(), 1, 0.2 + 0.5j) == 0.0


def test_functional_gaussian_value_at_origin():
    # int_0^inf exp(-2 pi^2 t^2) t dt = 1/(4 pi^2)
    val = strip_functional(MAX, COULOMB, 1, 0j)
    assert val == pytest.approx(-1.0 / FOUR_PI2, rel=1e-10)
    assert abs(val) == pytest.approx(FOUR_PI2 * abs(COULOMB.what(1)) * (1.0 / FOUR_PI2), rel=1e-10)


def test_functional_matches_adaptive_quadrature():
    # L(k, xi) = what(k) Psi(xi): one profile transform, scaled per mode, against
    # each mode's own t-integral, for both signs of k and a profile whose
    # transform is not real
    xi = 0.3 + 1.7j
    for profile in (MAX, bump_on_tail(weight=0.2, drift=2.0)):
        for k in (1, 2, 3, 4, -2):
            def integrand(t):
                return np.exp(2 * np.pi * abs(k) * np.conj(xi) * t) * profile.ft(k * t) * k**2 * t

            oracle = quad(integrand, 0, 10, complex_func=True, limit=400)[0]
            oracle *= -FOUR_PI2 * float(COULOMB.what(k))
            assert strip_functional(profile, COULOMB, k, xi) == pytest.approx(oracle, rel=1e-9)


def test_functional_modulus_bounded_by_real_axis():
    # |L(k, xi)| <= L-evaluated-at-Re(xi) in modulus: integrand modulus peaks at real xi
    for xi in (0.1 + 0.8j, 0.4 + 3.0j, 0.0 + 5.0j):
        lhs = abs(strip_functional(MAX, STRONG, 1, xi))
        rhs = abs(strip_functional(MAX, STRONG, 1, complex(xi.real)))
        assert lhs <= rhs * (1 + 1e-12)


# ---------------------------------------------------------------------------
# margin scan and criteria


def test_margin_zero_interaction_is_one():
    rep = scan_stability_margin(MAX, zero_interaction(), 0.5, 0.9, k_max=2)
    assert rep.kappa_est == pytest.approx(1.0, abs=1e-15)
    assert rep.passed


def test_margin_weak_coulomb_passes_half():
    # |L| <= L(1, Re xi -> lambda_strip) ~ 0.11 for unit strength, so kappa >= 1/2
    rep = scan_stability_margin(MAX, COULOMB, 0.5, 0.5, k_max=4)
    assert rep.passed
    assert rep.kappa_est >= 0.5


def test_margin_super_jeans_fails():
    rep = scan_stability_margin(MAX, builtin_interaction("newton", 40.0), 0.5, 0.05, k_max=2)
    assert not rep.passed
    assert rep.kappa_est < 0.05


def test_margin_counts_a_two_stream_unstable_mode_under_coulomb():
    # two counter-drifting Maxwellians: Psi(0) = int f0'(v) / v dv > 0, so a
    # repulsive interaction with what(1) Psi(0) > 1 has a growing real root
    # (Penrose), which the census counts
    profile = bi_maxwellian(drift=2.0)
    v = np.linspace(-14.0, 14.0, 28000)  # an even count: no sample at v = 0
    penrose = float(np.sum(profile.dpdf(v) / v) * (v[1] - v[0]))
    psi0 = float(_psi(profile, 0.0, 1)[0].real)
    assert psi0 == pytest.approx(penrose, rel=1e-6)
    for strength, unstable in ((100.0, 0), (200.0, 1)):
        interaction = builtin_interaction("coulomb", strength)
        assert (float(interaction.what(1)) * psi0 > 1.0) == bool(unstable)
        rep = scan_stability_margin(profile, interaction, 0.25, 0.05, k_max=8)
        assert rep.unstable_modes == unstable and rep.warnings == () and not rep.passed
    # at 100 the mode is stable but damps slowly: root_scan's real root lies
    # inside the 0.25 strip, and the scan fails on the sample next to it
    interaction = builtin_interaction("coulomb", 100.0)
    root = root_scan(profile, interaction, 1).root
    assert root == pytest.approx(0.19623, abs=1e-5)
    rep = scan_stability_margin(profile, interaction, 0.25, 0.05, k_max=8)
    assert rep.kappa_est < 0.05 and rep.worst_k == 1
    assert abs(rep.worst_xi - root) <= 0.25 / linear._STRIP_RE_POINTS
    # a strip below the root passes
    rep = scan_stability_margin(profile, interaction, 0.15, 0.05, k_max=8)
    assert rep.passed and rep.unstable_modes == 0 and rep.kappa_est >= 0.05


def test_margin_of_a_mirrored_drift_lies_on_the_negative_sign():
    # v -> -v swaps ft(s) and ft(-s): the same gaps, found on the sign k < 0
    interaction = builtin_interaction("coulomb", 16.0 * np.pi**2)
    rep = scan_stability_margin(bump_on_tail(weight=0.2, drift=2.0), interaction, 0.25, 0.05)
    mirrored = scan_stability_margin(bump_on_tail(weight=0.2, drift=-2.0), interaction, 0.25, 0.05)
    assert (rep.worst_k, mirrored.worst_k) == (1, -1) and "worst_k = -1\n" in mirrored.to_text()
    assert (mirrored.worst_xi, mirrored.kappa_est) == (rep.worst_xi, rep.kappa_est)


def test_margin_counts_the_modes_of_a_non_even_profile():
    # the census counts every mixture; under weak Coulomb the bump has no
    # zero at Re xi <= 0, under Coulomb 16 pi^2 mode 1 grows
    rep = scan_stability_margin(bump_on_tail(), COULOMB, 0.25, 0.05)
    assert rep.unstable_modes == 0 and "unstable_modes = 0\n" in rep.to_text()
    assert rep.passed
    rep = scan_stability_margin(bump_on_tail(), STRONG, 0.25, 0.05)
    assert rep.unstable_modes == 1 and not rep.passed


@pytest.mark.parametrize("factor", [0.8, 0.9, 0.98, 1.02, 1.1, 1.2])
def test_margin_scan_matches_per_point_reference(factor):
    newton = builtin_interaction("newton", factor * NEWTON_THRESHOLD)
    rep = scan_stability_margin(MAX, newton, 0.5, 0.05)
    kappa, worst_k, worst_xi = per_point_margin_scan(MAX, newton, 0.5)
    assert (rep.worst_k, rep.worst_xi) == (worst_k, worst_xi)
    assert rep.kappa_est == pytest.approx(kappa, rel=0, abs=1e-13)


def counting_ft(profile):
    """The profile with its ft wrapped to record the size of every call."""
    sizes = []

    def ft(eta):
        sizes.append(int(np.size(eta)))
        return profile.ft(eta)

    return replace(profile, ft=ft), sizes


def clear_profile_memos():
    for memo in (linear._margin_psi, linear._census_contour, linear._small_gain_integral,
                 linear._outside_constants):
        memo.cache_clear()


def counting_psi(monkeypatch):
    """Record the sign of every `_psi` evaluation."""
    signs = []

    def psi(profile, xi, sign):
        signs.append(sign)
        return _psi(profile, xi, sign)

    monkeypatch.setattr(linear, "_psi", psi)
    return signs


def test_scans_evaluate_psi_once_per_grid_and_sign(monkeypatch):
    # every mode scales one Psi per sign: two closed-form grids, whatever
    # k_max, one when the profile is even (ft(-s) = ft(s)), and no ft call
    # besides the small-gain integral's and the outside bound's, which have
    # memos of their own.  Under Newton 20 every mode's small-gain bound is
    # below 1, so no census runs; under Coulomb 16 pi^2 modes 1 and 2 share
    # one census contour
    signs = counting_psi(monkeypatch)
    for base, interaction, want in ((MAX, builtin_interaction("newton", 20.0), [1]),
                                    (bi_maxwellian(drift=2.0), builtin_interaction("newton", 20.0), [1]),
                                    (bump_on_tail(), builtin_interaction("newton", 20.0), [1, -1]),
                                    (MAX, STRONG, [1, 1])):
        for k_max in (4, 8):
            clear_profile_memos()
            profile, sizes = counting_ft(base)
            linear._small_gain_integral(profile)
            linear._outside_constants(profile)
            signs.clear()
            sizes.clear()
            scan_stability_margin(profile, interaction, 0.25, 0.05, k_max=k_max)
            assert signs == want and sizes == []
    # root_scan: one census contour of the sign k > 0 (Psi_-(xi) = conj Psi_+(conj xi))
    # before Newton starts, then one point of its own sign per iterate
    clear_profile_memos()
    signs.clear()
    profile, sizes = counting_ft(MAX)
    linear._small_gain_integral(profile)
    linear._outside_constants(profile)
    sizes.clear()
    calls_before_newton = []

    def recording_newton(*args):
        calls_before_newton.append(list(signs))
        return _root_newton(*args)

    monkeypatch.setattr(linear, "_root_newton", recording_newton)
    assert root_scan(profile, STRONG, -2).root is not None
    assert calls_before_newton == [[1]] and len(signs) > 1 and set(signs[1:]) == {-1} and sizes == []


def test_repeated_scans_of_an_equal_profile_call_ft_zero_times(monkeypatch):
    # the memos are keyed by the profile's mixture, not by its ft callable
    clear_profile_memos()
    newton = builtin_interaction("newton", 20.0)
    monkeypatch.setattr(linear, "_root_newton", lambda *args: pytest.fail("weak Coulomb needs no refinement"))

    def scans(profile):
        return (scan_stability_margin(profile, newton, 0.5, 0.05), smallness_criterion(profile, newton),
                root_scan(profile, COULOMB, 1))

    first = scans(MAX)
    signs = counting_psi(monkeypatch)
    profile, sizes = counting_ft(MAX)
    assert scans(profile) == first
    assert signs == [] and sizes == []
    # the other sign of k reads the same contour: Psi_-(xi) = conj Psi_+(conj xi)
    assert root_scan(profile, COULOMB, -1) == replace(first[2], k=-1)
    assert signs == [] and sizes == []


def test_cached_transforms_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        linear._margin_psi(MAX, 0.25)[0, 0] = 0.0
    for a in linear._census_contour(MAX, 0):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_margin_validates_strip():
    with pytest.raises(ValueError):
        scan_stability_margin(MAX, COULOMB, 1.5, 0.1)


def test_margin_report_roundtrip_text():
    rep = scan_stability_margin(MAX, COULOMB, 0.5, 0.5, k_max=2)
    text = rep.to_text()
    assert "kappa_est" in text and "passed = true" in text


def test_monotone_criterion_cases():
    assert monotone_criterion(MAX, COULOMB)
    assert not monotone_criterion(MAX, builtin_interaction("newton", 1.0))
    # bump on tail has z pdf'(z) > 0 on the inner flank of the bump
    assert not monotone_criterion(bump_on_tail(weight=0.1, drift=3.0), COULOMB)


def test_smallness_criterion_maxwellian():
    # int_0^inf exp(-2 pi^2 r^2) r dr = 1/(4 pi^2) makes the margin equal what(1)
    margin = smallness_criterion(MAX, COULOMB)
    assert margin == pytest.approx(float(COULOMB.what(1)), rel=1e-9)
    assert margin < 1.0
    assert smallness_criterion(MAX, zero_interaction()) == 0.0


# ---------------------------------------------------------------------------
# Volterra marching


def test_volterra_free_transport_returns_source():
    src = lambda t: 0.5 * MAX.ft(t)
    h = solve_volterra(MAX, zero_interaction(), src, 1, 4.0, 1 / 32)
    np.testing.assert_array_equal(h.values, np.asarray(src(h.times), dtype=complex))


def test_volterra_zero_source_stays_zero():
    h = solve_volterra(MAX, STRONG, lambda t: np.zeros_like(t), 1, 4.0, 1 / 32)
    assert np.all(h.values == 0)


def test_volterra_conjugate_symmetry():
    src = lambda t: (0.3 + 0.1j) * MAX.ft(t) * np.exp(0.2j * t)
    hp = solve_volterra(MAX, STRONG, lambda t: src(t), 1, 3.0, 1 / 64)
    hm = solve_volterra(MAX, STRONG, lambda t: np.conj(src(t)), -1, 3.0, 1 / 64)
    np.testing.assert_allclose(hm.values, np.conj(hp.values), rtol=0, atol=1e-15)


def test_volterra_second_order_in_dt():
    src = lambda t: 5e-4 * MAX.ft(t)
    ref = solve_volterra(MAX, STRONG, src, 1, 3.0, 1 / 512)
    errs = []
    for dt in (1 / 64, 1 / 128):
        h = solve_volterra(MAX, STRONG, src, 1, 3.0, dt)
        step = int(round(dt * 512))
        errs.append(np.max(np.abs(h.values - ref.values[::step])))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


@settings(max_examples=20, deadline=None)
@given(
    a=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    b=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
def test_volterra_is_linear_in_the_source(a, b):
    s1 = lambda t: np.exp(-(t**2))
    s2 = lambda t: np.cos(t) * np.exp(-t)
    h1 = solve_volterra(MAX, STRONG, s1, 1, 2.0, 1 / 16)
    h2 = solve_volterra(MAX, STRONG, s2, 1, 2.0, 1 / 16)
    h12 = solve_volterra(MAX, STRONG, lambda t: a * s1(t) + b * s2(t), 1, 2.0, 1 / 16)
    np.testing.assert_allclose(h12.values, a * h1.values + b * h2.values, rtol=1e-12, atol=1e-13)


def test_volterra_source_must_return_the_time_grid_shape():
    with pytest.raises(ValueError, match="time grid"):
        solve_volterra(MAX, STRONG, lambda t: 1.0, 1, 1.0, 1 / 16)


def test_volterra_refuses_an_off_grid_end_time():
    # 8 / 0.03 = 266.67 steps: the march would stop at t = 8.01, past t_end
    for t_end, dt in ((8.0, 0.03), (0.01, 1 / 16), (1.0, 0.0)):
        with pytest.raises(ValueError, match="is not a multiple of dt|dt must be positive"):
            solve_volterra(MAX, STRONG, lambda t: 0.5 * MAX.ft(t), 1, t_end, dt)
    assert solve_volterra(MAX, STRONG, lambda t: 0.5 * MAX.ft(t), 1, 8.01, 0.03).times[-1] == pytest.approx(8.01)


def test_mode_history_validation():
    with pytest.raises(ValueError, match="uniform"):
        ModeHistory(k=1, times=np.array([0.0, 0.1, 0.3]), values=np.zeros(3))
    with pytest.raises(ValueError, match="equal length"):
        ModeHistory(k=1, times=np.array([0.0, 0.1]), values=np.zeros(3))


# ---------------------------------------------------------------------------
# decay-rate fit


def test_fit_pure_exponential():
    t = np.arange(0, 10, 0.01)
    h = ModeHistory(k=1, times=t, values=np.exp(-0.5 * t) + 0j)
    fit = fit_decay_rate(h, (0.0, 10.0 - 0.01))
    assert fit.rate == pytest.approx(0.5, abs=1e-6)
    assert fit.quality == pytest.approx(1.0, abs=1e-12)


def test_fit_oscillating_envelope():
    t = np.arange(0, 20, 0.01)
    h = ModeHistory(k=1, times=t, values=np.exp(-0.5 * t) * np.abs(np.cos(t)) + 0j)
    fit = fit_decay_rate(h, (0.5, 19.5))
    assert fit.rate == pytest.approx(0.5, abs=1e-3)


@settings(max_examples=20, deadline=None)
@given(rate=st.floats(min_value=0.1, max_value=2.0))
def test_fit_recovers_random_rates(rate):
    t = np.arange(0, 8, 0.02)
    h = ModeHistory(k=1, times=t, values=np.exp(-rate * t) + 0j)
    fit = fit_decay_rate(h, (0.0, 7.5))
    assert fit.rate == pytest.approx(rate, rel=1e-6)


def test_fit_window_validation():
    t = np.arange(0, 5, 0.1)
    h = ModeHistory(k=1, times=t, values=np.exp(-t) + 0j)
    with pytest.raises(ValueError):
        fit_decay_rate(h, (2.0, 9.0))


def test_fit_needs_three_points():
    t = np.arange(0, 5, 0.1)
    vals = np.full_like(t, 1e-30) + 0j  # everything below the default floor
    h = ModeHistory(k=1, times=t, values=vals)
    h.values[:3] = 1.0
    with pytest.raises(NumericError):
        fit_decay_rate(h, (1.0, 5.0 - 0.1))


# ---------------------------------------------------------------------------
# resolvent-root scan


def test_root_scan_zero_interaction_caps_at_width():
    res = root_scan(MAX, zero_interaction(), 1)
    assert res.lambda_star == MAX.lam
    assert res.root is None
    assert res.rate == pytest.approx(2 * np.pi * MAX.lam)


def test_root_scan_weak_coupling_near_cap():
    res = root_scan(MAX, COULOMB, 1)
    assert res.lambda_star == pytest.approx(MAX.lam, rel=1e-12)


def test_root_scan_root_satisfies_transform_equation():
    # independent oracle: the returned root must solve transform(K0) = 1
    for k in (1, 2):
        res = root_scan(MAX, STRONG, k)
        assert res.root is not None

        def integrand(t, k=k, z=res.root):
            return np.exp(2 * np.pi * k * z * t) * memory_kernel(MAX, STRONG, k, t)

        val = quad(integrand, 0, 8, complex_func=True, limit=400)[0]
        assert val == pytest.approx(1.0 + 0.0j, abs=1e-8)
        assert res.rate == pytest.approx(2 * np.pi * k * res.root.real, rel=1e-12)


@pytest.mark.parametrize("profile, interaction, k", [
    (MAX, COULOMB, 1), (MAX, COULOMB, 2), (MAX, STRONG, 1), (MAX, STRONG, 2), (MAX, STRONG, 3),
    (bump_on_tail(weight=0.2, drift=2.0), STRONG, 1),
], ids=["coulomb-1", "coulomb-2", "strong-1", "strong-2", "strong-3", "bump-strong-1"])
def test_root_scan_matches_per_width_reference(profile, interaction, k):
    # the census and the grid search seed Newton apart, so the refined roots
    # agree to its stopping tolerance, not bit for bit
    # the reference's refined root of strong-3, 1.1838 + 1.7549i, lies right of
    # the census window Re < lam: no zero there, so no root, the same cap
    root, lambda_star = per_width_root_scan(profile, interaction, k)
    res = root_scan(profile, interaction, k)
    assert res.root == (None if root is None or root.real >= profile.lam else pytest.approx(root, rel=1e-12))
    assert res.lambda_star == pytest.approx(lambda_star, rel=1e-12)


def test_root_scan_super_jeans_raises():
    with pytest.raises(StabilityGapError):
        root_scan(MAX, builtin_interaction("newton", FOUR_PI2 * 1.05), 1)


@pytest.mark.parametrize("strength", [150.0, 200.0])
def test_root_scan_refuses_a_two_stream_unstable_plasma(strength):
    # what(1) Psi(0) > 1 for an even profile puts a root of 1 - L at
    # Re zeta < 0, left of the damped roots (0.563 + 4.375i at 150,
    # 0.444 + 4.555i at 200) that a scan of the strip alone would report
    profile, interaction = bi_maxwellian(drift=2.0), builtin_interaction("coulomb", strength)
    assert scan_stability_margin(profile, interaction, 0.25, 0.05).unstable_modes == 1
    root = {150.0: "-0.0338", 200.0: "-0.1847"}[strength]
    with pytest.raises(StabilityGapError, match=f"zero at zeta = {root}[+-]0.0000i"):
        root_scan(profile, interaction, 1)


def test_root_scan_keeps_the_stable_two_stream_root():
    # below the Penrose threshold the root is the slow real one, as before
    res = root_scan(bi_maxwellian(drift=2.0), builtin_interaction("coulomb", 100.0), 1)
    assert res.root == pytest.approx(0.1962313938162759, rel=1e-12)
    assert res.rate == pytest.approx(1.232958210433796, rel=1e-12)


def test_root_scan_raises_naming_the_growing_root_of_a_bump_on_tail():
    # the strip holds a damped root 0.2554 + 4.1989i, once reported with rate
    # 1.60; the census finds the growing one left of it
    with pytest.raises(StabilityGapError, match=r"zero at zeta = -0\.0822\+2\.2427i.*grows at rate 0\.516"):
        root_scan(bump_on_tail(), STRONG, 1)
    with pytest.raises(StabilityGapError, match=r"zero at zeta = -0\.0822-2\.2427i"):
        root_scan(bump_on_tail(), STRONG, -1)


def test_root_scan_sub_jeans_real_root():
    # attractive but below threshold: slow nonoscillatory decay, real root
    res = root_scan(MAX, builtin_interaction("newton", 20.0), 1)
    assert res.root is not None
    assert abs(res.root.imag) < 1e-10
    assert 0.0 < res.lambda_star < MAX.lam


# ---------------------------------------------------------------------------
# zero census


def wofz_winding_number(profile, w, n=60000):
    """The zeros of D = 1 - w Psi in the census window as the unwrapped phase
    change of D once round the rectangle, divided by 2 pi: the argument
    principle read apart from the census's moments, with Psi summed from
    scipy's wofz on n boundary points."""
    lo, hi, top = linear._CENSUS_RE_MIN, profile.lam, linear._CENSUS_IM_MAX
    corners = [complex(lo, -top), complex(hi, -top), complex(hi, top), complex(lo, top), complex(lo, -top)]
    perimeter = float(np.sum(np.abs(np.diff(corners))))
    xi = np.concatenate([a + (b - a) * np.linspace(0.0, 1.0, int(n * abs(b - a) / perimeter), endpoint=False)
                         for a, b in zip(corners, corners[1:])] + [corners[:1]])
    psi = 0.0
    for c, u, theta in profile.components:
        a, b = 2 * np.pi**2 * theta, 2 * np.pi * (xi - 1j * u)
        psi = psi + c * (1.0 + b * 0.5 * np.sqrt(np.pi / a) * wofz(-0.5j * b / np.sqrt(a))) / (2 * a)
    phase = np.unwrap(np.angle(1.0 + w * FOUR_PI2 * psi))
    assert np.max(np.abs(np.diff(phase))) < 0.5  # the samples resolve the phase
    return (phase[-1] - phase[0]) / (2 * np.pi)


CENSUS_TABLE = [
    (MAX, STRONG, [0.3067 - 2.8313j, 0.3067 + 2.8313j]),
    (MAX, builtin_interaction("newton", 20.0), [0.4973]),
    (MAX, builtin_interaction("newton", 41.0), [-0.0303]),
    (MAX, builtin_interaction("newton", 42.0), [-0.0498]),
    (bump_on_tail(), STRONG, [-0.0822 + 2.2427j, 0.2554 + 4.1989j, 0.3385 - 2.7614j]),
    # a zero just outside the window: the census needs one halving of its panels
    (bi_maxwellian(2.0, 1.0, 0.5, 0.3), STRONG, [-0.2209 - 0.1163j, 0.1312 + 4.2212j]),
]


@pytest.mark.parametrize("profile, interaction, want", CENSUS_TABLE,
                         ids=["maxwellian-coulomb", "newton-20", "newton-41", "newton-42", "bump-coulomb",
                              "asymmetric-bi-maxwellian-coulomb"])
def test_census_zeros_solve_the_transform_and_match_the_winding_number(profile, interaction, want):
    w = float(interaction.what(1))
    zeros = np.sort_complex(linear._zeros(profile, w))
    assert len(zeros) == round(wofz_winding_number(profile, w)) == len(want)
    np.testing.assert_allclose(zeros, np.sort_complex(want), rtol=0, atol=1e-4)
    for z in zeros:
        val = quad(lambda t: np.exp(2 * np.pi * z * t) * memory_kernel(profile, interaction, 1, t), 0, 8,
                   complex_func=True, limit=400)[0]
        assert val == pytest.approx(1.0, abs=1e-8)


def test_census_halves_its_panels_when_the_count_is_no_integer():
    # the asymmetric mixture has a zero just outside the window: on the first
    # panels the count is 2 - 4e-5, on the halved ones an integer to 1e-9
    w = float(STRONG.what(1))
    counts = []
    for halvings in (0, 1):
        xi, dxi, psi, dpsi = linear._census_contour(bi_maxwellian(2.0, 1.0, 0.5, 0.3), halvings)
        counts.append(complex(np.sum(dxi * (-w * dpsi) / (1.0 - w * psi))))
    assert abs(counts[0] - 2.0) > 1e-6 > abs(counts[1] - 2.0)
    # a zero on the contour never gives an integer count
    w = float(builtin_interaction("newton", 20.0).what(1))
    edge = float(linear._zeros(MAX, w)[0].real)
    with pytest.raises(NumericError, match="did not converge"):
        linear._zeros(replace(maxwellian(), lam=edge), w)


OUTSIDE_PROFILES = [MAX, bump_on_tail(), bi_maxwellian(2.0, 1.0, 0.5, 0.3), bump_on_tail(0.1, 14.0, 0.25)]


@pytest.mark.parametrize("profile", OUTSIDE_PROFILES, ids=["maxwellian", "bump_on_tail", "asymmetric_bi_maxwellian",
                                                           "far_bump"])
def test_outside_constants_hold_on_sampled_psi_beyond_the_census_window(profile):
    # |Psi| and the remainder |xi^2 Psi + m| of both signs on Re xi <= 0
    # outside the window, on a grid that reaches 4 widths left of it and 40
    # above and below, against the closed form
    b_left, g_left, b_top, m = linear._outside_constants(profile)
    re = np.concatenate([np.linspace(-12.0, -3.0, 37), np.linspace(-3.0, 0.0, 13)])
    xi = (re[:, None] + 1j * np.linspace(-40.0, 40.0, 321)).ravel()
    for region, bound, remainder in ((xi.real <= linear._CENSUS_RE_MIN, b_left, g_left),
                                     (np.abs(xi.imag) >= linear._CENSUS_IM_MAX, b_top, linear._CENSUS_IM_MAX**2 * b_top - m)):
        for sign in (1, -1):
            psi = _psi(profile, xi[region], sign)[0]
            assert np.max(np.abs(psi)) <= bound
            assert np.max(np.abs(xi[region] ** 2 * psi + m)) <= remainder
    # for the Maxwellian ft > 0, so the left bound is attained at xi = -3
    if profile == MAX:
        assert b_left == pytest.approx(abs(complex(_psi(MAX, -3.0, 1)[0])), rel=1e-10)


def test_a_growing_zero_beyond_the_census_window_is_not_passed_over():
    # the Maxwellian's Jeans zero is real and leaves the window across Re = -3
    # between Newton 450 and 470; there the outside bound, exact at -3, takes over
    with pytest.raises(StabilityGapError, match=r"zero at zeta = -2\.9677"):
        root_scan(MAX, builtin_interaction("newton", 450.0), 1)
    for strength in (470.0, 600.0):
        newton = builtin_interaction("newton", strength)
        assert len(linear._zeros(MAX, float(newton.what(1)))) == 0
        with pytest.raises(NumericError, match="growth of mode k=1 is not excluded"):
            root_scan(MAX, newton, 1)
        rep = scan_stability_margin(MAX, newton, 0.5, 0.05, k_max=1)
        assert rep.unstable_modes == 0 and not rep.passed
        assert any(w.startswith("mode 1 growth outside the census window not excluded") for w in rep.warnings)
    # a far bump under Coulomb (28 pi)^2 grows through the zero -3.547 + 10.784i
    with pytest.raises(NumericError, match="not excluded"):
        root_scan(bump_on_tail(0.1, 14.0, 0.25), builtin_interaction("coulomb", (28.0 * np.pi) ** 2), 1)
    # under Coulomb the left bound |w| b_left (4.15 at 1900) is too weak, but
    # w > 0 keeps a zero near the imaginary axis there: the dense Maxwellian's
    # plasma zero, inside the window, is kept up to the top bound's reach
    coulomb = builtin_interaction("coulomb", 1900.0)
    w = float(coulomb.what(1))
    assert w * linear._outside_constants(MAX)[0] > 4 and linear._outside_score(MAX, w) < 1
    assert root_scan(MAX, coulomb, 1).root == pytest.approx(1.0677e-08 + 7.159937050942j, abs=1e-11)
    with pytest.raises(NumericError, match="not excluded"):
        root_scan(MAX, builtin_interaction("coulomb", 2500.0), 1)


@pytest.mark.parametrize("profile", [bump_on_tail(), bi_maxwellian(2.0, 1.0, 0.5, 0.3)],
                         ids=["bump_on_tail", "asymmetric_bi_maxwellian"])
def test_unstable_count_flips_where_the_volterra_mode_turns_to_growth(profile):
    # Penrose's question for a mixture that is not even: the census's count of
    # mode 1 against its Volterra solution, |rho| over t in [25, 30] against [15, 20)
    counts = []
    for strength in (60.0, 80.0, 140.0, 180.0, 240.0):
        interaction = builtin_interaction("coulomb", strength)
        count = scan_stability_margin(profile, interaction, 0.1, 0.05, k_max=1).unstable_modes
        hist = solve_volterra(profile, interaction, lambda t: profile.ft(t), 1, 30.0, 1.0 / 16)
        amp = np.abs(hist.values)
        grows = amp[hist.times >= 25].max() > amp[(hist.times >= 15) & (hist.times < 20)].max()
        assert count == int(grows)
        counts.append(count)
    assert counts == [0, 0, 1, 1, 1]
