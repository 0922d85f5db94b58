"""Linearized mode dynamics around a homogeneous equilibrium.

Each spatial density mode rho_hat(t, k) obeys a scalar Volterra equation of
the second kind with memory kernel

    K0(t, k) = -4 pi^2 what(k) ft(k t) |k|^2 t,

driven by the free-streaming transform of the initial perturbation.  The
decay of a mode is set by the worst of two rates: the decay of the source,
and the width of the strip on which the Fourier-Laplace transform of K0
stays away from 1.  With s = |k| t that transform is L(k, xi) = what(k)
Psi(xi), Psi(xi) = -4 pi^2 int_0^inf exp(2 pi xi s) ft(sgn(k) s) s ds: every
mode scales one transform of the profile.  Every profile is a Gaussian
mixture, so `_psi` gives Psi and Psi' in closed form on all of C through the
Faddeeva function (`_faddeeva`, Weideman's rational approximation).  1 - L
is entire, so one census (`_zeros`, the argument principle) finds its zeros
in -3 < Re xi < lam, |Im xi| < 12; a zero at Re xi <= 0 is a growing mode.
Outside that window bounds on |Psi| (`_outside_score`) rule growth out,
or the scans say that they cannot.
The margin scan `scan_stability_margin` samples the distance from 1 of L,
the functional of Mouhot and Villani's condition (L), and counts the modes
with a growing zero; `root_scan` refines the least-damped zero, which sets
the actual decay rate.  The modulus |ft| serves only where it is a true
majorant: the tail bound for modes above k_max and the small-gain integral
of `smallness_criterion`.  That integral and the census's contour integral
use composite 20-node Gauss-Legendre panels (`_gl_panels`).

Psi on the margin grid and on the census contour, and the small-gain
integral, depend on the profile alone, so each is kept, read-only, in a
bounded memo keyed by the profile (profiles compare by their mixture, see
`models`).  A sweep over the interaction, or a second mode of `root_scan`,
reuses them; a single CLI call in a fresh process does not.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, StabilityGapError
from .models import Interaction, VelocityProfile

__all__ = [
    "ModeHistory",
    "StabilityReport",
    "RootScanResult",
    "DecayFit",
    "memory_kernel",
    "scan_stability_margin",
    "monotone_criterion",
    "smallness_criterion",
    "solve_volterra",
    "fit_decay_rate",
    "root_scan",
]

TWO_PI = 2.0 * np.pi


def write_columns_csv(path, header: Sequence[str], fmt: str, columns: Sequence[np.ndarray]) -> None:
    """Write equal-length columns as ``fmt % row`` lines under a comma-joined header, CRLF line ends.

    Each column becomes Python scalars once (``tolist``).  The lines are
    streamed, not joined into one body string, so no block of the file's
    size is allocated and freed.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(fmt.__mod__, zip(*(c.tolist() for c in columns))))


def write_modes_csv(path, t: np.ndarray, k: np.ndarray, z: np.ndarray) -> None:
    """Write complex mode samples as the ``t,k,re,im,abs`` table, one row per (t, k, z) column entry.

    ``abs`` is hypot(re, im), the bits of the scalar ``abs(z)``; the
    complex ``np.abs`` loop can differ from it in the last bit.
    """
    re, im = z.real, z.imag
    write_columns_csv(path, ["t", "k", "re", "im", "abs"], "%.17g,%d,%.17g,%.17g,%.17g\r\n",
                      (t, k, re, im, np.hypot(re, im)))


@dataclass
class ModeHistory:
    """Time series of one complex spatial-density mode on a uniform grid."""

    k: int
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValueError("times and values must be 1d arrays of equal length")
        if len(self.times) >= 2:
            steps = np.diff(self.times)
            if np.any(steps <= 0) or np.max(np.abs(steps - steps[0])) > 1e-9 * max(steps[0], 1.0):
                raise ValueError("times must be strictly increasing and uniform")


# ---------------------------------------------------------------------------
# kernel and Laplace-side machinery


def memory_kernel(profile: VelocityProfile, interaction: Interaction, k: int, t) -> np.ndarray:
    """K0(t, k) = -4 pi^2 what(k) ft(k t) k^2 t; real valued for even profiles."""
    if k == 0:
        raise ValueError("memory kernel is defined for k != 0")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("kernel is defined for t >= 0")
    w = float(interaction.what(np.array(k)))
    return -4.0 * np.pi**2 * w * profile.ft(k * t) * k**2 * t


# Weideman's rational approximation of the Faddeeva function (SIAM J. Numer.
# Anal. 31, 1994) with N = 40 terms, within ~2e-14 relative of the exact
# function on the arguments the scans reach: the scale L, the nodes
# t_j = L tan(pi j / 4N), |j| < 2N, and the polynomial coefficients
# a_k = sum_j exp(-t_j^2) (L^2 + t_j^2) cos(pi j k / 2N) / 4N, k = N..1 (the
# real part of the paper's FFT, summed directly so that importing the
# package does not load numpy.fft)
_W_N = 40
_W_L = np.sqrt(_W_N / np.sqrt(2.0))
_W_J = np.arange(1 - 2 * _W_N, 2 * _W_N)
_W_T = _W_L * np.tan(_W_J * np.pi / (4 * _W_N))
_W_A = np.sum(np.exp(-_W_T**2) * (_W_L**2 + _W_T**2)
              * np.cos(np.multiply.outer(np.arange(_W_N, 0, -1), _W_J) * np.pi / (2 * _W_N)), axis=1) / (4 * _W_N)


def _faddeeva(z) -> np.ndarray:
    """The Faddeeva function w(z) = exp(-z^2) erfc(-i z), elementwise.

    Weideman's approximation holds on Im z >= 0; below the real axis
    w(z) = 2 exp(-z^2) - w(-z), and that exponential is evaluated on those
    points only, so it cannot overflow on a point that does not use it.
    """
    z = np.asarray(z, dtype=complex)
    lower = z.imag < 0
    zu = np.where(lower, -z, z)
    d = _W_L - 1j * zu
    w = np.asarray(2.0 * np.polyval(_W_A, (_W_L + 1j * zu) / d) / d**2 + 1.0 / (np.sqrt(np.pi) * d))
    w[lower] = 2.0 * np.exp(-z[lower] ** 2) - w[lower]
    return w


def _psi(profile: VelocityProfile, xi, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """Psi(xi) = -4 pi^2 int_0^inf exp(2 pi xi s) ft(sign s) s ds and Psi'(xi), elementwise.

    Closed form on all of C, per mixture component (w, u, theta): with
    a = 2 pi^2 theta, b = 2 pi (xi - i sign u), the moments
    In = int_0^inf s^n exp(-a s^2 + b s) ds are M0 = I0 = 1/2 sqrt(pi / a)
    w_F(-i b / (2 sqrt a)) and, by parts, I1 = (1 + b M0) / (2a) and
    I2 = (M0 + b I1) / (2a); Psi = -4 pi^2 sum w I1, Psi' = -8 pi^3 sum w I2.
    Psi grows like exp(b^2 / 4a): past Re xi ~ 37.6 sqrt(theta) it overflows
    (`NumericError`).
    """
    xi = np.asarray(xi, dtype=complex)
    psi = np.zeros(xi.shape, dtype=complex)
    dpsi = np.zeros(xi.shape, dtype=complex)
    for w, u, theta in profile.components:
        a = 2.0 * np.pi**2 * theta
        b = TWO_PI * (xi - 1j * sign * u)
        m0 = 0.5 * np.sqrt(np.pi / a) * _faddeeva(-0.5j * b / np.sqrt(a))
        i1 = (1.0 + b * m0) / (2.0 * a)
        psi += w * i1
        dpsi += w * (m0 + b * i1) / (2.0 * a)
    psi *= -4.0 * np.pi**2
    dpsi *= -8.0 * np.pi**3
    if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(dpsi))):
        raise NumericError("Laplace transform overflow: Psi is not finite; shrink the strip")
    return psi, dpsi


# ---------------------------------------------------------------------------
# strip margin scan

# Sampling of the stability strip: Re in [0, strip), Im in [0, im_max], for
# both signs of k.  The transform of a real profile satisfies
# Psi_-(xi) = conj Psi_+(conj xi), so the two signs on Im >= 0 cover
# Im in [-im_max, im_max].  The Im window is finite; the report checks the
# functional's size on the window edge and flags the grid as too coarse
# instead of silently passing.
_STRIP_RE_POINTS = 8
_STRIP_IM_MAX = 6.0
_STRIP_IM_POINTS = 161


@dataclass(frozen=True)
class StabilityReport:
    """Sampled evidence for the strip stability margin (not a proof): the true
    L(k, xi) = what(k) Psi(xi) on one `_STRIP_*` grid of Psi per sign of k.

    ``worst_k`` is the mode of the smallest gap, negative when it lies on the
    sign k < 0 (Psi of ft(-s)); on a tie the positive sign wins.

    ``unstable_modes`` counts the modes 1 <= k <= k_max with a zero of
    1 - L at Re xi <= 0 in the census window (`_zeros`), each a growing mode.
    """

    kappa_est: float
    lambda_strip: float
    kappa_requested: float
    k_max: int
    worst_k: int
    worst_xi: complex
    tail_bound: float
    unstable_modes: int
    warnings: tuple[str, ...]
    passed: bool

    def to_text(self) -> str:
        lines = [
            f"passed = {str(self.passed).lower()}",
            f"kappa_est = {self.kappa_est:.12g}",
            f"kappa_requested = {self.kappa_requested:.12g}",
            f"lambda_strip = {self.lambda_strip:.12g}",
            f"k_max = {self.k_max}",
            f"grid_re_points = {_STRIP_RE_POINTS}",
            f"grid_im_max = {_STRIP_IM_MAX:.12g}",
            f"grid_im_points = {_STRIP_IM_POINTS}",
            f"worst_k = {self.worst_k}",
            f"worst_xi = {self.worst_xi.real:.12g}{self.worst_xi.imag:+.12g}j",
            f"tail_bound_beyond_k_max = {self.tail_bound:.12g}",
            f"unstable_modes = {self.unstable_modes}",
            f"warnings = {';'.join(self.warnings) if self.warnings else 'none'}",
        ]
        return "\n".join(lines) + "\n"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _strip_grid(lambda_strip: float) -> tuple[np.ndarray, np.ndarray]:
    """The margin scan's Re and Im samples."""
    return (np.linspace(0.0, lambda_strip, _STRIP_RE_POINTS, endpoint=False),
            np.linspace(0.0, _STRIP_IM_MAX, _STRIP_IM_POINTS))


def _is_even(profile: VelocityProfile) -> bool:
    """Whether the mixture is symmetric under v -> -v."""
    comps = profile.components
    return sorted(comps) == sorted((w, -u, theta) for w, u, theta in comps)


@functools.lru_cache(maxsize=16)
def _margin_psi(profile: VelocityProfile, lambda_strip: float) -> np.ndarray:
    """Psi of ft(s) and of ft(-s), stacked, on the margin scan's grid (read-only);
    for an even profile ft(-s) = ft(s), so one grid serves both signs."""
    res, ims = _strip_grid(lambda_strip)
    xi = res[:, None] + 1j * ims
    signs = (1,) if _is_even(profile) else (1, -1)
    return _read_only(np.stack([_psi(profile, xi, sign)[0] for sign in signs]))


def scan_stability_margin(
    profile: VelocityProfile,
    interaction: Interaction,
    lambda_strip: float,
    kappa: float,
    k_max: int = 4,
) -> StabilityReport:
    """Sample min over modes and over the strip of |L(k, xi) - 1|.

    L is the true transform of K0, the functional of Mouhot and Villani's
    condition (L): L(k, xi) = what(k) Psi(xi), one Psi of ft(sgn(k) s) per
    sign, for 1 <= |k| <= k_max.  Modes above ``k_max`` are certified by the
    closed-over bound |L(k, xi)| <= cw * c0 / (|k|**(1+gamma) * (lam - lambda_strip)**2)
    of the majorant |ft|, provided it stays below 1 - kappa at k_max + 1.
    A mode with a zero of 1 - L at Re xi <= 0 is unstable and fails the
    scan; on Re xi <= 0, |L| is at most 4 pi^2 |what(k)| times the
    small-gain integral, so a mode whose bound is below 1 skips the census.
    A mode with no such zero in the census window, where `_outside_score`
    cannot rule one out beyond it, fails the scan with a warning.  Psi is
    computed once per (profile, lambda_strip) per process.
    """
    if not 0.0 < lambda_strip < profile.lam:
        raise ValueError(f"lambda_strip must lie in (0, {profile.lam:g}), got {lambda_strip:g}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    res, ims = _strip_grid(lambda_strip)
    psi = _margin_psi(profile, float(lambda_strip))
    what = np.asarray(interaction.what(np.arange(1, k_max + 1)), dtype=float)
    vals = what[:, None, None] * psi[:, None]
    gaps = np.abs(vals - 1.0)
    # the first minimum in (sign, k, Re, Im) order: the lowest mode that
    # attains it, on the positive sign when both do
    sign_i, k_i, i, j = np.unravel_index(int(np.argmin(gaps)), gaps.shape)
    kappa_est = float(gaps[sign_i, k_i, i, j])
    edge_max = float(np.max(np.abs(vals[..., -1])))

    warnings = []
    tail_bound = interaction.cw * profile.c0 / ((k_max + 1) ** (1.0 + interaction.gamma) * (profile.lam - lambda_strip) ** 2)
    if not tail_bound < 1.0 - kappa:
        warnings.append(f"modes beyond k_max uncertified (tail bound {tail_bound:.3g} >= 1 - kappa)")
    if not edge_max < 1.0 - kappa:
        warnings.append(f"functional still {edge_max:.3g} at the Im window edge; enlarge im_max")
    gain = 4.0 * np.pi**2 * _small_gain_integral(profile)
    unstable_modes = 0
    for k, w in enumerate(what, start=1):
        if gain * abs(w) < 1.0:
            continue
        if np.any(_zeros(profile, w).real <= 0.0):
            unstable_modes += 1
        elif (score := _outside_score(profile, w)) >= 1.0:
            warnings.append(f"mode {k} growth outside the census window not excluded "
                            f"(outside score {score:.3g} >= 1)")
    passed = bool(kappa_est >= kappa and not warnings and not unstable_modes)
    return StabilityReport(
        kappa_est=kappa_est,
        lambda_strip=float(lambda_strip),
        kappa_requested=float(kappa),
        k_max=k_max,
        worst_k=(int(k_i) + 1) * (1, -1)[sign_i],
        worst_xi=complex(res[i], ims[j]),
        tail_bound=float(tail_bound),
        unstable_modes=unstable_modes,
        warnings=tuple(warnings),
        passed=passed,
    )


# what(k) >= 0 is checked on 1 <= k <= 8 (each built-in interaction has one
# sign for all k != 0), z f0'(z) <= 0 on [-8, 8] (the default velocity box)
_MONOTONE_K_MAX, _MONOTONE_Z_MAX, _MONOTONE_SAMPLES = 8, 8.0, 1601
# every built-in |what(k)| is largest at k = 1, inside 1 <= k <= 64
_SMALLNESS_K_MAX = 64


def monotone_criterion(profile: VelocityProfile, interaction: Interaction) -> bool:
    """Sufficient stability condition: what(k) >= 0 and z * phi'(z) <= 0.

    phi is the profile's marginal along the mode direction; in 1d checking
    z * pdf'(z) <= 0 on a symmetric z range covers both directions.
    """
    k = np.arange(1, _MONOTONE_K_MAX + 1)
    if np.any(np.asarray(interaction.what(k)) < 0):
        return False
    z = np.linspace(-_MONOTONE_Z_MAX, _MONOTONE_Z_MAX, _MONOTONE_SAMPLES)
    return bool(np.all(z * profile.dpdf(z) <= 1e-14))


def smallness_criterion(profile: VelocityProfile, interaction: Interaction) -> float:
    """Left side of the small-gain condition
    4 pi^2 (max_k |what(k)|) (sup_dir int_0^inf |ft(r dir)| r dr); stable when < 1.

    The integral is computed once per profile per process."""
    w_max = float(np.max(np.abs(interaction.what(np.arange(1, _SMALLNESS_K_MAX + 1)))))
    return 4.0 * np.pi**2 * w_max * _small_gain_integral(profile)


# 20-node Gauss-Legendre rule on [-1, 1], used panel by panel
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
# the integrand envelope at the horizon is exp(-50) below its scale, which
# keeps the relative truncation error of the integral under ~1e-10 for the
# profiles used here
_DECADES = 50.0


def _gl_panels(t_max: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 20-node rule on n_panels equal panels of [0, t_max]."""
    edges = np.linspace(0.0, t_max, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * _GL_X).ravel(), (half[:, None] * _GL_W).ravel()


def _majorant_nodes(profile: VelocityProfile) -> tuple[np.ndarray, np.ndarray]:
    """`_gl_panels` nodes and weights on [0, t_max] for the majorant integrals of |ft|.

    The horizon t_max: the narrowest mixture component's Gaussian envelope
    exp(-a s^2) of |ft| is exp(-_DECADES) / c0 there.
    """
    a = 2.0 * np.pi**2 * min(th for _, _, th in profile.components)
    t_max = max(1.0, np.sqrt(4.0 * a * (_DECADES + max(0.0, np.log(profile.c0)))) / (2.0 * a))
    return _gl_panels(t_max, max(8, int(np.ceil(t_max / 0.25))))


@functools.lru_cache(maxsize=16)
def _small_gain_integral(profile: VelocityProfile) -> float:
    r, wr = _majorant_nodes(profile)
    return max(float(np.sum(wr * np.abs(profile.ft(sgn * r)) * r)) for sgn in (1.0, -1.0))


# ---------------------------------------------------------------------------
# Volterra solve and rate extraction


def _grid_step(t: float, dt: float) -> int:
    """The step index of time t, or -1 when t is off the step grid (relative tolerance 1e-9)."""
    n = int(round(t / dt))
    return n if abs(n * dt - t) <= 1e-9 * max(1.0, abs(t)) else -1


def solve_volterra(
    profile: VelocityProfile,
    interaction: Interaction,
    source: Callable,
    k: int,
    t_end: float,
    dt: float,
) -> ModeHistory:
    """March rho(t) = source(t) + int_0^t K0(t - tau) rho(tau) dtau forward in time.

    Trapezoidal product integration on a uniform grid up to ``t_end``, a
    positive multiple of ``dt`` (else `ValueError`); second order in dt
    (verified by dt-halving).  ``source`` maps the time-grid array to values
    of its shape (else `ValueError`), typically t -> h_i_tilde(k, k t).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = _grid_step(t_end, dt)
    if n < 1:
        raise ValueError(f"t_end = {t_end:g} is not a multiple of dt = {dt:g}")
    times = np.arange(n + 1) * dt
    kern = np.asarray(memory_kernel(profile, interaction, k, times), dtype=complex)
    src = np.asarray(source(times), dtype=complex)
    if src.shape != times.shape:
        raise ValueError(f"source returned shape {src.shape}, expected the time grid's {times.shape}")

    rho = np.empty(n + 1, dtype=complex)
    rho[0] = src[0]
    denom = 1.0 - 0.5 * dt * kern[0]
    for i in range(1, n + 1):
        conv = 0.5 * kern[i] * rho[0]
        if i > 1:
            conv += np.dot(kern[i - 1:0:-1], rho[1:i])
        rho[i] = (src[i] + dt * conv) / denom
    return ModeHistory(k=k, times=times, values=rho)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit |rho| ~ exp(intercept - rate * t)."""

    rate: float
    quality: float
    intercept: float


# below this fraction of the peak, |rho| samples are roundoff, not decay
_FIT_FLOOR = 1e-13


def fit_decay_rate(history: ModeHistory, window: tuple[float, float]) -> DecayFit:
    """Fit the decay rate of log|rho| over envelope maxima inside the window.

    Envelope points are strict local maxima of |rho|; when the signal is
    monotone (fewer than 3 maxima) every above-floor sample is used instead.
    Samples below 1e-13 times the peak amplitude are excluded.  Raises when
    fewer than 3 usable points remain.
    """
    t_a, t_b = window
    if not (history.times[0] <= t_a < t_b <= history.times[-1] + 1e-12):
        raise ValueError(f"window {window} not inside history [{history.times[0]:g}, {history.times[-1]:g}]")
    amp = np.abs(history.values)
    floor = _FIT_FLOOR * float(np.max(amp))
    inside = (history.times >= t_a) & (history.times <= t_b)

    interior = np.zeros_like(inside)
    interior[1:-1] = inside[1:-1] & (amp[1:-1] > amp[:-2]) & (amp[1:-1] > amp[2:])
    pick = interior & (amp > floor)
    if int(np.count_nonzero(pick)) < 3:
        pick = inside & (amp > floor)
    if int(np.count_nonzero(pick)) < 3:
        raise NumericError("fewer than 3 usable envelope points in window")

    t_pts = history.times[pick]
    y_pts = np.log(amp[pick])
    slope, intercept = np.polyfit(t_pts, y_pts, 1)
    resid = y_pts - (slope * t_pts + intercept)
    ss_tot = float(np.sum((y_pts - y_pts.mean()) ** 2))
    quality = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return DecayFit(rate=float(-slope), quality=quality, intercept=float(intercept))


# ---------------------------------------------------------------------------
# zero census and resolvent-root scan

# The census rectangle -3 < Re xi < lam, |Im xi| < 12.  Growing modes lie at
# Re xi <= 0; left of -3, Psi' loses relative accuracy to cancellation.
_CENSUS_RE_MIN, _CENSUS_IM_MAX = -3.0, 12.0
# contour panels start this wide and halve until the zero count is an
# integer to 1e-6, at most _CENSUS_HALVINGS times
_CENSUS_PANEL, _CENSUS_HALVINGS = 0.25, 4
# Newton's identities resolve at most this many zeros
_CENSUS_MAX_ZEROS = 8


@functools.lru_cache(maxsize=16)
def _outside_constants(profile: VelocityProfile) -> tuple[float, float, float, float]:
    """(b_left, g_left, b_top, m) of `_outside_score`, integrals of ft(s); a real
    profile has ft(-s) = conj ft(s), so they serve both signs of k."""
    r, wr = _majorant_nodes(profile)
    g2 = np.zeros(r.shape, dtype=complex)
    for w, u, theta in profile.components:
        # g'' of w s exp(h0 s - a s^2) is w (2h - 2as + s h^2) exp(...), h = h0 - 2as
        a = 2.0 * np.pi**2 * theta
        h = -2j * np.pi * u - 2.0 * a * r
        g2 += w * (2.0 * h - 2.0 * a * r + r * h**2) * np.exp(-2j * np.pi * u * r - a * r**2)
    left = np.exp(TWO_PI * _CENSUS_RE_MIN * r)
    m = float(sum(w for w, _, _ in profile.components))
    return (4.0 * np.pi**2 * float(np.sum(wr * np.abs(profile.ft(r)) * left * r)),
            float(np.sum(wr * np.abs(g2) * left)),
            (m + float(np.sum(wr * np.abs(g2)))) / _CENSUS_IM_MAX**2,
            m)


def _outside_score(profile: VelocityProfile, w: float) -> float:
    """Below 1 when 1 - w Psi has no zero on Re xi <= 0 outside the census window.

    With g(s) = s ft(s), two integrations by parts give xi^2 Psi = -(m + R),
    m = ft(0), R = int exp(2 pi xi s) g''(s) ds.
    - Left of the window, Re xi <= -3: |w Psi| <= |w| b_left, with
      b_left = 4 pi^2 int |ft(s)| exp(-6 pi s) s ds.  For w > 0 a zero
      needs xi^2 = -w (m + R), |R| <= g_left = int |g''(s)| exp(-6 pi s) ds:
      the imaginary part gives |Im xi| <= w g_left / 6, the real part
      |Im xi|^2 >= 9 + w (m - g_left), so none lies there while
      (w g_left)^2 < 36 (9 + w (m - g_left)).
    - Above and below it, |Im xi| >= 12: |w Psi| <= |w| b_top, with
      b_top = (m + int |g''|) / 144.
    - On all of Re xi <= 0, |w Psi| is at most |w| times the small-gain bound.
    """
    b_left, g_left, b_top, m = _outside_constants(profile)
    left = abs(w) * b_left
    if w > 0.0 and 9.0 + w * (m - g_left) > 0.0:
        left = min(left, (w * g_left) ** 2 / (36.0 * (9.0 + w * (m - g_left))))
    return min(abs(w) * 4.0 * np.pi**2 * _small_gain_integral(profile), max(left, abs(w) * b_top))


@functools.lru_cache(maxsize=16)
def _census_contour(profile: VelocityProfile, halvings: int) -> tuple[np.ndarray, ...]:
    """Nodes xi and weights dxi / (2 pi i) of the census rectangle's boundary,
    counterclockwise, on panels _CENSUS_PANEL / 2**halvings wide, with Psi and
    Psi' of ft(s) there (read-only)."""
    lo, hi, top = _CENSUS_RE_MIN, profile.lam, _CENSUS_IM_MAX
    corners = [complex(lo, -top), complex(hi, -top), complex(hi, top), complex(lo, top)]
    xi, dxi = [], []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        s, ws = _gl_panels(abs(b - a), int(np.ceil(abs(b - a) * 2**halvings / _CENSUS_PANEL)))
        xi.append(a + (b - a) / abs(b - a) * s)
        dxi.append((b - a) / abs(b - a) / (2j * np.pi) * ws)
    xi = np.concatenate(xi)
    return tuple(map(_read_only, (xi, np.concatenate(dxi), *_psi(profile, xi, 1))))


def _zeros(profile: VelocityProfile, w: float) -> np.ndarray:
    """The zeros of 1 - w Psi, Psi of ft(s), in the census rectangle.

    Argument principle (Delves & Lyness 1967): the moments
    s_p = (1/2 pi i) contour-int z^p D'/D dxi of D = 1 - w Psi, with
    z = (xi - c) / r scaled to the unit disc, give the count s_0 and, by
    Newton's identities, the monic polynomial whose roots are the zeros.
    Psi_-(xi) = conj Psi_+(conj xi): for k < 0 the zeros are the conjugates.
    `NumericError` when the count is no integer after the last halving, or
    above _CENSUS_MAX_ZEROS.
    """
    for halvings in range(_CENSUS_HALVINGS + 1):
        xi, dxi, psi, dpsi = _census_contour(profile, halvings)
        f = dxi * (-w * dpsi) / (1.0 - w * psi)
        count = np.sum(f)
        if abs(count - np.rint(count.real)) < 1e-6:
            break
    else:
        raise NumericError(f"zero census of 1 - L did not converge (count {count.real:.6g})")
    n = int(np.rint(count.real))
    if n > _CENSUS_MAX_ZEROS:
        raise NumericError(f"{n} zeros of 1 - L in the census window; at most {_CENSUS_MAX_ZEROS} are resolved")
    c = 0.5 * (_CENSUS_RE_MIN + profile.lam)
    r = float(np.hypot(profile.lam - c, _CENSUS_IM_MAX))
    z = (xi - c) / r
    p = [np.sum(f * z**j) for j in range(1, n + 1)]
    a = [1.0]
    for j in range(1, n + 1):
        a.append(-sum(a[i] * p[j - i - 1] for i in range(j)) / j)
    return c + r * np.roots(a) if n else np.empty(0, dtype=complex)


@dataclass(frozen=True)
class RootScanResult:
    """Outcome of `root_scan`.

    ``root`` is the least-damped zero of 1 - L in the census window,
    refined, or None when the window holds none (a damped zero beyond the
    window is not seen).  ``lambda_star`` is
    min(Re root, lam), else the cap lam itself; the predicted mode decay rate
    is 2 pi |k| lambda_star because the transform acts on exp(2 pi |k| zeta t).
    """

    k: int
    lambda_star: float
    rate: float
    root: complex | None


def _root_newton(profile, interaction, k, seed: complex) -> complex:
    """Newton iteration for J(zeta) = what(k) Psi(zeta) = 1, with J' = what(k) Psi'(zeta)."""
    w = float(interaction.what(np.array(k)))
    sign = int(np.sign(k))
    zeta = complex(seed)
    for _ in range(60):
        psi, dpsi = _psi(profile, zeta, sign)
        jp = w * complex(dpsi)
        if abs(jp) == 0.0:
            raise NumericError("resolvent-root refinement hit a critical point")
        step = (w * complex(psi) - 1.0) / jp
        zeta -= step
        if abs(step) < 1e-13 * max(1.0, abs(zeta)):
            return zeta
    raise NumericError("resolvent-root refinement did not converge")


def root_scan(
    profile: VelocityProfile,
    interaction: Interaction,
    k: int,
) -> RootScanResult:
    """The least-damped resolvent root of mode k: the zero of 1 - L with the
    smallest Re in the census window (`_zeros`; on a tie the one with
    Im >= 0), refined by Newton's method on Psi and Psi'.

    With no zero in the window the cap lam is returned (the mode decay is
    then limited only by the source).  A root at Re zeta <= 0 is a growing
    mode: there is no decay gap, and `StabilityGapError` names the root and
    its growth rate.  When the window holds no growing zero and
    `_outside_score` cannot rule one out beyond it, `NumericError` says so.
    The census contour's Psi is computed once per profile per process.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    width_cap = profile.lam
    if width_cap <= 0:
        raise ValueError("width cap must be positive")
    w = float(interaction.what(np.array(k)))
    zeros = _zeros(profile, w)
    zeros = np.conj(zeros) if k < 0 else zeros
    root, lambda_star = None, float(width_cap)
    if len(zeros):
        root = _root_newton(profile, interaction, k, zeros[np.argmin(zeros.real - 1e-9 * (zeros.imag >= 0))])
        if root.real <= 0.0:
            raise StabilityGapError(
                f"1 - L has a zero at zeta = {root.real:.4f}{root.imag:+.4f}i, Re <= 0: mode k={k} grows at "
                f"rate {-TWO_PI * abs(k) * root.real:.4g}, no decay gap"
            )
        lambda_star = float(min(root.real, width_cap))
    score = _outside_score(profile, w)
    if score >= 1.0:
        raise NumericError(
            f"1 - L may have a zero at Re zeta <= 0 outside the census window (outside score {score:.3g} >= 1): "
            f"growth of mode k={k} is not excluded"
        )
    return RootScanResult(
        k=k,
        lambda_star=lambda_star,
        rate=TWO_PI * abs(k) * lambda_star,
        root=root,
    )
