"""Equilibrium velocity profiles and interaction potentials.

Conventions used throughout the package:

* velocity transform  ft(eta) = int f(v) exp(-2i*pi*eta*v) dv
* spatial Fourier coefficients on the unit torus, W represented by
  what(k) for integer k, with what(0) := 0 (the mean mode exerts no force).

Every profile is a finite Gaussian mixture, so its transform and
derivatives are available in closed form.  A profile therefore is its
mixture: profiles compare and hash by name, stored constants and
components, never by their callables.  `verify_analyticity` bounds the
analyticity sums from the components alone, reading no transform sample.
Whatever else depends on the profile alone (in `linear` the transforms Psi
and the small-gain integral) is computed once per profile per process and
then read from a bounded memo.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "VelocityProfile",
    "Interaction",
    "AnalyticityReport",
    "DecayReport",
    "maxwellian",
    "bi_maxwellian",
    "bump_on_tail",
    "builtin_profile",
    "builtin_interaction",
    "zero_interaction",
    "verify_analyticity",
    "verify_decay",
]

# (weight, mean, variance) triples of a Gaussian mixture
Components = tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class VelocityProfile:
    """Homogeneous equilibrium in velocity, with its analyticity constants.

    Every profile is a finite Gaussian mixture: ``components`` holds its
    (weight, mean, variance) triples, and ``pdf`` (f0(v), total mass 1),
    ``dpdf`` (f0'(v)) and ``ft`` (the velocity Fourier transform) are their
    closed forms, so they take no part in comparison or hashing.  ``lam``
    and ``c0`` are the stored analyticity width and constant:
    |ft(eta)| * exp(2*pi*lam*|eta|) is expected to stay below ``c0``
    (bounded in closed form by `verify_analyticity`).
    """

    name: str
    pdf: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    ft: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    lam: float
    c0: float
    dpdf: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    components: Components

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"analyticity width lam must be >= 0, got {self.lam}")
        if self.c0 <= 0:
            raise ValueError(f"analyticity constant c0 must be > 0, got {self.c0}")


@dataclass(frozen=True)
class Interaction:
    """Interaction potential represented by its spatial Fourier multiplier.

    ``what(k)`` must accept integer arrays, be even in k, real valued, and
    return 0 at k = 0.  ``gamma`` and ``cw`` are the decay constants of the
    bound |what(k)| <= cw / |k|**(1+gamma), re-checked by `verify_decay`.
    """

    kind: str
    what: Callable[[np.ndarray], np.ndarray]
    gamma: float
    cw: float

    def __post_init__(self):
        if self.gamma < 1:
            raise ValueError(f"decay exponent gamma must be >= 1, got {self.gamma}")
        # cw == 0 is allowed so the zero interaction is representable
        if self.cw < 0:
            raise ValueError(f"decay constant cw must be >= 0, got {self.cw}")


# ---------------------------------------------------------------------------
# Gaussian-mixture machinery


def _mixture_pdf(components: Components):
    def pdf(v):
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        for w, u, theta in components:
            out = out + w * np.exp(-((v - u) ** 2) / (2.0 * theta)) / np.sqrt(2.0 * np.pi * theta)
        return out

    return pdf


def _mixture_ft(components: Components):
    def ft(eta):
        eta = np.asarray(eta, dtype=float)
        out = np.zeros(eta.shape, dtype=complex)
        for w, u, theta in components:
            out = out + w * np.exp(-2.0 * np.pi**2 * theta * eta**2) * np.exp(-2j * np.pi * eta * u)
        return out

    return ft


def _mixture_dpdf(components: Components):
    def dpdf(v):
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        for w, u, theta in components:
            g = np.exp(-((v - u) ** 2) / (2.0 * theta)) / np.sqrt(2.0 * np.pi * theta)
            out = out + w * (-(v - u) / theta) * g
        return out

    return dpdf


def _mixture_profile(name: str, components: Components) -> VelocityProfile:
    weights = [w for w, _, _ in components]
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"mixture weights must sum to 1, got {sum(weights)}")
    theta_min = min(theta for _, _, theta in components)
    # Width: the narrowest component's thermal scale.  With
    # lam = sqrt(theta_min) the sup bound evaluates to exp(1/2) per component
    # and the derivative series to about 3.5, so c0 = 4 covers both.  The
    # [profile] lam and c0 keys override them (`dataclasses.replace`).
    return VelocityProfile(
        name=name,
        pdf=_mixture_pdf(components),
        ft=_mixture_ft(components),
        lam=float(np.sqrt(theta_min)),
        c0=4.0,
        dpdf=_mixture_dpdf(components),
        components=components,
    )


def maxwellian(theta: float = 1.0) -> VelocityProfile:
    """Centered Maxwellian with temperature theta: ft(eta) = exp(-2 pi^2 theta eta^2)."""
    if theta <= 0:
        raise ValueError(f"temperature must be positive, got {theta}")
    return _mixture_profile(f"maxwellian(theta={theta:g})", ((1.0, 0.0, float(theta)),))


def bi_maxwellian(
    drift: float = 2.0,
    theta1: float = 1.0,
    theta2: float | None = None,
    weight: float = 0.5,
) -> VelocityProfile:
    """Two counter-drifting Maxwellians at +-drift with weights (weight, 1-weight)."""
    if theta2 is None:
        theta2 = theta1
    if theta1 <= 0 or theta2 <= 0:
        raise ValueError("temperatures must be positive")
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    comps = ((float(weight), -float(drift), float(theta1)), (1.0 - float(weight), float(drift), float(theta2)))
    return _mixture_profile(f"bi_maxwellian(drift={drift:g})", comps)


def bump_on_tail(
    weight: float = 0.1,
    drift: float = 3.0,
    theta_bump: float = 0.25,
    theta: float = 1.0,
) -> VelocityProfile:
    """Maxwellian bulk plus a drifting bump of relative mass ``weight``.

    ``weight = 0`` reduces exactly to the plain Maxwellian.
    """
    if theta <= 0 or theta_bump <= 0:
        raise ValueError("temperatures must be positive")
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    if weight == 0.0:
        comps: Components = ((1.0, 0.0, float(theta)),)
    else:
        comps = ((1.0 - float(weight), 0.0, float(theta)), (float(weight), float(drift), float(theta_bump)))
    return _mixture_profile(f"bump_on_tail(weight={weight:g},drift={drift:g})", comps)


_PROFILE_FAMILIES = {
    "maxwellian": maxwellian,
    "bi_maxwellian": bi_maxwellian,
    "bump_on_tail": bump_on_tail,
}


def builtin_profile(name: str, params: Sequence[float] = ()) -> VelocityProfile:
    """Construct a built-in profile from a name and positional parameter list."""
    try:
        family = _PROFILE_FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown profile family {name!r}; known: {sorted(_PROFILE_FAMILIES)}") from None
    names = list(inspect.signature(family).parameters)
    if len(params) > len(names):
        raise ValueError(f"profile family {name!r} takes at most {len(names)} parameter(s) "
                         f"({', '.join(names)}), got {len(params)}")
    return family(*[float(p) for p in params])


# ---------------------------------------------------------------------------
# Interactions


def builtin_interaction(kind: str, strength: float = 1.0, screening: float | None = None) -> Interaction:
    """Coulomb / Newton / screened interactions via their Fourier multipliers.

    coulomb:  what(k) =  strength / (4 pi^2 k^2)   (repulsive; with the
              ``exp(-2i pi k x)`` coefficient convention this makes
              F = -grad W * rho the standard periodic Poisson force)
    newton:   the negative of coulomb (attractive)
    screened: what(k) = strength / (4 pi^2 (k^2 + screening^2))
    """
    if strength <= 0:
        raise ValueError(f"strength must be positive, got {strength}")
    if kind not in ("coulomb", "newton", "screened"):
        raise ValueError(f"unknown interaction kind {kind!r}; known: coulomb, newton, screened")
    if kind == "screened" and (screening is None or screening <= 0):
        raise ValueError("screened interaction requires screening > 0")
    four_pi2 = 4.0 * np.pi**2
    signed = -strength if kind == "newton" else strength
    s2 = screening**2 if kind == "screened" else 0.0

    def what(k):
        k = np.asarray(k, dtype=float)
        return np.where(k == 0, 0.0, signed / (four_pi2 * (np.where(k == 0, 1.0, k) ** 2 + s2)))

    return Interaction(kind=kind, what=what, gamma=1.0, cw=strength / four_pi2)


def _zero_what(k):
    return np.zeros(np.shape(np.asarray(k, dtype=float)))


_ZERO_INTERACTION = Interaction(kind="custom", what=_zero_what, gamma=1.0, cw=0.0)


def zero_interaction() -> Interaction:
    """Interaction with what(k) = 0: the free-transport limit.

    Every call returns the same instance, so caches keyed by the interaction
    (such as `strang_step`'s steppers) see one key.
    """
    return _ZERO_INTERACTION


# ---------------------------------------------------------------------------
# Hypothesis verification


@dataclass(frozen=True)
class AnalyticityReport:
    """Closed-form bounds, over c0, on sup_eta |ft(eta)| exp(2 pi lam |eta|)
    (``worst_ratio``, exact for one component; ``passed`` iff it is <= 1) and
    on sum_n lam^n/n! ||d^n f0/dv^n||_L1 (``series_ratio``, which gates
    nothing).  Both are inf once a component's exp(x^2/2) overflows."""

    passed: bool
    worst_ratio: float
    series_ratio: float


def _sqrt_factorial_series(x: float) -> float:
    """Upper bound for sum_n x^n / sqrt(n!).  The terms rise to their peak near
    n = x^2; past it, terms n, n+1, ... fall at ratios of at most
    r = x / sqrt(n + 1) < 1, and their geometric tail is added once it is small."""
    total, term, n = 1.0, x, 1
    while (r := x / math.sqrt(n + 1)) >= 1.0 or term > 1e-16 * (1.0 - r) * total:
        total += term
        n += 1
        term *= x / math.sqrt(n)
    return total + term / (1.0 - r)


def verify_analyticity(profile: VelocityProfile) -> AnalyticityReport:
    """Bound both analyticity sums per component (w, u, theta), x = lam / sqrt(theta).

    sup_eta w exp(-2 pi^2 theta eta^2 + 2 pi lam |eta|) = w exp(x^2/2), and
    ||d^n g_theta/dv^n||_L1 = theta^(-n/2) E|He_n(Z)| <= theta^(-n/2) sqrt(n!)
    (Cauchy-Schwarz: E He_n^2 = n!), so the series is at most
    w sum_n x^n / sqrt(n!).  The triangle inequality sums the components.
    """
    sup = series = 0.0
    for w, _, theta in profile.components:
        x = profile.lam / math.sqrt(theta) if w else 0.0  # a massless component adds nothing
        if not 0.5 * x * x <= 709.78:  # past it exp overflows a double
            sup = series = math.inf
            break
        sup += w * math.exp(0.5 * x * x)
        series += w * _sqrt_factorial_series(x)
    worst = sup / profile.c0
    return AnalyticityReport(passed=worst <= 1.0, worst_ratio=worst, series_ratio=series / profile.c0)


_DECAY_K_MAX = 32  # `verify_decay` checks the modes 1 <= |k| <= 32


@dataclass(frozen=True)
class DecayReport:
    """Result of checking |what(k)| <= cw / |k|**(1+gamma) for 1 <= |k| <= 32."""

    passed: bool
    worst_k: int


def verify_decay(interaction: Interaction) -> DecayReport:
    """Check the interaction's stored decay constants on 1 <= |k| <= 32."""
    k = np.arange(1, _DECAY_K_MAX + 1)
    bound = interaction.cw / k.astype(float) ** (1.0 + interaction.gamma)
    vals = np.abs(interaction.what(k))
    # ratio with guard against cw = 0 (zero interaction: 0 <= 0 passes)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound > 0, vals / bound, np.where(vals > 0, np.inf, 0.0))
    i = int(np.argmax(ratio))
    return DecayReport(passed=bool(ratio[i] <= 1.0 + 1e-12), worst_k=int(k[i]))
