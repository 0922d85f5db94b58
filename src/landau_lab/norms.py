"""Analytic norm families as truncated, grid-computable diagnostics.

Three families:

* `gliding_norm`: hybrid norm summing, over spatial modes k and derivative
  orders n, the weighted size of (d/dv + 2 i pi tau k)^n applied to the
  mode profile.  The shift tau glides the derivative frame with free
  transport and compensates filamentation.
* `spatial_norm`: weighted absolute sum of spatial mode coefficients for
  functions of x alone.
* `analytic_norm`: sup of the weighted double transform plus an
  exponentially weighted L1 integral.

The gliding and analytic norms read the field's double transform, which a
`PhaseSpaceField` computes once from its x-spectrum and keeps, so the two
norms of one snapshot share it.

Norm evaluations are diagnostics: the simulator never conditions behavior
on them, so truncation choices cannot contaminate physics runs.  Every
gliding evaluation returns a truncation remainder estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma
from typing import Mapping

import numpy as np

from .errors import DivergenceError, NumericError
from .sim import PhaseSpaceField

__all__ = [
    "GlidingNormSpec",
    "AnalyticNormSpec",
    "NormValue",
    "CoincidenceResult",
    "gliding_norm",
    "spatial_norm",
    "analytic_norm",
    "coincidence_check",
]


@dataclass(frozen=True)
class GlidingNormSpec:
    """Indices of the gliding hybrid norm.

    lam weights derivative order, mu the spatial mode, gamma a polynomial
    mode weight, p the velocity integrability (1, 2 or inf), tau the gliding
    time shift.  n_max and k_max truncate the double sum; evaluations attach
    a remainder estimate for the n tail.
    """

    lam: float
    mu: float
    gamma: float = 0.0
    p: float = 1
    tau: float = 0.0
    n_max: int = 24
    k_max: int = 8

    def __post_init__(self):
        if self.lam < 0 or self.mu < 0:
            raise ValueError("lam and mu must be >= 0")
        if self.n_max < 0 or self.k_max < 1:
            raise ValueError("need n_max >= 0 and k_max >= 1")
        if self.p not in (1, 2, np.inf, float("inf")):
            raise ValueError(f"p must be 1, 2 or inf, got {self.p}")


# relative clip floor of the gliding spectrum, at the FFT roundoff (no caller varies it)
_GLIDING_FLOOR = 1e-14


@dataclass(frozen=True)
class NormValue:
    """Truncated norm value with its n-tail remainder estimate."""

    value: float
    remainder: float


def _lp_norms(values: np.ndarray, dv: float, p) -> np.ndarray:
    """Lp norm on the v grid of each row of ``values``."""
    if p == 1:
        return np.sum(np.abs(values), axis=-1) * dv
    if p == 2:
        return np.sqrt(np.sum(np.abs(values) ** 2, axis=-1) * dv)
    return np.max(np.abs(values), axis=-1)


def _tail_estimate(terms: np.ndarray) -> float:
    """Geometric tail estimate from the ratio of the last nonzero terms."""
    nz = np.nonzero(terms)[0]
    if len(nz) < 2 or nz[-1] != len(terms) - 1:
        return 0.0
    last, prev = terms[-1], terms[nz[-2]]
    gap = len(terms) - 1 - nz[-2]
    r = (last / prev) ** (1.0 / gap)
    if r >= 1.0:
        return float("inf")
    return float(last * r / (1.0 - r))


def gliding_norm(field: PhaseSpaceField, spec: GlidingNormSpec) -> NormValue:
    """Truncated hybrid norm of a phase-space field.

    Derivatives act in the velocity spectrum, where (d/dv + 2 i pi tau k)
    is exact multiplication by 2 i pi (eta + tau k); the truncation is the
    only source of error.  Spectrum entries below 1e-14 times the largest
    amplitude of modes 0 .. k_max are zeroed first: repeated derivatives
    amplify the roundoff floor by (2 pi lam eta_max)^n / n!, and for fields
    with analytic velocity profiles the true tail sits far below any such
    floor.

    Each populated mode k >= 0 builds its derivative ladder, spectrum *
    mult^n for n = 0 .. n_max, by repeated multiplication in one buffer
    reused across modes, and takes one inverse transform of the whole
    ladder; the Lp norms of its rows are the mode's n-terms.  For a real
    field mode -k's rows are the complex conjugates of mode k's, so each
    k > 0 counts twice.

    Raises `DivergenceError` when the n-terms grow (lam beyond the field's
    analyticity width) and `ValueError` when the n_max-th derivative of a
    populated mode is not resolved by the grid.
    """
    if spec.k_max > field.nx // 2:
        raise ValueError(f"k_max = {spec.k_max} beyond the spatial Nyquist mode {field.nx // 2}")
    dv = field.dv
    eta = np.fft.fftfreq(field.nv, d=dv)
    edge = np.abs(eta) >= 0.9 * np.max(np.abs(eta))
    spectra = field.double_transform[: spec.k_max + 1]
    clip = _GLIDING_FLOOR * float(np.max(np.abs(spectra)))
    spectra = np.where(np.abs(spectra) < clip, 0.0, spectra)
    if spec.lam > 0:
        log_fact = np.cumsum(np.log(np.arange(1, spec.n_max + 1)))
        coef = np.exp(np.arange(spec.n_max + 1) * np.log(spec.lam) - np.r_[0.0, log_fact])
    else:
        coef = np.zeros(spec.n_max + 1)
        coef[0] = 1.0
    terms = np.zeros(spec.n_max + 1)
    ladder = np.empty((spec.n_max + 1, field.nv), dtype=complex)
    for k in range(spec.k_max + 1):
        spectrum = spectra[k]
        if not np.any(spectrum):
            continue
        mult = 2j * np.pi * (eta + spec.tau * k)
        # mode -k's ladder rows are the conjugates of mode k's, of equal Lp size
        weight_k = (2.0 if k else 1.0) * np.exp(2.0 * np.pi * spec.mu * k) * (1.0 + k) ** spec.gamma
        ladder[0] = spectrum
        for n in range(1, spec.n_max + 1):
            np.multiply(ladder[n - 1], mult, out=ladder[n])
        top = ladder[-1]
        peak = float(np.max(np.abs(top)))
        if peak > 0 and float(np.max(np.abs(top[edge]))) > 1e-8 * peak:
            raise ValueError(
                f"derivative order n_max = {spec.n_max} not resolved in v for mode k = {k}; "
                "refine nv or lower n_max"
            )
        terms += weight_k * coef * _lp_norms(np.fft.ifft(ladder, axis=1), dv, spec.p)

    if spec.n_max >= 4:
        tail3 = terms[-3:]
        if np.all(np.diff(tail3) > 0) and tail3[-1] > 1e-12 * np.sum(terms):
            raise DivergenceError(
                f"gliding-norm terms grow with n (last: {tail3.tolist()}); lam too large for this field"
            )
    return NormValue(value=float(np.sum(terms)), remainder=_tail_estimate(terms))


def spatial_norm(coeffs: Mapping[int, complex], weight: float, gamma: float = 0.0) -> float:
    """Weighted mode sum  sum_k |c_k| e^{2 pi weight |k|} (1 + |k|)^gamma.

    The weighted terms must decay over the outermost modes (tail
    monotonicity), otherwise the sum is declared divergent.
    """
    ks = sorted(coeffs)
    total = 0.0
    weighted: list[tuple[int, float]] = []
    for k in ks:
        term = abs(coeffs[k]) * np.exp(2.0 * np.pi * weight * abs(k)) * (1.0 + abs(k)) ** gamma
        total += term
        weighted.append((k, term))
    # growing tails below ~1e-9 of the total are roundoff noise, not divergence
    pos = [t for k, t in weighted if k > 0][-3:]
    neg = [t for k, t in weighted if k < 0][:3][::-1]
    for side in (pos, neg):
        if len(side) == 3 and side[0] < side[1] < side[2] and side[2] > 1e-9 * max(total, 1e-300):
            raise DivergenceError("weighted mode terms grow toward the truncation edge")
    return float(total)


@dataclass(frozen=True)
class AnalyticNormSpec:
    """Indices (lam, mu, beta) of the sup-plus-integral analytic norm.

    ``spectral_floor`` clips the measured transform below that fraction of
    its peak before weighting, for the same reason as in `gliding_norm`:
    the exponential eta weight would otherwise promote the roundoff tail.
    """

    lam: float
    mu: float
    beta: float
    spectral_floor: float = 1e-14

    def __post_init__(self):
        if self.lam < 0 or self.mu < 0 or self.beta <= 0:
            raise ValueError("lam and mu must be >= 0 and beta positive")
        if not 0.0 <= self.spectral_floor < 1.0:
            raise ValueError("spectral_floor must lie in [0, 1)")


def analytic_norm(field: PhaseSpaceField, spec: AnalyticNormSpec) -> float:
    """sup_{k,eta} |ftilde(k,eta)| e^{2 pi lam |eta|} e^{2 pi mu |k|}  +  iint |f| e^{2 pi beta |v|}.

    The sup runs over the resolvable (k, eta) grid and is assembled in log
    space; an exponent beyond the double-precision range triggers the
    overflow guard instead of returning inf.
    """
    if 2.0 * np.pi * spec.beta * field.vmax > 700.0:
        raise NumericError("beta * vmax exceeds the exponent budget for the integral term")
    eta = np.fft.fftfreq(field.nv, d=field.dv)
    ft = field.double_transform
    ft_abs = np.abs(ft) * field.dv
    ft_abs = np.where(ft_abs < spec.spectral_floor * float(np.max(ft_abs)), 0.0, ft_abs)
    k = np.arange(ft.shape[0])
    with np.errstate(divide="ignore"):
        log_sup = (
            np.log(ft_abs)
            + 2.0 * np.pi * spec.lam * np.abs(eta)[None, :]
            + 2.0 * np.pi * spec.mu * k[:, None]
        )
    top = float(np.max(log_sup))
    if top > 700.0:
        raise NumericError(f"sup-term exponent {top:.1f} exceeds the double-precision budget")
    sup_term = float(np.exp(top))
    integral = float(np.sum(np.abs(field.data) * np.exp(2.0 * np.pi * spec.beta * np.abs(field.v))[None, :]))
    integral *= field.dv / field.nx
    return sup_term + integral


@dataclass(frozen=True)
class CoincidenceResult:
    z: float
    f: float
    rel_diff: float


def coincidence_check(coeffs: Mapping[int, complex], spec: GlidingNormSpec) -> CoincidenceResult:
    """For x-only inputs the gliding norm collapses onto the spatial norm.

    A v-independent mode turns the derivative sum into the exponential
    series of 2 pi lam tau |k| truncated at n_max, so the two evaluations
    must agree to roundoff plus that truncation remainder.
    """
    z = 0.0
    for k, c in coeffs.items():
        x = 2.0 * np.pi * spec.lam * abs(spec.tau) * abs(k)
        series = sum(np.exp(n * np.log(x) - lgamma(n + 1)) for n in range(1, spec.n_max + 1)) + 1.0 if x > 0 else 1.0
        z += abs(c) * np.exp(2.0 * np.pi * spec.mu * abs(k)) * (1.0 + abs(k)) ** spec.gamma * series
    f = spatial_norm(coeffs, weight=spec.lam * spec.tau + spec.mu, gamma=spec.gamma)
    denom = max(abs(z), abs(f), 1e-300)
    return CoincidenceResult(z=float(z), f=float(f), rel_diff=float(abs(z - f) / denom))

