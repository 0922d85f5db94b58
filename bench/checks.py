"""Reference values computed apart from the program, and the per-pass checks.

The references come from SciPy on every run; none is a stored copy of the
program's output:

* Landau roots of the Maxwellian dispersion relation
  1 + (1 + zeta Z(zeta)) / (k lambda_D)^2 = 0, with Z built from
  `scipy.special.wofz`;
* the attractive-interaction certification threshold, from the
  `scipy.integrate.quad` oracle of the stability gate;
* the echo timing law t = tau (k - ell) / k;
* the closed forms smallness = strength / 4 pi^2 and the t = 0 spatial norm
  1 + (amp / 2) e^{2 pi mu}.

Run ``python3 bench/checks.py`` to print the references.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.special import wofz

FOUR_PI2 = 4.0 * math.pi**2
# inputs of the configs in bench/configs: unit-temperature Maxwellian and
# Coulomb 16 pi^2 (nonlinear_damping, linear_damping, norms), the norms
# perturbation and mu, the certify strip, the echo modes
COULOMB_16PI2 = 16.0 * math.pi**2
NORMS_AMPLITUDE, NORMS_MU = 2e-3, 0.05
CERTIFY_LAMBDA_STRIP, CERTIFY_KAPPA = 0.5, 0.05
ECHO_K_INITIAL, ECHO_KICK_MODE = 1, -2
# the benchmark's own sweeps
CERTIFY_FACTORS = (0.8, 0.9, 0.98, 1.02, 1.1, 1.2)
ECHO_TAUS = (3, 4, 5)
# the margin scan samples Re(xi) at re_points = 8 points of [0, lambda_strip)
CERTIFY_RE_POINTS = 8


def landau_rate(k: int, strength: float = COULOMB_16PI2, theta: float = 1.0) -> float:
    """Damping rate of |rho_k| in program units from the least-damped Landau root.

    On the unit torus with a unit-mass Maxwellian the plasma frequency is
    sqrt(strength) and k lambda_D = 2 pi k sqrt(theta / strength).
    """
    kl = 2.0 * math.pi * k * math.sqrt(theta / strength)
    zeta = complex(math.sqrt((1.0 + 3.0 * kl**2) / (2.0 * kl**2)), -0.3 * kl)  # Bohm-Gross start
    for _ in range(100):
        z = 1j * math.sqrt(math.pi) * wofz(zeta)
        dz = -2.0 * (1.0 + zeta * z)
        step = (1.0 + (1.0 + zeta * z) / kl**2) / ((z + zeta * dz) / kl**2)
        zeta -= step
        if abs(step) < 1e-15 * abs(zeta):
            break
    else:
        raise ArithmeticError(f"Landau root did not converge at k lambda_D = {kl:g}")
    return float(-zeta.imag * math.sqrt(2.0) * kl * math.sqrt(strength))


def certify_threshold(lambda_strip: float = CERTIFY_LAMBDA_STRIP, kappa: float = CERTIFY_KAPPA) -> float:
    """Newton strength at which the strip functional reaches 1 - kappa at the
    outermost sampled strip point, by adaptive quadrature."""
    re_max = lambda_strip * (1.0 - 1.0 / CERTIFY_RE_POINTS)
    integral = quad(lambda t: t * math.exp(-2 * math.pi**2 * t**2 + 2 * math.pi * re_max * t), 0, 12, limit=400)[0]
    return (1.0 - kappa) / integral


def echo_time(tau: float, k_initial: int = ECHO_K_INITIAL, kick_mode: int = ECHO_KICK_MODE) -> float:
    k, ell = k_initial + kick_mode, k_initial
    return tau * (k - ell) / k


def references() -> dict:
    threshold = certify_threshold()
    return {
        "landau_rate_k1": landau_rate(1),
        "landau_rate_k2": landau_rate(2),
        "certify_threshold": threshold,
        "certify_strengths": [f * threshold for f in CERTIFY_FACTORS],
        "echo_times": {str(tau): echo_time(tau) for tau in ECHO_TAUS},
        "spatial_norm_t0": 1.0 + 0.5 * NORMS_AMPLITUDE * math.exp(2.0 * math.pi * NORMS_MU),
    }


# ---------------------------------------------------------------------------
# artifact readers


def read_meta(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# per-pass checks: each returns (attempted, failed, problems)


def check_damping(d: Path, ref: dict) -> tuple[int, int, list[str]]:
    problems = []
    meta = read_meta(d / "nonlinear_damping" / "run.meta")
    rate, r2 = float(meta.get("rate_fit_k1", "nan")), float(meta.get("rate_fit_r2_k1", "nan"))
    if meta["status"] != "ok" or not _rel(rate, ref["landau_rate_k1"]) <= 0.10 or not r2 >= 0.98:
        problems.append(f"nonlinear rate {rate} (Landau {ref['landau_rate_k1']:.6g}, tol 10%), R^2 {r2} (>= 0.98)")
    mass = np.array([float(r["mass"]) for r in read_csv(d / "nonlinear_damping" / "observables.csv")])
    drift = float(np.max(np.abs(mass / mass[0] - 1.0)))
    if not drift <= 1e-10:
        problems.append(f"mass drift {drift:.3e} > 1e-10")
    for tau in ECHO_TAUS:
        rows = read_csv(d / f"echo_tau{tau}" / "echoes.csv")
        expected = ref["echo_times"][str(tau)]
        detected = float(rows[0]["t_detected"]) if rows and rows[0]["t_detected"] else math.nan
        if not _rel(detected, expected) <= 0.02:
            problems.append(f"echo tau={tau}: detected {detected}, timing law {expected:g} (tol 2%)")
    control = read_meta(d / "echo_control" / "run.meta")
    if control["status"] != "ok" or control["echo_detected"] != "false":
        problems.append(f"zero-amplitude control: status {control['status']}, echo_detected {control['echo_detected']}")
    return 5, 0, problems


def analytic_floor_reference(norms_config: Path) -> dict[float, float]:
    """Analytic norm at every snapshot with the clip floor raised 100x (1e-12).

    The snapshots come from `strang_step` from t = 0, independently of the
    norms experiment's restarts.
    """
    from landau_lab import norms, sim
    from landau_lab.config import load_config

    cfg = load_config(norms_config)
    sec, grid = cfg.values["norms"], cfg.values["grid"]
    dt = cfg.get("time", "dt")
    interaction = cfg.build_interaction()
    spec = norms.AnalyticNormSpec(lam=sec["lam"], mu=sec["mu"], beta=0.1, spectral_floor=1e-12)
    state = sim.init_state(cfg.build_profile(), cfg.build_perturbation(), grid["nx"], grid["nv"], grid["vmax"])
    out = {}
    for t in sorted(sec["times"]):
        for _ in range(int(round((t - state.time) / dt))):
            state = sim.strang_step(state, interaction, dt)
        out[t] = norms.analytic_norm(state, spec)
    return out


def check_snapshots(d: Path, ref: dict) -> tuple[int, int, list[str]]:
    problems = []
    attempted, failed = 3, 0
    rows = read_csv(d / "norms" / "norms.csv")
    if read_meta(d / "norms" / "run.meta")["status"] != "ok":
        problems.append("norms experiment did not finish ok")
    t0 = [r for r in rows if float(r["t"]) == 0.0 and r["family"] == "spatial"]
    if not t0 or not abs(float(t0[0]["value"]) - ref["spatial_norm_t0"]) <= 1e-12:
        problems.append(f"t = 0 spatial norm {t0[0]['value'] if t0 else None} vs {ref['spatial_norm_t0']!r} (tol 1e-12)")
    for r in rows:
        if r["family"] != "analytic":
            continue
        attempted += 1
        flagged = r.get("status", "ok") not in ("", "ok")
        raised = ref["analytic_floor"][float(r["t"])]
        if not flagged and not _rel(float(r["value"]), raised) <= 0.01:
            failed += 1

    g = json.loads((d / "gliding" / "result.json").read_text())
    allowed = 2.0 * max(g["base_remainder"], 1e-12 * g["base_value"])
    devs = {t: abs(v - g["base_value"]) for t, v in g["values"].items()}
    if len(devs) != 3 or not all(dev <= allowed for dev in devs.values()):
        problems.append(f"gliding identity deviations {devs} beyond {allowed:.3e}")
    rev = json.loads((d / "reversibility" / "result.json").read_text())["reversibility"]
    if not rev <= 1e-10:
        problems.append(f"reversibility {rev:.3e} > 1e-10")
    return attempted, failed, problems


def check_stability(d: Path, ref: dict) -> tuple[int, int, list[str]]:
    problems = []
    meta = read_meta(d / "linear_damping" / "run.meta")
    for k in (1, 2):
        landau = ref[f"landau_rate_k{k}"]
        predicted = float(meta.get(f"rate_predicted_k{k}", "nan"))
        fitted = float(meta.get(f"rate_fit_k{k}", "nan"))
        if not _rel(predicted, landau) <= 1e-6:
            problems.append(f"k={k}: predicted rate {predicted} vs Landau root {landau!r} (tol 1e-6)")
        if not _rel(fitted, landau) <= 0.05:
            problems.append(f"k={k}: fitted rate {fitted} vs Landau root {landau!r} (tol 5%)")
    for i, (factor, strength) in enumerate(zip(CERTIFY_FACTORS, ref["certify_strengths"])):
        sub = d / f"certify_{i}"
        certified = read_meta(sub / "run.meta").get("certified")
        if certified != ("true" if factor < 1.0 else "false"):
            problems.append(f"certify at {factor:g} x oracle threshold: certified = {certified}")
        report = read_meta(sub / "stability_report.txt")
        small = float(report.get("smallness_criterion", "nan"))
        if not _rel(small, strength / FOUR_PI2) <= 1e-6:
            problems.append(f"smallness {small} vs strength / 4 pi^2 = {strength / FOUR_PI2!r} (tol 1e-6)")
    return 1 + len(CERTIFY_FACTORS), 0, problems


CHECKS = {"damping": check_damping, "snapshots": check_snapshots, "stability": check_stability}


if __name__ == "__main__":
    for key, value in references().items():
        print(f"{key} = {value!r}")
