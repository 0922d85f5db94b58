"""Batch experiment runner.

    landau-lab run <config>
    landau-lab certify <config>
    landau-lab sweep <config-template> --param key=1..8 [--jobs N]

Every run writes ``run.meta`` next to its CSV and SVG artifacts: status,
the resolved config keys the experiment reads and their hash, the
recurrence horizon where the experiment reads a grid (per observed mode for
``nonlinear_damping``, with its x-Nyquist content), and the artifact list.
The output directory comes from the config; the LANDAU_LAB_OUTPUT_ROOT
environment variable prepends an output root.  Exit codes: 0 ok, 2 config
error, 3 numeric failure, 4 certification fail.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import _SCHEMA, EXPERIMENTS, ExperimentConfig, load_config
from .errors import ConfigError, LandauLabError
from .linear import (fit_decay_rate, monotone_criterion, root_scan, scan_stability_margin, smallness_criterion,
                     solve_volterra, write_columns_csv, write_modes_csv)
from .models import verify_analyticity, verify_decay
from .norms import AnalyticNormSpec, GlidingNormSpec, analytic_norm, gliding_norm, spatial_norm
from .echoes import EchoReport, run_echo_experiment
from .sim import PhaseSpaceField, _rho_hat, _trajectory, recurrence_time, run
from .svgplot import Series, render_plot

__all__ = ["main", "run_experiment"]

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_CERTIFY = 0, 2, 3, 4


def _out_dir(cfg: ExperimentConfig) -> Path:
    root = os.environ.get("LANDAU_LAB_OUTPUT_ROOT", "")
    d = Path(root) / cfg.get("output", "dir") if root else Path(cfg.get("output", "dir"))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_meta(out: Path, cfg: ExperimentConfig, extra: dict, artifacts: list[str], status: str) -> None:
    """Write ``run.meta``; it records, and hashes, only the config keys the experiment reads."""
    config_lines = [f"config.{section}.{key} = {v}" for section, key in sorted(cfg.reads())
                    if (v := cfg.values[section][key]) is not None]
    digest = hashlib.sha256("\n".join(config_lines).encode()).hexdigest()[:16]
    lines = [
        f"status = {status}",
        f"version = {__version__}",
        f"experiment = {cfg.experiment}",
        f"config_hash = {digest}",
        *config_lines,
    ]
    for key in sorted(extra):
        lines.append(f"{key} = {extra[key]}")
    lines.append(f"artifacts = {','.join(sorted(artifacts)) if artifacts else 'none'}")
    (out / "run.meta").write_text("\n".join(lines) + "\n")


def _partial_artifacts(out: Path) -> list[str]:
    return sorted(p.name for p in out.iterdir() if p.is_file() and p.name != "run.meta")


def _fit_window(cfg: ExperimentConfig) -> tuple[float, float]:
    t_end = cfg.get("time", "t_end")
    t_min = cfg.get("linear", "fit_t_min")
    t_max = cfg.get("linear", "fit_t_max")
    return (0.25 * t_end if t_min is None else t_min, 0.75 * t_end if t_max is None else t_max)


def _decay_series(history, fit) -> list[Series]:
    amp = np.abs(history.values)
    series = [Series(label=f"|rho| k={history.k}", x=history.times, y=amp)]
    if fit is not None:
        y_fit = np.exp(fit.intercept - fit.rate * history.times)
        series.append(Series(label=f"fit rate {fit.rate:.3g}", x=history.times, y=y_fit, dashed=True, color="#d62728"))
    return series


def _experiment_linear(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[str], int]:
    profile, interaction = cfg.build_profile(), cfg.build_interaction()
    dt, t_end = cfg.get("time", "dt"), cfg.get("time", "t_end")
    amp = cfg.get("linear", "amplitude")
    window = _fit_window(cfg)
    meta: dict = {}
    all_series: list[Series] = []
    # the modes.csv columns, one chunk per mode after an empty one (k_list may be empty)
    times, ks, values = [np.empty(0)], [np.empty(0, dtype=int)], [np.empty(0, dtype=complex)]
    for k in cfg.get("linear", "k_list"):
        hist = solve_volterra(profile, interaction, lambda t, k=k: 0.5 * amp * profile.ft(k * t), k, t_end, dt)
        fit = fit_decay_rate(hist, window)
        scan = root_scan(profile, interaction, k)
        meta[f"rate_fit_k{k}"] = f"{fit.rate:.12g}"
        meta[f"rate_fit_r2_k{k}"] = f"{fit.quality:.12g}"
        meta[f"rate_predicted_k{k}"] = f"{scan.rate:.12g}"
        meta[f"lambda_star_k{k}"] = f"{scan.lambda_star:.12g}"
        all_series.extend(_decay_series(hist, fit))
        times.append(hist.times)
        ks.append(np.full(len(hist.times), k))
        values.append(hist.values)
    write_modes_csv(out / "modes.csv", np.concatenate(times), np.concatenate(ks), np.concatenate(values))
    (out / "decay.svg").write_text(render_plot(
        all_series, title="mode decay and fitted rates", xlabel="t", ylabel="|rho|"))
    return meta, ["modes.csv", "decay.svg"], EXIT_OK


def _experiment_nonlinear(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[str], int]:
    profile, interaction = cfg.build_profile(), cfg.build_interaction()
    log = run(
        profile, interaction, cfg.build_perturbation(), **cfg.values["grid"],
        dt=cfg.get("time", "dt"), t_end=cfg.get("time", "t_end"),
        observe_stride=cfg.get("time", "observe_stride"),
        k_obs=cfg.get("observables", "k_obs"), ftilde_points=cfg.get("observables", "ftilde"),
    )
    artifacts = ["observables.csv", "modes.csv"]
    log.write_observables_csv(out / "observables.csv")
    log.write_modes_csv(out / "modes.csv")
    if log.ftilde_points:
        log.write_ftilde_csv(out / "ftilde.csv")
        artifacts.append("ftilde.csv")
    hist = log.mode_history(1)
    meta: dict = {f"recurrence_time_k{k}": f"{t_r:.12g}" for k, t_r in log.recurrence.items()}
    meta["x_nyquist_content"] = f"{log.x_nyquist_content:.12g}"
    try:
        fit = fit_decay_rate(hist, _fit_window(cfg))
    except LandauLabError as exc:
        fit = None
        meta["rate_fit_k1_error"] = str(exc)
    else:
        meta["rate_fit_k1"] = f"{fit.rate:.12g}"
        meta["rate_fit_r2_k1"] = f"{fit.quality:.12g}"
    (out / "decay.svg").write_text(render_plot(
        _decay_series(hist, fit), title="density mode decay", xlabel="t", ylabel="|rho|"))
    (out / "gradient_growth.svg").write_text(render_plot(
        [Series(label="|grad_v f|_L2", x=log.times, y=log.gradv_l2)],
        title="velocity-gradient growth (filamentation)", xlabel="t", ylabel="L2 norm"))
    artifacts += ["decay.svg", "gradient_growth.svg"]
    return meta, artifacts, EXIT_OK


def _experiment_certify(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[str], int]:
    profile, interaction = cfg.build_profile(), cfg.build_interaction()
    analyticity = verify_analyticity(profile)
    decay = verify_decay(interaction)
    margin = scan_stability_margin(
        profile, interaction,
        lambda_strip=cfg.get("certify", "lambda_strip"),
        kappa=cfg.get("certify", "kappa"),
        k_max=cfg.get("certify", "k_max"),
    )
    mono = monotone_criterion(profile, interaction)
    small = smallness_criterion(profile, interaction)
    ok = analyticity.passed and decay.passed and margin.passed
    report = [
        f"certified = {str(ok).lower()}",
        f"profile = {profile.name}",
        f"interaction = {interaction.kind}",
        f"analyticity_passed = {str(analyticity.passed).lower()}",
        f"analyticity_worst_ratio = {analyticity.worst_ratio:.12g}",
        f"analyticity_series_ratio = {analyticity.series_ratio:.12g}",
        f"decay_passed = {str(decay.passed).lower()}",
        f"decay_worst_k = {decay.worst_k}",
        f"monotone_criterion = {str(mono).lower()}",
        f"smallness_criterion = {small:.12g}",
        f"smallness_passed = {str(small < 1.0).lower()}",
    ]
    (out / "stability_report.txt").write_text("\n".join(report) + "\n" + margin.to_text())
    meta = {"certified": str(ok).lower(), "kappa_est": f"{margin.kappa_est:.12g}"}
    return meta, ["stability_report.txt"], EXIT_OK if ok else EXIT_CERTIFY


def _write_echoes_csv(path, rep: EchoReport) -> None:
    """``echoes.csv``: one row, whose detection fields are empty when no peak matched."""
    pred, peak = rep.prediction, rep.match
    found = () if peak is None else (peak.time, peak.amplitude, rep.rel_error)
    fmt = "%d,%d,%.17g,%.17g" + (",%.17g" * 3 if found else ",,,") + "\r\n"
    write_columns_csv(path, ["k", "ell", "tau_kick", "t_predicted", "t_detected", "amplitude", "rel_error"], fmt,
                      [np.array([x]) for x in (pred.k, pred.ell, rep.tau_kick, pred.t_echo, *found)])


def _experiment_echo(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[str], int]:
    profile, interaction = cfg.build_profile(), cfg.build_interaction()
    rep = run_echo_experiment(
        profile, interaction,
        k_initial=cfg.get("echo", "k_initial"), kick_mode=cfg.get("echo", "kick_mode"),
        tau_kick=cfg.get("echo", "tau_kick"),
        amp_initial=cfg.get("echo", "amp_initial"), amp_kick=cfg.get("echo", "amp_kick"),
        **cfg.values["grid"],
        dt=cfg.get("time", "dt"), observe_stride=cfg.get("time", "observe_stride"),
    )
    _write_echoes_csv(out / "echoes.csv", rep)
    vlines = [(rep.prediction.t_echo, "predicted")] + [(p.time, "detected") for p in rep.peaks]
    (out / "echo_timeline.svg").write_text(render_plot(
        [Series(label=f"|rho| k={rep.log.k}", x=rep.log.times, y=np.abs(rep.log.values))],
        title="echo timeline", xlabel="t", ylabel="|rho|", vlines=vlines))
    meta = {
        "echo_predicted_t": f"{rep.prediction.t_echo:.12g}",
        "echo_detected": str(rep.match is not None).lower(),
    }
    if rep.match is not None:
        meta["echo_detected_t"] = f"{rep.match.time:.12g}"
        meta["echo_rel_error"] = f"{rep.rel_error:.12g}"
    return meta, ["echoes.csv", "echo_timeline.svg"], EXIT_OK


# FFT-roundoff floor of the density coefficients, relative to the largest:
# the spatial weight exp(2 pi (lam tau + mu) |k|) would grow noise into a tail
_SPATIAL_COEFF_FLOOR = 1e-13
# velocity weight exp(2 pi beta |v|) of the integral term (no [norms] key):
# inside the 700 exponent budget for any vmax up to 1,000
_ANALYTIC_BETA = 0.1


def _norm_rows(state: PhaseSpaceField, sec: dict) -> list[list[str]]:
    """The gliding, spatial and analytic rows of ``norms.csv`` for one snapshot.

    Every norm reads the snapshot's x-spectrum, ``state.spectrum`` (the
    gliding and analytic norms through the field's one double transform),
    except the |f| integral of the analytic norm, which reads ``state.data``.
    """
    t = state.time
    tau = t if sec["tau"] is None else sec["tau"]
    head = [f"{t:.17g}"]
    params = [f"{sec['lam']:.17g}", f"{sec['mu']:.17g}", f"{sec['gamma']:.17g}"]
    spec = GlidingNormSpec(lam=sec["lam"], mu=sec["mu"], gamma=sec["gamma"], p=sec["p"],
                           tau=tau, n_max=sec["n_max"], k_max=sec["k_max"])
    g = gliding_norm(state, spec)
    raw = _rho_hat(state.spectrum[: sec["k_max"] + 1], state.nx, state.dv)
    floor = _SPATIAL_COEFF_FLOOR * float(np.max(np.abs(raw)))
    coeffs = {k: z for k, z in enumerate(raw) if abs(z) >= floor}
    s = spatial_norm(coeffs, weight=sec["lam"] * tau + sec["mu"], gamma=sec["gamma"])
    a = analytic_norm(state, AnalyticNormSpec(lam=sec["lam"], mu=sec["mu"], beta=_ANALYTIC_BETA))
    return [
        head + ["gliding", *params, str(sec["p"]), f"{tau:.17g}", f"{g.value:.17g}", f"{g.remainder:.17g}"],
        head + ["spatial", *params, "", f"{tau:.17g}", f"{s:.17g}", "0"],
        head + ["analytic", *params, "", f"{tau:.17g}", f"{a:.17g}", "0"],
    ]


def _experiment_norms(cfg: ExperimentConfig, out: Path) -> tuple[dict, list[str], int]:
    sec, grid = cfg.values["norms"], cfg.values["grid"]
    # one trajectory, as in `run`; each snapshot is a field built from the
    # stop's spectrum, evaluated as it is reached, and inverted only for the
    # |f| integral
    rows = []
    for t, fk in _trajectory(cfg.build_profile(), cfg.build_interaction(), cfg.build_perturbation(), **grid,
                             dt=cfg.get("time", "dt"), times=sorted(sec["times"])):
        rows += _norm_rows(PhaseSpaceField(**grid, spectrum=fk, time=t), sec)
    write_columns_csv(out / "norms.csv", ["t", "family", "lambda", "mu", "gamma", "p", "tau", "value", "remainder"],
                      ",".join(["%s"] * 9) + "\r\n", np.array(rows, dtype=str).T)
    return {}, ["norms.csv"], EXIT_OK


_DISPATCH = {
    "linear_damping": _experiment_linear,
    "nonlinear_damping": _experiment_nonlinear,
    "certify": _experiment_certify,
    "echo": _experiment_echo,
    "norms": _experiment_norms,
}

def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute one experiment; writes artifacts and run.meta, returns exit code."""
    out = _out_dir(cfg)
    try:
        if "certify" in EXPERIMENTS[cfg.experiment] and cfg.get("certify", "lambda_strip") is None:
            cfg = cfg.replace("certify", "lambda_strip", repr(0.5 * cfg.build_profile().lam))
        meta, artifacts, code = _DISPATCH[cfg.experiment](cfg, out)
    except (ConfigError, ValueError) as exc:
        # ValueError = a module precondition the schema cannot see (bad
        # ranges, off-grid kick times, ...): still a configuration problem
        _write_meta(out, cfg, {"error": str(exc)}, _partial_artifacts(out), status="failed:config")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LandauLabError as exc:
        _write_meta(out, cfg, {"error": str(exc)}, _partial_artifacts(out), status="failed:numeric")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if "grid" in EXPERIMENTS[cfg.experiment]:
        grid = cfg.values["grid"]
        meta["recurrence_time"] = f"{recurrence_time(grid['nv'], grid['vmax'], 1):.12g}"
    _write_meta(out, cfg, meta, artifacts, status="ok" if code == EXIT_OK else "certification_failed")
    return code


def _parse_param(spec: str) -> tuple[str, list[str]]:
    if "=" not in spec:
        raise ConfigError(f"--param expects key=values, got {spec!r}")
    key, raw = spec.split("=", 1)
    key = key.strip()
    if ".." in raw:
        lo, hi = raw.split("..", 1)
        try:
            values = [str(v) for v in range(int(lo), int(hi) + 1)]
        except ValueError:
            raise ConfigError(f"--param {key}: range {raw!r} needs integer bounds lo..hi") from None
    else:
        values = [v.strip() for v in raw.split(",") if v.strip()]
    if not values:
        raise ConfigError(f"--param {spec!r} produced no values")
    return key, values


def _resolve_param_key(key: str) -> tuple[str, str]:
    if "." in key:
        section, name = key.split(".", 1)
        if section in _SCHEMA and name in _SCHEMA[section]:
            return section, name
        raise ConfigError(f"unknown sweep key {key!r}")
    hits = [(s, key) for s, keys in _SCHEMA.items() if key in keys]
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise ConfigError(f"unknown sweep key {key!r}")
    raise ConfigError(f"ambiguous sweep key {key!r}: " + ", ".join(f"{s}.{k}" for s, k in hits))


def _sweep_worker(args: tuple[str, str, str, str, str]) -> tuple[str, int]:
    path, section, key, value, out_sub = args
    cfg = load_config(path)
    cfg = cfg.replace(section, key, value)
    cfg = cfg.replace("output", "dir", str(Path(cfg.get("output", "dir")) / out_sub))
    return out_sub, run_experiment(cfg)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="landau-lab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"landau-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the experiment named in the config")
    p_run.add_argument("config")
    p_cert = sub.add_parser("certify", help="run the stability certification for the config")
    p_cert.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="fan a config template out over a parameter range")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help="key=lo..hi or key=v1,v2,... (key may be section.key)")
    p_sweep.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return run_experiment(load_config(args.config))
        if args.command == "certify":
            cfg = load_config(args.config)
            if cfg.experiment != "certify":
                cfg = cfg.replace("experiment", "name", "certify")
            return run_experiment(cfg)
        if args.command == "sweep":
            key, values = _parse_param(args.param)
            section, name = _resolve_param_key(key)
            load_config(args.config)  # fail fast on template errors
            tasks = [(args.config, section, name, v, f"{name}={v}") for v in values]
            if args.jobs > 1 and len(tasks) > 1:
                # imported here: multiprocessing adds ~20 ms to every other command's startup
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                    codes = dict(pool.map(_sweep_worker, tasks))
            else:
                codes = dict(map(_sweep_worker, tasks))
            for sub_dir in sorted(codes):
                print(f"{sub_dir}: exit {codes[sub_dir]}")
            return max(codes.values())
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LandauLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
