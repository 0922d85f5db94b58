"""Flat key = value experiment configuration with strict validation.

The file format is INI-style sections of scalar keys.  Unknown sections or
keys are hard errors (no silent typos), and parse failures carry line
numbers.  Structured values use compact item syntax:

    modes  = k:amplitude[:phase]; ...
    kicks  = time:mode:amplitude[:phase]; ...
    ftilde = k:eta; ...
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field as dataclass_field, replace as dataclass_replace
from pathlib import Path

from .errors import ConfigError
from .models import Interaction, VelocityProfile, builtin_interaction, builtin_profile, zero_interaction
from .sim import KickEvent, PerturbationMode, PerturbationSpec, _require_power_of_two

__all__ = ["ExperimentConfig", "load_config", "loads_config"]

EXPERIMENTS = ("linear_damping", "nonlinear_damping", "certify", "echo", "norms")

_REQUIRED = object()


def _positive(x):
    return x > 0


def _nonnegative(x):
    return x >= 0


# section -> key -> (type tag, default, validator or None); a None default
# marks an optional key that stays unset unless the file gives it
_SCHEMA: dict[str, dict[str, tuple[str, object, object]]] = {
    "experiment": {
        "name": ("str", _REQUIRED, None),
    },
    "profile": {
        "name": ("str", "maxwellian", None),
        "params": ("floats", (), None),
        "lam": ("float", None, _positive),
        "c0": ("float", None, _positive),
    },
    "interaction": {
        "kind": ("str", "coulomb", None),
        "strength": ("float", 1.0, _positive),
        "screening": ("float", None, _positive),
    },
    "grid": {
        "nx": ("int", 64, _positive),
        "nv": ("int", 1024, _positive),
        "vmax": ("float", 8.0, _positive),
    },
    "time": {
        "dt": ("float", 0.03125, _positive),
        "t_end": ("float", 20.0, _positive),
        "observe_stride": ("int", 1, _positive),
    },
    "perturbation": {
        "modes": ("modes", (), None),
        "kicks": ("kicks", (), None),
    },
    "observables": {
        "k_obs": ("int", 4, _positive),
        "ftilde": ("pairs", (), None),
    },
    "output": {
        "dir": ("str", "out", None),
    },
    "linear": {
        "k_list": ("ints", (1,), None),
        "amplitude": ("float", 1e-3, _positive),
        "fit_t_min": ("float", None, _nonnegative),
        "fit_t_max": ("float", None, _positive),
    },
    "certify": {
        "lambda_strip": ("float", None, _positive),  # unset: half the profile's width
        "kappa": ("float", 0.05, _positive),
        "k_max": ("int", 4, _positive),
    },
    "echo": {
        "k_initial": ("int", 1, None),
        "kick_mode": ("int", -2, None),
        "tau_kick": ("float", 4.0, _positive),
        "amp_initial": ("float", 1e-3, _positive),
        "amp_kick": ("float", 1e-3, _nonnegative),
    },
    "norms": {
        "lam": ("float", 0.4, _positive),
        "mu": ("float", 0.05, _nonnegative),
        "gamma": ("float", 0.0, _nonnegative),
        "p": ("str", "1", None),
        "tau": ("float", None, _nonnegative),  # unset: tau follows the snapshot time
        "n_max": ("int", 24, _positive),
        "k_max": ("int", 4, _positive),
        "times": ("floats", (0.0, 1.0, 2.0, 4.0), None),
    },
}


def _parse_scalar(section: str, key: str, raw: str, kind: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw.strip()
        if kind == "floats":
            return tuple(float(p) for p in raw.split(",") if p.strip()) if raw.strip() else ()
        if kind == "ints":
            return tuple(int(p) for p in raw.split(",") if p.strip()) if raw.strip() else ()
        if kind == "pairs":
            items = []
            for item in filter(None, (s.strip() for s in raw.split(";"))):
                k, eta = item.split(":")
                items.append((int(k), float(eta)))
            return tuple(items)
        if kind == "modes":
            items = []
            for item in filter(None, (s.strip() for s in raw.split(";"))):
                parts = item.split(":")
                if not 2 <= len(parts) <= 3:
                    raise ValueError("expected k:amplitude[:phase]")
                items.append(PerturbationMode(
                    k=int(parts[0]), amplitude=float(parts[1]),
                    phase=float(parts[2]) if len(parts) > 2 else 0.0,
                ))
            return tuple(items)
        if kind == "kicks":
            items = []
            for item in filter(None, (s.strip() for s in raw.split(";"))):
                parts = item.split(":")
                if not 3 <= len(parts) <= 4:
                    raise ValueError("expected time:mode:amplitude[:phase]")
                items.append(KickEvent(
                    time=float(parts[0]), mode=int(parts[1]), amplitude=float(parts[2]),
                    phase=float(parts[3]) if len(parts) > 3 else 0.0,
                ))
            return tuple(items)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid value for [{section}] {key} = {raw!r}: {exc}") from None
    raise AssertionError(f"unhandled kind {kind}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment configuration (defaults applied)."""

    values: dict = dataclass_field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.values[section][key]

    @property
    def experiment(self) -> str:
        return self.values["experiment"]["name"]

    def replace(self, section: str, key: str, raw: str) -> "ExperimentConfig":
        """New config with one key re-parsed from its text form (sweep support)."""
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key [{section}] {key}")
        kind = _SCHEMA[section][key][0]
        values = {s: dict(kv) for s, kv in self.values.items()}
        values[section][key] = _parse_scalar(section, key, raw, kind)
        cfg = ExperimentConfig(values=values)
        _validate(cfg)
        return cfg

    # --- object builders -------------------------------------------------

    def build_profile(self) -> VelocityProfile:
        sec = self.values["profile"]
        profile = builtin_profile(sec["name"], sec["params"])
        overrides = {k: sec[k] for k in ("lam", "c0") if sec[k] is not None}
        if overrides:
            profile = dataclass_replace(profile, **overrides)
        return profile

    def build_interaction(self) -> Interaction:
        sec = self.values["interaction"]
        if sec["kind"] == "none":
            return zero_interaction()
        return builtin_interaction(sec["kind"], strength=sec["strength"], screening=sec["screening"])

    def build_perturbation(self) -> PerturbationSpec:
        sec = self.values["perturbation"]
        return PerturbationSpec(modes=sec["modes"], kicks=sec["kicks"])


def _validate(cfg: ExperimentConfig) -> None:
    """Range checks of every key, then the cross-key rules; loading and `replace` share it."""
    for section, keys in _SCHEMA.items():
        for key, (_, _, validator) in keys.items():
            value = cfg.values[section][key]
            if value is not None and validator is not None and not validator(value):
                raise ConfigError(f"value out of range for [{section}] {key}: {value!r}")
    name = cfg.values["experiment"]["name"]
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}")
    kind = cfg.values["interaction"]["kind"]
    if kind not in ("coulomb", "newton", "screened", "none"):
        raise ConfigError(f"unknown interaction kind {kind!r}")
    if kind == "screened" and cfg.values["interaction"]["screening"] is None:
        raise ConfigError("screened interaction requires [interaction] screening")
    for key in ("nx", "nv"):
        try:
            _require_power_of_two(cfg.values["grid"][key], f"[grid] {key}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    p = cfg.values["norms"]["p"]
    if p not in ("1", "2", "inf"):
        raise ConfigError(f"[norms] p must be 1, 2 or inf, got {p!r}")


def loads_config(text: str, source: str = "<memory>") -> ExperimentConfig:
    """Parse and validate configuration text; see `load_config`."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {source}: {exc}") from None

    values: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {source}")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {source}")
    for section, keys in _SCHEMA.items():
        values[section] = {}
        for key, (kind, default, _) in keys.items():
            if parser.has_option(section, key):
                value = _parse_scalar(section, key, parser.get(section, key), kind)
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key [{section}] {key} in {source}")
            else:
                value = default
            values[section][key] = value

    cfg = ExperimentConfig(values=values)
    _validate(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    """Load, parse and validate an experiment configuration file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return loads_config(p.read_text(), source=str(p))
