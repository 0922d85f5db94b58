"""Flat key = value experiment configuration with strict validation.

The file format is INI-style sections of scalar keys.  Unknown sections or
keys are hard errors (no silent typos), and parse failures carry line
numbers.  A schema row is (parser, default, validator), the parser taking
the key's text to its value.  `EXPERIMENTS` is the one table of experiments
and the config each reads, `_KIND_READS` that of interaction kinds and the
keys each reads.  Structured values use compact item syntax (an
item with a wrong field count is an error naming its form):

    modes  = k:amplitude[:phase]; ...
    kicks  = time:mode:amplitude[:phase]; ...
    ftilde = k:eta; ...
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field as dataclass_field, replace as dataclass_replace
from pathlib import Path

from .errors import ConfigError
from .models import Interaction, VelocityProfile, builtin_interaction, builtin_profile, zero_interaction
from .sim import KickEvent, PerturbationMode, PerturbationSpec, _require_power_of_two

__all__ = ["ExperimentConfig", "load_config", "loads_config"]

# experiment -> the config it reads, `cli.run_experiment`'s own reads
# included: a whole section, or "section.key" for one key.  run.meta records
# and hashes these alone.
_COMMON = ("experiment", "profile", "interaction", "output")
EXPERIMENTS = {
    "linear_damping": (*_COMMON, "time.dt", "time.t_end", "linear"),
    "nonlinear_damping": (*_COMMON, "grid", "time", "perturbation", "observables",
                          "linear.fit_t_min", "linear.fit_t_max"),
    "certify": (*_COMMON, "certify"),
    "echo": (*_COMMON, "grid", "time.dt", "time.observe_stride", "echo"),
    "norms": (*_COMMON, "grid", "time.dt", "perturbation", "norms"),
}
# interaction kind -> the [interaction] keys it reads besides the kind; run.meta
# drops the others, which the kind's interaction never uses
_KIND_READS = {"coulomb": ("strength",), "newton": ("strength",), "screened": ("strength", "screening"), "none": ()}

_REQUIRED = object()


def _positive(x):
    return x > 0


def _nonnegative(x):
    return x >= 0


def _list(item):
    """Parser of a comma-separated list, each entry parsed by ``item``."""
    return lambda raw: tuple(item(p) for p in raw.split(",") if p.strip())


def _items(form: str, build, *fields):
    """Parser of ``;``-separated items in ``form``, such as "k:amplitude[:phase]": ``fields``
    parse an item's ``:``-separated fields for ``build``, and a bracketed last field may be left out."""
    least = len(fields) - form.count("[")

    def parse(raw: str) -> tuple:
        items = []
        for item in filter(None, (s.strip() for s in raw.split(";"))):
            parts = item.split(":")
            if not least <= len(parts) <= len(fields):
                raise ValueError(f"expected {form}")
            items.append(build(*(f(part) for f, part in zip(fields, parts))))
        return tuple(items)
    return parse


def _choice(what: str, options):
    """Parser of one of the ``options`` texts, giving its value (a tuple of names gives the name)."""
    options = options if isinstance(options, dict) else dict(zip(options, options))

    def parse(raw: str):
        text = raw.strip()
        if text not in options:
            raise ValueError(f"unknown {what} {text!r}; known: {', '.join(options)}")
        return options[text]
    return parse


# section -> key -> (parser, default, validator or None); a None default
# marks an optional key that stays unset unless the file gives it
_SCHEMA: dict[str, dict[str, tuple[object, object, object]]] = {
    "experiment": {
        "name": (_choice("experiment", tuple(EXPERIMENTS)), _REQUIRED, None),
    },
    "profile": {
        "name": (str.strip, "maxwellian", None),
        "params": (_list(float), (), None),
        "lam": (float, None, _positive),
        "c0": (float, None, _positive),
    },
    "interaction": {
        "kind": (_choice("interaction kind", tuple(_KIND_READS)), "coulomb", None),
        "strength": (float, 1.0, _positive),
        "screening": (float, None, _positive),
    },
    "grid": {
        "nx": (int, 64, _positive),
        "nv": (int, 1024, _positive),
        "vmax": (float, 8.0, _positive),
    },
    "time": {
        "dt": (float, 0.03125, _positive),
        "t_end": (float, 20.0, _positive),
        "observe_stride": (int, 1, _positive),
    },
    "perturbation": {
        "modes": (_items("k:amplitude[:phase]", PerturbationMode, int, float, float), (), None),
        "kicks": (_items("time:mode:amplitude[:phase]", KickEvent, float, int, float, float), (), None),
    },
    "observables": {
        "k_obs": (int, 4, _positive),
        "ftilde": (_items("k:eta", lambda k, eta: (k, eta), int, float), (), None),
    },
    "output": {
        "dir": (str.strip, "out", None),
    },
    "linear": {
        "k_list": (_list(int), (1,), None),
        "amplitude": (float, 1e-3, _positive),
        "fit_t_min": (float, None, _nonnegative),
        "fit_t_max": (float, None, _positive),
    },
    "certify": {
        "lambda_strip": (float, None, _positive),  # unset: half the profile's width
        "kappa": (float, 0.05, _positive),
        "k_max": (int, 4, _positive),
    },
    "echo": {
        "k_initial": (int, 1, None),
        "kick_mode": (int, -2, None),
        "tau_kick": (float, 4.0, _positive),
        "amp_initial": (float, 1e-3, _positive),
        "amp_kick": (float, 1e-3, _nonnegative),
    },
    "norms": {
        "lam": (float, 0.4, _positive),
        "mu": (float, 0.05, _nonnegative),
        "gamma": (float, 0.0, _nonnegative),
        "p": (_choice("p", {"1": 1, "2": 2, "inf": math.inf}), 1, None),
        "tau": (float, None, _nonnegative),  # unset: tau follows the snapshot time
        "n_max": (int, 24, _positive),
        "k_max": (int, 4, _positive),
        "times": (_list(float), (0.0, 1.0, 2.0, 4.0), None),
    },
}


def _parse(section: str, key: str, raw: str):
    try:
        return _SCHEMA[section][key][0](raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid value for [{section}] {key} = {raw!r}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment configuration (defaults applied)."""

    values: dict = dataclass_field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.values[section][key]

    @property
    def experiment(self) -> str:
        return self.values["experiment"]["name"]

    def reads(self) -> list[tuple[str, str]]:
        """The (section, key) pairs the experiment reads, which run.meta records and hashes:
        its `EXPERIMENTS` entries, less the [interaction] keys that the kind does not read."""
        kind_reads = ("kind", *_KIND_READS[self.values["interaction"]["kind"]])
        pairs = []
        for entry in EXPERIMENTS[self.experiment]:
            section, _, key = entry.partition(".")
            pairs += [(section, k) for k in ([key] if key else self.values[section])
                      if section != "interaction" or k in kind_reads]
        return pairs

    def replace(self, section: str, key: str, raw: str) -> "ExperimentConfig":
        """New config with one key re-parsed from its text form (sweep support)."""
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key [{section}] {key}")
        values = {s: dict(kv) for s, kv in self.values.items()}
        values[section][key] = _parse(section, key, raw)
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
    if cfg.values["interaction"]["kind"] == "screened" and cfg.values["interaction"]["screening"] is None:
        raise ConfigError("screened interaction requires [interaction] screening")
    for key in ("nx", "nv"):
        try:
            _require_power_of_two(cfg.values["grid"][key], f"[grid] {key}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


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
        for key, (_, default, _) in keys.items():
            given = parser.has_option(section, key)
            if not given and default is _REQUIRED:
                raise ConfigError(f"missing required key [{section}] {key} in {source}")
            values[section][key] = _parse(section, key, parser.get(section, key)) if given else default

    cfg = ExperimentConfig(values=values)
    _validate(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    """Load, parse and validate an experiment configuration file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return loads_config(p.read_text(), source=str(p))
