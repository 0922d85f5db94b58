"""Span tracer that times the landau_lab modules from outside the package.

`Tracer.install` wraps every public function of each module (the names in
its ``__all__``) wherever the package looks that name up, so that ``run``
is patched in ``landau_lab.cli``, ``landau_lab.echoes`` and
``landau_lab.sim`` alike.  It also wraps the ``ObservableLog`` CSV writers,
the ``ft`` transform of every profile built through ``builtin_profile``, and
the ``numpy.fft`` transforms.  An FFT call is not a span: its count, points
and time are charged to the innermost open span, so the FFT kernel counts
against whichever layer calls it.  `Tracer.uninstall` restores every
patched name.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

# module -> layer; config and svgplot are counted with cli
LAYER_OF = {
    "cli": "cli", "config": "cli", "svgplot": "cli",
    "sim": "sim", "echoes": "echoes", "linear": "linear", "models": "models", "norms": "norms",
}
LAYERS = ("cli", "sim", "echoes", "linear", "models", "norms")
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")
WRITERS = ("write_observables_csv", "write_modes_csv", "write_ftilde_csv")

# <span name>_calls metrics: the wrapped functions that some workload calls
CALL_COUNTS = (
    "cli.run_experiment", "config.load_config", "svgplot.render_plot",
    "sim.run", "sim.init_state",
    "echoes.run_echo_experiment", "echoes.predict_echo_time", "echoes.detect_peaks",
    "linear.solve_volterra", "linear.memory_kernel", "linear.fit_decay_rate", "linear.root_scan",
    "linear.scan_stability_margin", "linear.monotone_criterion", "linear.smallness_criterion",
    "models.builtin_profile", "models.builtin_interaction", "models.zero_interaction",
    "models.verify_analyticity", "models.verify_decay",
    "norms.gliding_norm", "norms.spatial_norm", "norms.analytic_norm",
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "note",
                 "child_s", "fft_calls", "fft_points", "fft_s", "raised")

    def __init__(self, name: str, parent: int, note):
        self.name = name
        self.layer = LAYER_OF[name.split(".", 1)[0]]
        self.parent = parent
        self.note = note
        self.start = self.end = self.child_s = self.fft_s = 0.0
        self.fft_calls = self.fft_points = 0
        self.raised = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _run_note(sig: inspect.Signature):
    def note(*args, **kwargs):
        a = sig.bind(*args, **kwargs)
        a.apply_defaults()
        p = a.arguments
        steps = int(round(p["t_end"] / p["dt"]))
        setup = repr((p["profile"].name, p["profile"].components, p["interaction"].kind, p["interaction"].cw,
                      p["perturbation"], p["nx"], p["nv"], p["vmax"], p["dt"]))
        return {"steps": steps, "observations": steps // p["observe_stride"] + 1,
                "t_end": steps * p["dt"], "setup": setup}
    return note


def _ft_note(eta, *args, **kwargs):
    return int(np.size(eta))


class Tracer:
    """Records spans of the wrapped calls of one traced pass at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, note=None, post=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, note(*args, **kwargs) if note else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            return post(result) if post else result

        return wrapper

    def _wrap_fft(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            t0 = perf_counter()
            result = fn(a, *args, **kwargs)
            dt = perf_counter() - t0
            if stack:
                span = spans[stack[-1]]
                span.fft_calls += 1
                span.fft_points += int(np.size(a))
                span.fft_s += dt
            return result

        return wrapper

    def _with_traced_ft(self, profile):
        return dataclasses.replace(profile, ft=self._wrap("models.ft", profile.ft, note=_ft_note))

    # --- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"landau_lab.{name}") for name in LAYER_OF}
        namespaces = [importlib.import_module("landau_lab"), *modules.values()]
        for modname, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                span_name = f"{modname}.{name}"
                note = _run_note(inspect.signature(fn)) if span_name == "sim.run" else None
                post = self._with_traced_ft if span_name == "models.builtin_profile" else None
                wrapper = self._wrap(span_name, fn, note=note, post=post)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, wrapper)
        log_cls = modules["sim"].ObservableLog
        for name in WRITERS:
            self._patch(log_cls, name, self._wrap(f"sim.ObservableLog.{name}", getattr(log_cls, name)))
        for name in FFT_FUNCS:
            self._patch(np.fft, name, self._wrap_fft(getattr(np.fft, name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- output ----------------------------------------------------------

    def dump(self) -> list[list]:
        """Spans as [name, start, end, parent, raised] rows."""
        return [[s.name, s.start, s.end, s.parent, s.raised] for s in self.spans]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the spans of one traced pass."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def dur(*names: str) -> float:
        return sum(s.duration for n in names for s in by_name[n])

    def self_time(name: str) -> float:
        return sum(s.self_s for s in by_name[name])

    def in_layer(layer: str):
        return [s for s in spans if s.layer == layer]

    runs = [s.note for s in by_name["sim.run"]]
    strang = by_name["sim.strang_step"]
    steps = sum(r["steps"] for r in runs) + len(strang)
    run_s = self_time("sim.run")
    strang_s = dur("sim.strang_step")
    sim_spans = in_layer("sim")
    # distinct simulated time: a rerun of the same setup repeats the steps of
    # the longest run so far
    longest: dict[str, float] = {}
    for r in runs:
        longest[r["setup"]] = max(longest.get(r["setup"], 0.0), r["t_end"])
    total_t = sum(r["t_end"] for r in runs)

    m = {
        "sim.run_s": run_s,
        "sim.steps": steps,
        "sim.observations": sum(r["observations"] for r in runs),
        "sim.us_per_step": 1e6 * (run_s + strang_s) / steps if steps else 0.0,
        "sim.ftilde_sample_s": dur("sim.ftilde_sample"),
        "sim.ftilde_sample_calls": len(by_name["sim.ftilde_sample"]),
        "sim.strang_step_s": strang_s,
        "sim.strang_step_calls": len(strang),
        "sim.init_state_s": dur("sim.init_state"),
        "sim.fft_calls": sum(s.fft_calls for s in sim_spans),
        "sim.fft_points": sum(s.fft_points for s in sim_spans),
        "sim.fft_s": sum(s.fft_s for s in sim_spans),
        "sim.useful_step_share": sum(longest.values()) / total_t if total_t else 1.0,
        "echoes.self_s": sum(s.self_s for s in in_layer("echoes")),
        "echoes.detect_peaks_s": dur("echoes.detect_peaks"),
        "linear.root_scan_s": dur("linear.root_scan"),
        "linear.solve_volterra_s": dur("linear.solve_volterra"),
        "linear.fit_decay_rate_s": dur("linear.fit_decay_rate"),
        "linear.scan_stability_margin_s": dur("linear.scan_stability_margin"),
        "linear.criteria_s": dur("linear.monotone_criterion", "linear.smallness_criterion"),
        "models.ft_points": sum(s.note for s in by_name["models.ft"]),
        "models.ft_s": dur("models.ft"),
        "models.verify_s": dur("models.verify_analyticity", "models.verify_decay"),
        "norms.gliding_norm_s": dur("norms.gliding_norm"),
        "norms.analytic_norm_s": dur("norms.analytic_norm"),
        "norms.fft_calls": sum(s.fft_calls for s in in_layer("norms")),
        "cli.self_s": self_time("cli.run_experiment"),
        "cli.write_s": dur("svgplot.render_plot", *(f"sim.ObservableLog.{w}" for w in WRITERS)),
        "config.load_s": dur("config.load_config"),
    }
    for name in CALL_COUNTS:
        m[f"{name}_calls"] = len(by_name[name])
    m["models.ft_calls"] = len(by_name["models.ft"])
    for layer in LAYERS:
        # an exception leaves a layer when the span it escapes has no parent
        # span in the same layer
        m[f"{layer}.raised"] = sum(
            1 for s in spans
            if s.raised and s.layer == layer and (s.parent < 0 or spans[s.parent].layer != layer)
        )
    return m
