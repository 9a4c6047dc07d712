"""Span tracing of hypcurv's layers from outside the package.

``Tracer.installed()`` replaces each public function of every layer module (the
names in its ``__all__``), the per-point methods listed in ``METHODS`` and the CLI
command callbacks with a wrapper that records a span: calls and self time, which is
the span's duration minus the time of the spans it caused. A function is replaced
in every hypcurv module that holds it, so calls through ``from .x import f`` names
are caught too. Leaving the context restores the originals.

Per-value helpers such as ``reportio.format_float`` are not wrapped: a span would
cost more than the call, and their time stays with the caller (the CLI's CSV
formatting shows in ``cli.self_s``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("heightfield", "gridfn", "curvature", "inequalities", "rigidity",
          "asymptotics", "plaplace", "reportio")
#: helpers called once per value, left unwrapped (see the module docstring)
UNWRAPPED = {"reportio.format_float"}
#: (layer, class, method, span name): per-point work that lives on classes
METHODS = (
    ("heightfield", "HeightField", "jet", "heightfield.jet"),
    ("heightfield", "SampledGridField", "jet", "heightfield.sampled_jet"),
    ("heightfield", "HeightField", "sample_points", "heightfield.sample_points"),
    ("heightfield", "HeightField", "value_array", "heightfield.value_array"),
    ("heightfield", "HeightField", "height_array", "heightfield.height_array"),
    ("heightfield", "Horosphere", "value_array", "heightfield.value_array"),
    ("heightfield", "GeodesicSphereCap", "value_array", "heightfield.value_array"),
    ("heightfield", "EquidistantCone", "value_array", "heightfield.value_array"),
    ("heightfield", "TiltedPlane", "value_array", "heightfield.value_array"),
)


def _grid_nodes(counts, result, tracer):
    nodes = 1
    for d in result.dims:
        nodes *= d
    counts["heightfield.grid_nodes"] += nodes


def _spectrum_in_scan(counts, result, tracer):
    if tracer.active["inequalities.scan_field"]:
        counts["scan.spectra"] += 1


def _scan_points(counts, result, tracer):
    counts["scan.points"] += len(result)


def _components(counts, result, tracer):
    counts["asymptotics.components"] += sum(result.counts)


def _iterations(counts, result, tracer):
    counts["plaplace.iterations"] += result.iterations


#: span name -> hook(counts, result, tracer) run after each call
COUNT_HOOKS = {
    "heightfield.sample_height_grid": _grid_nodes,
    "curvature.shape_spectrum": _spectrum_in_scan,
    "inequalities.scan_field": _scan_points,
    "asymptotics.recession_report": _components,
    "plaplace.solve_p_harmonic": _iterations,
}


class Tracer:
    """Calls and self time per span name, plus counts taken from results."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.active = Counter()
        self._child = []

    def _wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._child.append(0.0)
            self.active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.active[name] -= 1
                self.self_s[name] += dt - self._child.pop()
                self.calls[name] += 1
                if self._child:
                    self._child[-1] += dt
            if hook is not None:
                hook(self.counts, result, self)
            return result

        return span

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced callable for the duration of the block."""
        undo = []
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("hypcurv.") and m is not None]
        for layer in LAYERS:
            mod = importlib.import_module(f"hypcurv.{layer}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                name = f"{layer}.{attr}"
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or name in UNWRAPPED):
                    continue
                wrapped = self._wrap(name, fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            undo.append((holder, key, fn))
                            setattr(holder, key, wrapped)
        for layer, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(f"hypcurv.{layer}"), cls_name, None)
            fn = vars(cls).get(method) if cls is not None else None
            if inspect.isfunction(fn):
                undo.append((cls, method, fn))
                setattr(cls, method, self._wrap(name, fn))
        cli = importlib.import_module("hypcurv.cli")
        for cmd_name, cmd in cli.main.commands.items():
            undo.append((cmd, "callback", cmd.callback))
            cmd.callback = self._wrap(f"cli.{cmd_name}", cmd.callback)
        try:
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    # -- derived per-layer metrics --------------------------------------------------
    def _sum_self(self, *names):
        return sum(self.self_s[n] for n in names)

    def layer_metrics(self) -> dict:
        """Per-layer figures of everything this tracer recorded."""
        it = self.counts["plaplace.iterations"]
        solve_s = self.self_s["plaplace.solve_p_harmonic"]
        points = self.counts["scan.points"]
        out = {
            "heightfield.jet_s": self.self_s["heightfield.jet"],
            "heightfield.jet_calls": self.calls["heightfield.jet"],
            "heightfield.sampled_jet_s": self.self_s["heightfield.sampled_jet"],
            "heightfield.sampled_jet_calls": self.calls["heightfield.sampled_jet"],
            "heightfield.grid_sample_s": self._sum_self(
                "heightfield.sample_height_grid", "heightfield.height_array",
                "heightfield.value_array"),
            "heightfield.grid_nodes": self.counts["heightfield.grid_nodes"],
            "heightfield.sample_points_s": self.self_s["heightfield.sample_points"],
            "gridfn.load_s": self.self_s["gridfn.load_grid_function"],
            "gridfn.save_s": self.self_s["gridfn.save_grid_function"],
            "curvature.forms_calls": self.calls["curvature.fundamental_forms"],
            "curvature.spectrum_calls": self.calls["curvature.shape_spectrum"],
            "curvature.spectrum_s": self.self_s["curvature.shape_spectrum"],
            "curvature.ricci_s": self._sum_self(
                "curvature.ricci_coordinate", "curvature.ricci_from_shape",
                "curvature.ricci_eigenvalues"),
            "curvature.spectra_per_point": (self.counts["scan.spectra"] / points
                                            if points else 0.0),
            "curvature.fd_residual_s": self._sum_self(
                "curvature.codazzi_residual", "curvature.gauss_residual",
                "curvature.christoffel_fd"),
            "inequalities.scan_s": self.self_s["inequalities.scan_field"],
            "inequalities.regime_s": self.self_s["inequalities.point_regime_report"],
            "inequalities.frame_calls": self.calls["inequalities.adapted_frame"],
            "rigidity.constancy_s": self.self_s["rigidity.constancy_scan"],
            "asymptotics.recession_s": self.self_s["asymptotics.recession_report"],
            "asymptotics.components": self.counts["asymptotics.components"],
            "plaplace.solve_s": solve_s,
            "plaplace.iterations": it,
            "plaplace.s_per_iteration": solve_s / it if it else 0.0,
            "plaplace.tighten_s": self.self_s["plaplace.tighten_boundary"],
            "reportio.dumps_s": self.self_s["reportio.dumps"],
        }
        for layer in LAYERS + ("cli",):
            out[f"{layer}.self_s"] = sum(v for k, v in self.self_s.items()
                                         if k.startswith(layer + "."))
        return out
