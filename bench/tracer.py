"""Per-layer tracing from outside the program.

The tracer wraps each listed public function of gaussmink and records one
span per call: name, parent span, start and end.  Modules that bind a
function with ``from .x import f`` hold their own reference, so the wrapper
is installed under every name in every gaussmink module that refers to the
original object.  Classes are traced through ``__init__`` (construction and
validation), methods on the class itself.

Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# metric prefix -> (module, attribute paths traced under that prefix)
LAYERS = {
    "geometry.wulff_shape": ("geometry", ("wulff_shape", "wulff_shape_with_indices")),
    "geometry.SupportPolygon": ("geometry", ("SupportPolygon.__init__",)),
    "geometry.hemisphere_margin": ("geometry", ("hemisphere_margin",)),
    "geometry.DiscreteMeasure.is_even": ("geometry", ("DiscreteMeasure.is_even",)),
    "geometry.SupportField": ("geometry", ("SupportField.__init__",)),
    "geometry.support_profile": ("geometry", ("support_profile",)),
    "geometry.combine_bodies": ("geometry", ("combine_bodies",)),
    "geometry.body_hausdorff_distance": ("geometry", ("body_hausdorff_distance",)),
    "gaussian.gauss_volume_exact": ("gaussian", ("gauss_volume_exact",)),
    "gaussian.gauss_surface_polygon": ("gaussian", ("gauss_surface_polygon",)),
    "gaussian.lp_gauss_surface_polygon": ("gaussian", ("lp_gauss_surface_polygon",)),
    "gaussian.smooth_lp_density": ("gaussian", ("smooth_lp_density",)),
    "gaussian.field_gauss_volume": ("gaussian", ("field_gauss_volume",)),
    "gaussian.scale_to_gauss_volume": ("gaussian", ("scale_to_gauss_volume",)),
    "gaussian.std_normal_quantile": ("gaussian", ("std_normal_quantile",)),
    "gaussian.gauss_constants": ("gaussian", ("gauss_constants",)),
    "discrete.solve_constrained": ("discrete", ("solve_constrained",)),
    "discrete.recover_multiplier": ("discrete", ("recover_multiplier",)),
    "smooth.solve_homotopy": ("smooth", ("solve_homotopy",)),
    "smooth.newton_step": ("smooth", ("newton_step",)),
    "smooth.residual": ("smooth", ("residual",)),
    "smooth.linearized_guard": ("smooth", ("linearized_guard",)),
    "verify.run_suite": ("verify", ("run_suite",)),
    "verify.format_table": ("verify", ("format_table",)),
    "verify.check_variational_formula": ("verify", ("check_variational_formula",)),
    "verify.check_ehrhard": ("verify", ("check_ehrhard",)),
    "verify.check_log_concavity": ("verify", ("check_log_concavity",)),
    "verify.check_mixed_measure_inequality": ("verify", ("check_mixed_measure_inequality",)),
    "verify.check_isoperimetric": ("verify", ("check_isoperimetric",)),
    "verify.check_ball_bound": ("verify", ("check_ball_bound",)),
    "verify.check_uniqueness": ("verify", ("check_uniqueness",)),
    "families.random_polygon": ("families", ("random_polygon",)),
    "families.random_even_polygon": ("families", ("random_even_polygon",)),
    "serialize.solution_to_dict": ("serialize", ("solution_to_dict",)),
    "serialize.dumps_json": ("serialize", ("dumps_json",)),
    "serialize.report_text": ("serialize", ("report_text",)),
}

# counters read from solver results: name -> (unit, better)
COUNTERS = {
    "discrete.inner_iters": ("count", "lower"),
    "discrete.outer_rounds": ("count", "lower"),
    "discrete.accept_ratio": ("ratio", "higher"),
    "smooth.newton_step.failed": ("count", "lower"),
    "smooth.newton_iters": ("count", "lower"),
    "smooth.continuation_steps": ("count", "lower"),
    "smooth.accept_ratio": ("ratio", "higher"),
}


def metric_specs() -> list[dict]:
    """Every per-layer metric as listed in BENCHMARK.json, in order."""
    specs = []
    for name in LAYERS:
        specs.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        specs.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in COUNTERS.items():
        specs.append({"name": name, "unit": unit, "better": better})
    return specs


class Tracer:
    """Install with :meth:`install`, run the operations, read :meth:`metrics`."""

    def __init__(self):
        self.names = list(LAYERS)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters = dict.fromkeys(COUNTERS, 0)
        # spans, in the order they end
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("h")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []   # [span id, name index, child time]
        self._next_id = 0
        self._undo: list[tuple] = []
        # wulff_shape calls made inside discrete solves, for the accept ratio
        self._solve_idx = self.names.index("discrete.solve_constrained")
        self._solve_wulff = 0
        self._accepted_wulff = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for modname, _ in LAYERS.values():
            importlib.import_module(f"gaussmink.{modname}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "gaussmink" or name.startswith("gaussmink."))]
        for idx, (name, (modname, paths)) in enumerate(LAYERS.items()):
            mod = importlib.import_module(f"gaussmink.{modname}")
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name)
                    original = owner.__dict__[attr]
                    self._set(owner, attr, self._wrap(idx, name, original))
                    continue
                original = getattr(mod, attr)
                wrapper = self._wrap(idx, name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, idx: int, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        after = {
            "geometry.wulff_shape": self._after_wulff,
            "discrete.solve_constrained": self._after_discrete_solve,
            "smooth.newton_step": self._after_newton_step,
            "smooth.solve_homotopy": self._after_homotopy,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            frame = [span, idx, 0.0]
            before = self._solve_wulff
            stack.append(frame)
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                self.calls[idx] += 1
                self.self_s[idx] += duration - frame[2]
                self.span_id.append(span)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_name.append(idx)
                self.span_start.append(start)
                self.span_end.append(end)
                if after is not None:
                    after(result, error, before)

        return traced

    # -- counters -----------------------------------------------------------

    def _after_wulff(self, result, error, _before) -> None:
        if any(frame[1] == self._solve_idx for frame in self._stack):
            self._solve_wulff += 1

    def _after_discrete_solve(self, report, error, wulff_before) -> None:
        if report is not None:
            self.counters["discrete.inner_iters"] += report.iterations
            self.counters["discrete.outer_rounds"] += len(report.objective_trace) - 1
            self._accepted_wulff += self._solve_wulff - wulff_before
        elif getattr(error, "trace", None):
            self.counters["discrete.outer_rounds"] += len(error.trace) - 1

    def _after_newton_step(self, result, error, _before) -> None:
        if error is not None:
            self.counters["smooth.newton_step.failed"] += 1

    def _after_homotopy(self, report, error, _before) -> None:
        steps = report.homotopy_trace if report is not None else getattr(error, "trace", None)
        if steps:
            self.counters["smooth.continuation_steps"] += len(steps) - 1
            self.counters["smooth.newton_iters"] += sum(s.newton_iters for s in steps)

    # -- results ------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round of the workload."""
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = {"value": self.calls[idx] / rounds, "unit": "count"}
            out[f"{name}.self_s"] = {"value": self.self_s[idx] / rounds, "unit": "s"}
        for name, (unit, _) in COUNTERS.items():
            value = self.counters[name]
            if name == "discrete.accept_ratio":
                value = (self.counters["discrete.inner_iters"] / self._accepted_wulff
                         if self._accepted_wulff else 0.0)
            elif name == "smooth.accept_ratio":
                steps = self.calls[self.names.index("smooth.newton_step")]
                value = self.counters["smooth.newton_iters"] / steps if steps else 0.0
            else:
                value = value / rounds
            out[name] = {"value": value, "unit": unit}
        return out

    def self_time_total(self) -> float:
        return float(sum(self.self_s))

    def save(self, path: str) -> None:
        """Write every span, nested by parent id, as a NumPy archive."""
        np.savez(path, id=np.frombuffer(self.span_id, dtype=np.int64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 name=np.frombuffer(self.span_name, dtype=np.int16),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 names=np.array(self.names))
