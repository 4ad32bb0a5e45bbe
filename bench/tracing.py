"""Span tracing of transasym's public functions, from outside the package.

``Tracer.install`` replaces each listed function by a wrapper in every
``transasym`` module that holds a reference to it, so the package's
internal calls (``run_validation`` calling ``hunt_singularity`` calling
``integrate_path``) go through the wrappers too.  ``remove`` puts the
originals back.

A span records name, start, end and parent; its self time is its
duration minus the time covered by its child spans and by the ``field``
calls made directly inside it.  ``NormalSystem.field`` is counted and
timed in aggregate only: one pole survey makes about 300k calls.
"""

from __future__ import annotations

import statistics
import sys
import time

SPANNED = {
    "series": ("compose_germ_series", "series_field_solve_linear"),
    "expansion": ("build_expansion", "formal_power_series", "eval_two_scale", "gevrey_fit"),
    "singular": ("radius_estimate", "predict_array", "continue_f0"),
    "validate": ("run_validation", "hunt_singularity", "integrate_path",
                 "detect_singularity", "extraction_ladder", "extract_C"),
}


class Tracer:
    """Spans and field counters of one traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.field_calls = 0
        self.field_s = 0.0
        self._stack: list[dict] = []
        self._undo: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = {"id": len(spans), "name": name,
                   "parent": stack[-1]["id"] if stack else None,
                   "start": time.perf_counter(), "ok": False, "child_s": 0.0}
            spans.append(rec)
            stack.append(rec)
            traj = None
            try:
                result = fn(*args, **kwargs)
                rec["ok"] = True
                traj = result
                return result
            except Exception as err:
                rec["error"] = type(err).__name__
                traj = getattr(err, "trajectory", None)
                raise
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
                duration = rec["end"] - rec["start"]
                rec["self_s"] = duration - rec.pop("child_s")
                if stack:
                    stack[-1]["child_s"] += duration
                stats = getattr(traj, "stats", None)
                if name == "validate.integrate_path" and stats:
                    rec["steps"] = int(stats["n_steps"])
                    rec["rhs"] = int(stats["n_rhs"])

        return wrapper

    def _field(self, fn):
        stack = self._stack

        def field(system, x, y):
            t0 = time.perf_counter()
            try:
                return fn(system, x, y)
            finally:
                dt = time.perf_counter() - t0
                self.field_calls += 1
                self.field_s += dt
                if stack:
                    stack[-1]["child_s"] += dt

        return field

    def install(self, ts) -> None:
        """Wrap the listed functions of the imported package ``ts``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "transasym" or name.startswith("transasym."))]
        for layer, names in SPANNED.items():
            home = getattr(ts, layer)
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._span(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        cls = ts.systems.NormalSystem
        self._undo.append((cls, "field", cls.field))
        cls.field = self._field(cls.field)

    def remove(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    # -- per-layer metrics -------------------------------------------------

    def counts(self) -> dict:
        """Work counts of the pass; they repeat exactly for the same inputs."""
        sp = self.spans
        by_id = {s["id"]: s for s in sp}
        legs = [s for s in sp if s["name"] == "validate.integrate_path"]
        hunts = [s for s in sp if s["name"] == "validate.hunt_singularity"]
        approach, homing, refine = [], [], []
        seen_hunt = set()
        for leg in legs:
            parent = by_id.get(leg["parent"])
            pname = parent["name"] if parent else None
            if pname == "validate.hunt_singularity":
                (homing if parent["id"] in seen_hunt else approach).append(leg)
                seen_hunt.add(parent["id"])
            elif pname == "validate.detect_singularity":
                refine.append(leg)
        steps = sum(s.get("steps", 0) for s in legs)
        rhs = sum(s.get("rhs", 0) for s in legs)
        return {
            "systems.field.calls": self.field_calls,
            "validate.integrate_path.calls": len(legs),
            "validate.integrate_path.steps": steps,
            "validate.integrate_path.rhs": rhs,
            "validate.integrate_path.steps_per_rhs": steps / rhs if rhs else 0.0,
            "validate.hunt.approach_rhs": sum(s.get("rhs", 0) for s in approach),
            "validate.hunt.homing_rhs": sum(s.get("rhs", 0) for s in homing),
            "validate.hunt.homing_legs": len(homing),
            "validate.detect.refine_rhs": sum(s.get("rhs", 0) for s in refine),
            "validate.hunt.observed_per_attempt":
                sum(s["ok"] for s in hunts) / len(hunts) if hunts else 0.0,
            "expansion.eval_two_scale.calls": self._count("expansion.eval_two_scale"),
            "series.compose_germ_series.calls": self._count("series.compose_germ_series"),
        }

    def timings(self) -> dict:
        """Self times, medians of span durations and the cost of a field call."""
        out = {f"{name}.self_s": self._self_s(name) for name in (
            "validate.integrate_path", "validate.detect_singularity",
            "validate.extract_C", "expansion.build_expansion",
            "expansion.formal_power_series", "expansion.eval_two_scale",
            "expansion.gevrey_fit", "series.compose_germ_series",
            "series.series_field_solve_linear", "singular.radius_estimate",
            "singular.predict_array", "singular.continue_f0")}
        out["validate.hunt_singularity.p50_s"] = self._p50("validate.hunt_singularity")
        out["validate.extraction_ladder.p50_s"] = self._p50("validate.extraction_ladder")
        out["systems.field.us_per_call"] = (
            1e6 * self.field_s / self.field_calls if self.field_calls else 0.0)
        return out

    def _count(self, name):
        return sum(1 for s in self.spans if s["name"] == name)

    def _self_s(self, name):
        return sum(s["self_s"] for s in self.spans if s["name"] == name)

    def _p50(self, name):
        d = [s["end"] - s["start"] for s in self.spans if s["name"] == name]
        return statistics.median(d) if d else 0.0
