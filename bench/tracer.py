"""Span tracing at steinsurf's layer boundaries, from outside the package.

The tracer replaces, for the length of a traced pass, the names that one
layer looks up in another (``steinsurf.scenario.psh_certificate``,
``steinsurf.localgeo.sweeps.eigmin_arrays``, ...) with wrappers that
record a span: name, start, end, parent and pass.  Fields returned by
``model_field`` get their value/gradient/levi callables wrapped the same
way, which counts field evaluations point by point.

Spans live in flat arrays (a traced adaptive-local pass makes about a
million) and are written out at the end.  Each span also stores its self
time, its duration minus the time its child spans cover, and one work
count derived from the call's public inputs or outputs (grid points,
accepted flow steps, step records).  A wrapper's own bookkeeping after
the call counts toward neither the span nor its parent's self time.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import statistics
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import steinsurf.cli
import steinsurf.localgeo.scenes
import steinsurf.localgeo.sweeps
import steinsurf.scenario
from steinsurf.localgeo.geometry import Box4
from steinsurf.localgeo.patches import GRID_OFFSET_FRACTION

ROOT_SPAN = "cli.main"
_INVARIANT_CALLS = ("validate", "lai", "check_adjunction", "stein_condition", "verdict")
_FIELD_CALLS = ("localgeo.fields.value", "localgeo.fields.gradient", "localgeo.fields.levi")
_FD_HELPERS = ("localgeo.fields.fd_gradient", "localgeo.fields.fd_levi")


def _points(x) -> int:
    return getattr(x, "size", 1)


def _arguments(fn, args, kwargs) -> dict:
    """Every parameter of a call to ``fn``, defaults included, by name."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _grid_points(box: Box4, step: float) -> int:
    return math.prod(len(a) for a in box.axes(step))


def _cells(patch, step: float) -> int:
    """Grid cells locate_complex_points sweeps: nodes sit at
    lo + step * (k + GRID_OFFSET_FRACTION) <= hi, k < max(floor(width/step), 2)."""
    total = 0
    for rect in patch.domain:
        sides = []
        for lo, hi in ((rect.s0, rect.s1), (rect.t0, rect.t1)):
            count = max(int(math.floor((hi - lo) / step)), 2)
            nodes = (lo + step * (k + GRID_OFFSET_FRACTION) for k in range(count))
            sides.append(sum(1 for node in nodes if node <= hi))
        total += (sides[0] - 1) * (sides[1] - 1)
    return total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.points = array("q")
        self.pass_bounds: list[tuple[int, int]] = []
        self.counters: list[Counter] = []
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None, on_error=None):
        """Wrap ``fn`` in a span.  ``count(result, args, kwargs)`` gives the
        span's work count; ``on_error(exc)`` the count of a raising call."""
        nid = self._id(name)
        stack = self._stack
        name_arr, parent_arr, start_arr = self.name, self.parent, self.start
        end_arr, self_arr, points_arr = self.end, self.self_time, self.points

        def traced(*args, **kwargs):
            idx = len(name_arr)
            name_arr.append(nid)
            parent_arr.append(stack[-1][0] if stack else -1)
            end_arr.append(0.0)
            self_arr.append(0.0)
            points_arr.append(0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            start_arr.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                self._close(frame, t0, t1, on_error(exc) if on_error else 0)
                raise
            t1 = perf_counter()
            self._close(frame, t0, t1, count(result, args, kwargs) if count else 0)
            return result

        return traced

    def _close(self, frame: list, t0: float, t1: float, n: int) -> None:
        idx = frame[0]
        self.end[idx] = t1
        self.self_time[idx] = t1 - t0 - frame[1]
        self.points[idx] = n
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += perf_counter() - t0

    def bump(self, key: str, n: int) -> None:
        self.counters[-1][key] += n

    # -- installing --------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _field_factory(self, model_field):
        wrap = self.wrap

        def count_points(result, args, kwargs):
            return _points(args[0])

        def traced_model_field(*args, **kwargs):
            fld = model_field(*args, **kwargs)
            return dataclasses.replace(
                fld,
                value=wrap("localgeo.fields.value", fld.value, count_points),
                gradient=fld.gradient and wrap("localgeo.fields.gradient", fld.gradient,
                                               count_points),
                levi=fld.levi and wrap("localgeo.fields.levi", fld.levi, count_points),
            )

        return traced_model_field

    def begin_pass(self, main):
        """Install every wrapper and return the traced entry point."""
        sc = steinsurf.scenario
        sweeps = steinsurf.localgeo.sweeps
        scenes = steinsurf.localgeo.scenes
        wrap, patch, bump = self.wrap, self._patch, self.bump
        self.counters.append(Counter())
        self._pass_start = len(self.name)
        psh, exhaustion = sc.psh_certificate, sc.exhaustion_certificate
        locate = sc.locate_complex_points

        def loaded(result, args, kwargs):
            bump("scenario.tasks", len(result.tasks))
            return len(result.tasks)

        def psh_points(result, args, kwargs):
            a = _arguments(psh, args, kwargs)
            return _grid_points(a["box"], a["grid_step"])

        def exhaustion_points(result, args, kwargs):
            bump("scenes.masked", result.witnesses[1].value)
            a = _arguments(exhaustion, args, kwargs)
            # exhaustion_certificate sweeps the unit box when given none.
            return _grid_points(a["box"] or Box4.symmetric(1.0), a["grid_step"])

        def located(result, args, kwargs):
            a = _arguments(locate, args, kwargs)
            bump("patches.located", len(result))
            bump("patches.cells", _cells(a["patch"], a["grid_step"]))
            return len(result)

        patch(steinsurf.cli, "render", wrap("cli.render", steinsurf.cli.render))
        patch(sc, "load_scenario", wrap("scenario.load", sc.load_scenario, loaded))
        patch(sc, "run_tasks", wrap("scenario.dispatch", sc.run_tasks,
                                    lambda r, a, k: len(r.results)))
        for fn in _INVARIANT_CALLS:
            patch(sc, fn, wrap(f"invariants.{fn}", getattr(sc, fn), lambda r, a, k: 1))
        patch(sc, "plan_cp2", wrap("surgery.plan", sc.plan_cp2, lambda r, a, k: len(r.steps)))
        patch(sc, "replay_trace", wrap("surgery.replay", sc.replay_trace,
                                       lambda r, a, k: len(r[1]),
                                       lambda e: max(getattr(e, "position", 1) - 1, 0)))
        patch(sc, "psh_certificate", self._psh(psh, psh_points))
        patch(sc, "exhaustion_certificate", wrap("localgeo.scenes.exhaustion", exhaustion,
                                                 exhaustion_points))
        patch(sc, "locate_complex_points", wrap("localgeo.patches.locate", locate, located))
        patch(sc, "winding_index", wrap("localgeo.patches.winding", sc.winding_index))
        patch(sc, "min_abs_complex_det", wrap("localgeo.patches.min_det", sc.min_abs_complex_det))
        patch(sc, "flow_to_surface", wrap("localgeo.flow", sc.flow_to_surface,
                                          lambda r, a, k: len(r.trajectory) - 1))
        for module in (sc, scenes):
            patch(module, "model_field", self._field_factory(module.model_field))
        for module in (sweeps, scenes):
            patch(module, "eigmin_arrays", wrap("localgeo.geometry.eigmin", module.eigmin_arrays,
                                                lambda r, a, k: _points(a[0])))
        # fd_*_arrays(fn, x, y, u, v, h): the points are x's.
        patch(sweeps, "fd_gradient_arrays", wrap("localgeo.fields.fd_gradient",
                                                 sweeps.fd_gradient_arrays,
                                                 lambda r, a, k: _points(a[1])))
        patch(sweeps, "fd_levi_arrays", wrap("localgeo.fields.fd_levi", sweeps.fd_levi_arrays,
                                             lambda r, a, k: _points(a[1])))
        return wrap(ROOT_SPAN, main)

    def _psh(self, psh_certificate, count):
        closed = self.wrap("localgeo.sweeps.psh_closed", psh_certificate, count)
        fd = self.wrap("localgeo.sweeps.psh_fd", psh_certificate, count)

        def traced(fld, *args, **kwargs):
            return (closed if fld.has_jets else fd)(fld, *args, **kwargs)

        return traced

    def end_pass(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self.pass_bounds.append((self._pass_start, len(self.name)))

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        pass_id = np.zeros(len(self.name), dtype=np.int32)
        for p, (lo, hi) in enumerate(self.pass_bounds):
            pass_id[lo:hi] = p
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "self_time": np.array(self.self_time, dtype=np.float64),
            "points": np.array(self.points, dtype=np.int64),
            "pass_id": pass_id,
        }

    def pass_metrics(self, p: int) -> dict:
        """Per-layer metrics of traced pass ``p``."""
        lo, hi = self.pass_bounds[p]
        name = np.array(self.name[lo:hi], dtype=np.int32)
        parent = np.array(self.parent[lo:hi], dtype=np.int32)
        points = np.array(self.points[lo:hi], dtype=np.int64)
        duration = np.array(self.end[lo:hi]) - np.array(self.start[lo:hi])
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        incl = np.bincount(name, weights=duration, minlength=n_names)
        own = np.bincount(name, weights=np.array(self.self_time[lo:hi]), minlength=n_names)
        pts = np.bincount(name, weights=points, minlength=n_names)
        # A pass's spans nest inside its root, so parents index into the pass.
        parent_name = np.where(parent >= 0, name[np.maximum(parent - lo, 0)], -1)
        c = self.counters[p]

        def ids(prefix):
            return [i for i, s in enumerate(self.names)
                    if s == prefix or s.startswith(prefix + ".")]

        def total(arr, prefix):
            return float(sum(arr[i] for i in ids(prefix)))

        def count(arr, prefix):
            return int(round(total(arr, prefix)))

        def named(names):
            return np.isin(name, [self._ids[s] for s in names if s in self._ids])

        def ratio(num, den):
            return float(num) / den if den else 0.0

        fd_points = total(pts, "localgeo.sweeps.psh_fd")
        parent_ids = [self._ids[s] for s in _FD_HELPERS if s in self._ids]
        fd_evals = float(points[named(["localgeo.fields.value"])
                                & np.isin(parent_name, parent_ids)].sum())
        scalar = int(np.count_nonzero(named(_FIELD_CALLS) & (points == 1)))
        flow_ids = [self._ids[s] for s in ["localgeo.flow"] if s in self._ids]
        attempted = int(np.count_nonzero(named(["localgeo.fields.gradient"])
                                         & np.isin(parent_name, flow_ids))) // 4
        accepted = total(pts, "localgeo.flow")
        invariant_calls = total(calls, "invariants")
        surgery_self = total(own, "surgery")
        step_records = total(pts, "surgery")
        closed_points = total(pts, "localgeo.sweeps.psh_closed")
        scene_points = total(pts, "localgeo.scenes")
        cells = c["patches.cells"]
        return {
            "cli.render_s": total(incl, "cli.render"),
            "scenario.load_s": total(incl, "scenario.load"),
            "scenario.dispatch_self_s": total(own, "scenario.dispatch"),
            "scenario.tasks": c["scenario.tasks"],
            "invariants.calls": int(invariant_calls),
            "invariants.self_s": total(own, "invariants"),
            "invariants.calls_per_s": ratio(invariant_calls, total(own, "invariants")),
            "surgery.plan_calls": count(calls, "surgery.plan"),
            "surgery.plan_self_s": total(own, "surgery.plan"),
            "surgery.replay_self_s": total(own, "surgery.replay"),
            "surgery.step_records": int(step_records),
            "surgery.steps_per_s": ratio(step_records, surgery_self),
            "localgeo.sweeps.grid_points": int(closed_points + fd_points),
            "localgeo.sweeps.closed_points_per_s":
                ratio(closed_points, total(incl, "localgeo.sweeps.psh_closed")),
            "localgeo.sweeps.fd_points_per_s":
                ratio(fd_points, total(incl, "localgeo.sweeps.psh_fd")),
            "localgeo.sweeps.self_s": total(own, "localgeo.sweeps"),
            "localgeo.fields.value_points": count(pts, "localgeo.fields.value"),
            "localgeo.fields.evals_per_fd_point": ratio(fd_evals, fd_points),
            "localgeo.fields.self_s": total(own, "localgeo.fields"),
            "localgeo.fields.scalar_calls": scalar,
            "localgeo.geometry.eigmin_points": count(pts, "localgeo.geometry"),
            "localgeo.geometry.self_s": total(own, "localgeo.geometry"),
            "localgeo.scenes.grid_points": int(scene_points),
            "localgeo.scenes.masked_points": c["scenes.masked"],
            "localgeo.scenes.mask_ratio": ratio(c["scenes.masked"], scene_points),
            "localgeo.scenes.points_per_s": ratio(scene_points, total(incl, "localgeo.scenes")),
            "localgeo.scenes.self_s": total(own, "localgeo.scenes"),
            "localgeo.patches.cells": cells,
            "localgeo.patches.cells_per_s": ratio(cells, total(incl, "localgeo.patches.locate")),
            "localgeo.patches.located_points": c["patches.located"],
            "localgeo.patches.self_s": total(own, "localgeo.patches"),
            "localgeo.flow.starts": count(calls, "localgeo.flow"),
            "localgeo.flow.steps_accepted": int(accepted),
            "localgeo.flow.steps_attempted": attempted,
            "localgeo.flow.accept_ratio": ratio(accepted, attempted),
            "localgeo.flow.steps_per_s": ratio(attempted, total(incl, "localgeo.flow")),
            "localgeo.flow.self_s": total(own, "localgeo.flow"),
            "trace.unattributed_s": total(own, ROOT_SPAN),
        }


def median_metrics(per_pass: list[dict]) -> dict:
    """Median over traced passes; counts, equal in every pass, stay integers."""
    out = {}
    for k in per_pass[0]:
        values = [m[k] for m in per_pass]
        median = statistics.median_low if isinstance(values[0], int) else statistics.median
        out[k] = median(values)
    return out
