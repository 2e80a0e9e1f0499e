"""In-memory spans recorded around calls into pointcell's modules.

The library is not instrumented.  Its modules import each other's functions
by name (``from .voronoi import region_keys_many``), so a call is traced by
replacing the name where the *caller* looks it up, for the duration of one
traced operation, and restoring it afterwards.  ``BINDINGS`` lists every
replacement: the module whose namespace is patched, the attribute, the span
name (``<layer module>.<function>``) and an optional function that turns a
call's arguments and result into work counts.

A span holds its name, start, end, parent span and the id of the operation
it belongs to.  Self time is a span's duration minus the durations of its
direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "child_s")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts = None
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Records spans while installed; all spans of one operation share an id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unique_keys: dict[int, set] = {}
        self._stack: list[Span] = []
        self._op = None

    @contextmanager
    def operation(self, op_id):
        """Root span ``op`` for one operation; spans opened inside inherit op_id."""
        self._op = op_id
        root = self._open("op")
        try:
            yield
        finally:
            self._close(root)
            self._op = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._op)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def wrap(self, func, name, counter=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
                if counter is not None:
                    span.counts = counter(self, args, kwargs, result)
            finally:
                self._close(span)
            return result

        return traced

    @contextmanager
    def installed(self, modules):
        """Patch every binding in ``BINDINGS``; restore them on exit."""
        saved = []
        try:
            for mod_name, attr, name, counter in BINDINGS:
                mod = modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(original, name, counter))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


# -- work counters ----------------------------------------------------------


def _volume_counts(tracer, args, kwargs, result):
    mesh, material = args[0], args[1]
    nmodes = (mesh.degree + 1) ** 2 * material.ncomp
    points = result.stats["volume_points"]
    # Dense contraction (G w)^T G for two gradient components: 2 products of
    # 2 * points * nmodes^2 flops each.  Computed from sizes, not measured.
    return {"volume_points": points, "cut_cells": result.stats["cut_cells"],
            "gflop": 4.0 * points * nmodes ** 2 / 1e9}


def _solve_counts(tracer, args, kwargs, result):
    system = args[0]
    return {"ndof": system.ndof, "nnz": system.K.nnz}


def _penalty_points(tracer, args, kwargs, result):
    return {"points": result[2]["penalty_points"]}


def _identify_counts(tracer, args, kwargs, result):
    tracer.unique_keys.setdefault(tracer._op, set()).update(result)
    return {"keys": len(result)}


def _rows(tracer, args, kwargs, result):
    return {"rows": len(result)}


def _leaves(tracer, args, kwargs, result):
    return {"leaves": result.n_leaves}


def _first_points(tracer, args, kwargs, result):
    return {"points": result[0].shape[0]}


def _basis_points(tracer, args, kwargs, result):
    values = result[0] if isinstance(result, tuple) else result
    return {"points": values.shape[0]}


def _evaluate_points(tracer, args, kwargs, result):
    return {"points": len(args[2])}


def _file_bytes(tracer, args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _segment_count(tracer, args, kwargs, result):
    return {"segments": len(result)}


# (module patched, attribute, span name, counter).  A function bound in
# several modules gets one entry per binding under the same span name.
BINDINGS = [
    ("geometry", "PointCloud", "geometry.PointCloud", None),
    ("benchmarks", "PointCloud", "geometry.PointCloud", None),
    ("penalty", "pca_distance_many", "geometry.pca_distance_many", _rows),
    ("penalty", "region_keys_many", "voronoi.region_keys_many", _rows),
    ("fcm", "build_alpha_tree", "quadrature.build_alpha_tree", _leaves),
    ("penalty", "build_diffuse_tree", "quadrature.build_diffuse_tree", _leaves),
    ("fcm", "tree_quadrature_points", "quadrature.tree_quadrature_points",
     _first_points),
    ("penalty", "tree_quadrature_points", "quadrature.tree_quadrature_points",
     _first_points),
    ("basis", "eval_basis", "basis.eval_basis", _basis_points),
    ("basis", "eval_values", "basis.eval_values", _basis_points),
    ("benchmarks", "assemble_volume", "fcm.assemble_volume", _volume_counts),
    ("benchmarks", "solve", "fcm.solve", _solve_counts),
    ("fcm", "evaluate", "fcm.evaluate", _evaluate_points),
    ("export", "evaluate", "fcm.evaluate", _evaluate_points),
    ("benchmarks", "apply_strong_zero", "fcm.apply_strong_zero", None),
    ("benchmarks", "assemble_sharp_penalty", "penalty.assemble_sharp_penalty",
     _penalty_points),
    ("benchmarks", "assemble_diffuse_penalty",
     "penalty.assemble_diffuse_penalty", _penalty_points),
    ("benchmarks", "assemble_reference_penalty",
     "penalty.assemble_reference_penalty", _penalty_points),
    ("penalty", "sharp_penalty_cell", "penalty.sharp_penalty_cell", None),
    ("penalty", "identify_contributing_regions",
     "penalty.identify_contributing_regions", _identify_counts),
    ("penalty", "bisect_plane_segments", "penalty.bisect_plane_segments", None),
    ("benchmarks", "collect_sharp_segments", "penalty.collect_sharp_segments",
     _segment_count),
    ("penalty", "collect_sharp_segments", "penalty.collect_sharp_segments",
     _segment_count),
    ("benchmarks", "build_annular_problem", "benchmarks.build_annular_problem",
     None),
    ("benchmarks", "run_beta_study", "benchmarks.run_beta_study", None),
    ("benchmarks", "build_membrane_problem", "benchmarks.build_membrane_problem",
     None),
    ("export", "write_field_vtk", "export.write_field_vtk", _file_bytes),
    ("export", "write_segments_csv", "export.write_segments_csv", _file_bytes),
    ("export", "write_study_csv", "export.write_study_csv", _file_bytes),
]

SPAN_NAMES = {name for _, _, name, _ in BINDINGS}


# -- aggregation ------------------------------------------------------------


def totals(spans):
    """Per span name: calls, s, self_s and summed counts over the given spans."""
    out: dict[str, dict] = {}
    for span in spans:
        agg = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += span.duration
        agg["self_s"] += span.self_s
        for key, value in (span.counts or {}).items():
            agg[key] = agg.get(key, 0) + value
    return out


def layer_values(tracer, setup_op, op_ids):
    """Flat ``<span>.<field>`` values: the setup operation plus the median op.

    Each field is the setup total plus the (lower) median over ``op_ids`` of
    the per-operation total, so a layer number describes one set-up and one
    typical operation.  Layers a workload never calls read 0.
    """
    by_op: dict = {}
    for span in tracer.spans:
        by_op.setdefault(span.op, []).append(span)
    setup = totals(by_op.get(setup_op, []))
    per_op = [totals(by_op.get(op, [])) for op in op_ids]
    fields = {(name, field) for t in [setup, *per_op] for name, agg in t.items()
              for field in agg}
    values = {}
    for name, field in fields:
        base = setup.get(name, {}).get(field, 0)
        ops = [t.get(name, {}).get(field, 0) for t in per_op]
        values[f"{name}.{field}"] = base + statistics.median_low(ops)
    reuse = []
    for op, t in zip(op_ids, per_op):
        keys = t.get("penalty.identify_contributing_regions", {}).get("keys", 0)
        unique = len(tracer.unique_keys.get(op, ()))
        reuse.append(keys / unique if unique else 0.0)
    values["penalty.region_reuse"] = statistics.median_low(reuse)
    roots = [s for s in tracer.spans if s.name == "op" and s.op in op_ids]
    shares = [s.child_s / s.duration for s in roots]
    values["trace.top_level_share"] = statistics.median_low(shares)
    values["trace.spans"] = statistics.median_low(
        len(by_op.get(op, [])) for op in op_ids)
    return values


def span_cost(calls=20_000):
    """Seconds one traced call adds over a plain call, timed on a no-op."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    t1 = time.perf_counter()
    for _ in range(calls):
        noop()
    t2 = time.perf_counter()
    return ((t1 - t0) - (t2 - t1)) / calls


def metric_value(values, name):
    """Value of a listed per-layer metric; an uncalled layer reads 0."""
    if name in values:
        return values[name]
    prefix = name.rsplit(".", 1)[0]
    if prefix not in SPAN_NAMES:
        raise KeyError(f"per-layer metric {name!r} names no traced span")
    return 0
