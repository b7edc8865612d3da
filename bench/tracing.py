"""Span recorder that times planehunt's layers from outside the package.

The benchmark child process replaces public functions at the module
attribute their caller looks them up through (for example
`planehunt.engine.first_contact_time`, which the engine calls) with
wrappers that record one span per call: name, start, end and parent.
Generator functions get one span per item drawn, because their work
happens at `next()`, not at creation.  Spans stay in flat in-memory
arrays until the command has finished; self time is a span's duration
minus the time covered by its child spans.

Work counts are computed here from the arguments and results the wrappers
see, never read from counters inside the program.  A target attribute
that does not exist (a later change may delete it) is reported as absent
and its metrics read 0.
"""

import functools
import importlib
import os
import time
from array import array
from collections import Counter

import numpy as np

# (span name, kind, module, attribute path).  kind "call" records a span
# per call, "items" a span per generator item, "count" only counts calls.
TARGETS = (
    ("experiments", "call", "planehunt.cli", "sweep_static"),
    ("experiments", "call", "planehunt.cli", "sweep_dynamic"),
    ("experiments.write_rows_csv", "call", "planehunt.cli", "write_rows_csv"),
    ("trajectory.prefix_polyline", "call", "planehunt.cli", "prefix_polyline"),
    ("target.adversarial_static_placement", "call", "planehunt.cli", "adversarial_static_placement"),
    ("coverage.tube_area", "call", "planehunt.cli", "tube_area"),
    ("engine.simulate", "call", "planehunt.experiments", "simulate"),
    ("experiments.sample_target", "call", "planehunt.experiments", "sample_target"),
    ("searcher.predict_dynamic", "call", "planehunt.experiments", "predict_dynamic"),
    ("searcher.dynamic_q", "call", "planehunt.searcher", "dynamic_q"),
    ("trajectory.full_schedule", "items", "planehunt.searcher", "full_schedule"),
    ("trajectory.full_schedule", "items", "planehunt.trajectory", "full_schedule"),
    ("trajectory.pi_arrays", "call", "planehunt.engine", "pi_arrays"),
    ("geometry.first_contact_time", "call", "planehunt.engine", "first_contact_time"),
    ("target.constant_velocity_pieces", "items", "planehunt.target", "TargetStrategy.constant_velocity_pieces"),
    ("target.position", "call", "planehunt.target", "TargetStrategy.position"),
    ("engine.path.inert", "count", "planehunt.engine", "_simulate_inert"),
    ("engine.path.event_driven", "count", "planehunt.engine", "_simulate_event_driven"),
)

ROOT_SPAN = "cli.run"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Flat span arrays plus the per-call observations for work counts."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.present = set()
        self.missing = []
        self.pi_blocks = set()
        self.legs = 0
        self.contact_hits = 0
        self.csv_paths = []
        self.prefix_vertices = 0
        self.placements = []
        self.tubes = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ----------------------------------------------------------

    def span_call(self, name, fn, after=None):
        nid = self._id(name)
        add_name, add_parent = self.name_id.append, self.parent.append
        start, end, stack = self.start, self.end, self.stack
        add_start, add_end = start.append, end.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def span_items(self, name, fn):
        nid = self._id(name)
        add_name, add_parent = self.name_id.append, self.parent.append
        start, end, stack = self.start, self.end, self.stack
        add_start, add_end = start.append, end.append
        clock = time.perf_counter
        counts = self.counts
        calls_key, items_key = name + ".calls", name + ".items"

        def items(gen):
            try:
                while True:
                    idx = len(start)
                    add_name(nid)
                    add_parent(stack[-1])
                    add_end(0.0)
                    stack.append(idx)
                    add_start(clock())
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end[idx] = clock()
                        stack.pop()
                    counts[items_key] += 1
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            return items(fn(*args, **kwargs))

        return wrapper

    def count_calls(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- observations for work counts -------------------------------------

    def _after(self, name):
        return {
            "engine.simulate": self._on_simulate,
            "trajectory.pi_arrays": self._on_pi_arrays,
            "geometry.first_contact_time": self._on_contact,
            "experiments.write_rows_csv": self._on_csv,
            "trajectory.prefix_polyline": self._on_prefix,
            "target.adversarial_static_placement": self._on_placement,
            "coverage.tube_area": self._on_tube,
        }.get(name)

    def _on_simulate(self, args, kwargs, result):
        self.legs += getattr(result, "legs_processed", 0)

    def _on_pi_arrays(self, args, kwargs, result):
        self.pi_blocks.add((_arg(args, kwargs, 0, "k"), _arg(args, kwargs, 1, "j")))

    def _on_contact(self, args, kwargs, result):
        if result is not None:
            self.contact_hits += 1

    def _on_csv(self, args, kwargs, result):
        self.csv_paths.append(_arg(args, kwargs, 1, "path"))

    def _on_prefix(self, args, kwargs, result):
        self.prefix_vertices += len(result)

    def _on_placement(self, args, kwargs, result):
        self.placements.append(
            (_arg(args, kwargs, 0, "polyline"), _arg(args, kwargs, 1, "i"),
             _arg(args, kwargs, 2, "grid_res", 256))
        )

    def _on_tube(self, args, kwargs, result):
        self.tubes.append(
            (_arg(args, kwargs, 0, "polyline"), _arg(args, kwargs, 1, "r"),
             _arg(args, kwargs, 2, "grid_res", 256))
        )

    # -- install and report ------------------------------------------------

    def install(self):
        """Wrap every target that exists; remember the ones that do not."""
        for name, kind, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self.present.add(name)
            if kind == "call":
                wrapped = self.span_call(name, fn, self._after(name))
            elif kind == "items":
                wrapped = self.span_items(name, fn)
            else:
                wrapped = self.count_calls(name, fn)
            setattr(owner, attr, wrapped)

    def run_root(self, fn, *args):
        """Call fn inside the root span; returns (result, host seconds)."""
        root = self.span_call(ROOT_SPAN, fn)
        self.present.add(ROOT_SPAN)
        t0 = time.perf_counter()
        result = root(*args)
        return result, time.perf_counter() - t0

    def layer_times(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        ids = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        return {
            name: {"spans": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def work_counts(self):
        """Work counts derived from the observed arguments and results."""
        return {
            "engine.legs": self.legs,
            "trajectory.pi_arrays.legs_built": sum(8 * (k + 1) for k, _ in self.pi_blocks),
            "geometry.first_contact_time.hits": self.contact_hits,
            "experiments.write_rows_csv.bytes": sum(os.path.getsize(p) for p in self.csv_paths),
            "trajectory.prefix_polyline.vertices": self.prefix_vertices,
            "target.adversarial_static_placement.candidate_segment_pairs": sum(
                candidate_segment_pairs(*p) for p in self.placements
            ),
            "coverage.tube_area.grid_cells": sum(tube_window_cells(*t) for t in self.tubes),
            **self.counts,
        }

    def save(self, path):
        n = len(self.start)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            start=np.frombuffer(self.start, count=n),
            end=np.frombuffer(self.end, count=n),
        )


def candidate_segment_pairs(polyline, i, grid_res):
    """In-ring grid points times prefix segments, summed over rings 1..i.

    The witness search tests every candidate grid point of ring j (the
    Chebyshev annulus 2^(j-2) < |p - start| <= 2^(j-1), or the full square
    for j = 1) against every segment of the prefix.
    """
    polyline = np.asarray(polyline, dtype=np.float64)
    segments = max(len(polyline) - 1, 1)
    offsets = (np.arange(grid_res) + 0.5) / grid_res * 2.0 - 1.0
    cheb = np.maximum(np.abs(offsets)[:, None], np.abs(offsets)[None, :])
    total = 0
    for j in range(1, i + 1):
        half = 2.0 ** (j - 1)
        scaled = cheb * half
        inside = scaled <= half
        if j > 1:
            inside &= scaled > 2.0 ** (j - 2)
        total += int(inside.sum()) * segments
    return total


def tube_window_cells(polyline, r, grid_res):
    """Grid cells inside each segment's r-inflated bounding box, summed.

    The grid is grid_res x grid_res cell centres over the r-inflated
    bounding box of the whole polyline; a per-segment rasterizer examines
    exactly the cells of each segment's own inflated box.
    """
    polyline = np.asarray(polyline, dtype=np.float64)
    if len(polyline) == 1:
        polyline = np.vstack([polyline, polyline])
    lo = polyline.min(axis=0) - r
    hi = polyline.max(axis=0) + r
    step = (hi - lo) / grid_res
    centres = [lo[axis] + (np.arange(grid_res) + 0.5) * step[axis] for axis in (0, 1)]
    a, b = polyline[:-1], polyline[1:]
    sides = []
    for axis in (0, 1):
        first = np.searchsorted(centres[axis], np.minimum(a[:, axis], b[:, axis]) - r, side="left")
        last = np.searchsorted(centres[axis], np.maximum(a[:, axis], b[:, axis]) + r, side="right")
        sides.append(np.clip(last, 0, grid_res) - np.clip(first, 0, grid_res))
    cells = np.where((sides[0] > 0) & (sides[1] > 0), sides[0] * sides[1], 0)
    return int(cells.sum())
