"""Outside-in span tracer for the csflab layers.

The tracer never edits csflab. It replaces a function at the place its
caller looks it up (a module global or a dispatch-table entry) with a
wrapper that records one span per call: name, parent span, start and end.
The same function reached through two call sites is two sites here, e.g.
``flow.compute_geometry`` and ``sphere.compute_geometry``.

Spans stay in memory; ``Tracer.write_spans`` writes them once the op is
over. Counts that a later change can cite exactly (pair cells, bytes
written, bytes per step) are added by per-site hooks and labelled
"computed" because they follow from array sizes and arguments, not from
a timer.

A site whose module attribute or table key is gone raises at install time,
so a rename in csflab fails the traced run instead of reporting zeros.
"""

from __future__ import annotations

import importlib
import json
import os
from time import perf_counter


def _written(counters, args, kwargs, result):
    counters["fileio.files_written"] += 1
    counters["fileio.bytes_written"] += os.path.getsize(args[1])


def _read(counters, args, kwargs, result):
    counters["fileio.bytes_read"] += os.path.getsize(args[0])


def _state_bytes(counters, args, kwargs, result):
    # bytes of the fresh arrays one step materialises: new vertices plus
    # the geometry cached with them
    geom = result.geometry
    counters["flow.step_bytes"] = result.curve.points.nbytes + sum(
        a.nbytes
        for a in (
            geom.tangents,
            geom.curvature_vectors,
            geom.scalar_curvature,
            geom.ds,
            geom.segment_lengths,
        )
    )


def _minima_pairs(counters, args, kwargs, result):
    # ratio_minima fills one n x n matrix per metric
    n = args[0].n
    counters["chordarc.pairs"] += 2 * n * n


def _min_pair_pairs(counters, args, kwargs, result):
    curve = args[0]
    band = args[2] if len(args) > 2 else kwargs.get("exclusion_band", 2)
    n = curve.n
    # the periodic path scans gaps band+1..n of n pairs each; the closed
    # path fills the full n x n matrix
    periodic = curve.topology == "periodic"
    counters["chordarc.pairs"] += n * (n - band) if periodic else n * n


def _field_bytes(counters, args, kwargs, result):
    counters["chordarc.field_bytes"] += result.values.nbytes


# (module, attribute or (table attribute, key), span name, count hook)
SITES = (
    ("csflab.flow", "run", "flow.run", None),
    ("csflab.flow", ("_STEPPERS", "semi_implicit"), "flow.step", _state_bytes),
    ("csflab.flow", ("_STEPPERS", "explicit"), "flow.explicit_step", None),
    ("csflab.flow", "_remeshed", "flow.remesh", None),
    ("csflab.flow", "snapshot_diagnostics", "flow.record", None),
    ("csflab.flow", "compute_geometry", "curve.geometry", None),
    ("csflab.flow", "solve_cyclic_tridiagonal", "tridiag.solve", None),
    ("csflab.flow", "solve_tridiagonal", "tridiag.solve", None),
    ("csflab.chordarc", "ratio_minima", "chordarc.reduction", _minima_pairs),
    ("csflab.chordarc", "min_pair_ratio", "chordarc.reduction", _min_pair_pairs),
    ("csflab.cli", "main", "cli.main", None),
    ("csflab.cli", "ratio_field", "chordarc.field", _field_bytes),
    ("csflab.cli", "find_local_minima", "chordarc.local_minima", None),
    ("csflab.cli", "pair_diagnostics", "chordarc.pair_diag", None),
    ("csflab.cli", "write_ratio_field", "fileio.write", _written),
    ("csflab.cli", "write_minima_csv", "fileio.write", _written),
    ("csflab.sphere", "consistency_profile", "sphere.profile", None),
    ("csflab.sphere", "run_geodesic_flow", "sphere.geodesic", None),
    ("csflab.sphere", "step_geodesic_flow", "sphere.geodesic_step", None),
    ("csflab.sphere", "compute_geometry", "sphere.geometry", None),
    ("csflab.diagnostics", "emit_record", "diagnostics.emit", None),
    ("csflab.diagnostics", "analyze_directory", "diagnostics.analyze", None),
    ("csflab.diagnostics", "snapshot_diagnostics", "diagnostics.analyze_row", None),
    ("csflab.fileio", "write_run_csv", "fileio.write", _written),
    ("csflab.fileio", "write_run_json", "fileio.write", _written),
    ("csflab.fileio", "write_curve", "fileio.write", _written),
    ("csflab.fileio", "read_run_csv", "fileio.read", _read),
    ("csflab.fileio", "read_run_json", "fileio.read", _read),
    ("csflab.fileio", "read_curve", "fileio.read", _read),
    ("csflab.fileio", "read_ratio_field", "fileio.read", _read),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SITES))

COUNTERS = (
    "fileio.files_written",
    "fileio.bytes_written",
    "fileio.bytes_read",
    "flow.step_bytes",
    "chordarc.pairs",
    "chordarc.field_bytes",
)

# per-layer metrics derived from the spans, name -> how; their units are in
# BENCHMARK.json. how is ("count", span) | ("total", span) | ("self", span) |
# ("mean", span, scale) | ("counter", name) | ("per", counter, span) |
# ("time_per", span, counter, scale). op.py adds trace.wall_s and trace.spans.
LAYER_METRICS = {
    "flow.steps": ("count", "flow.step"),
    "flow.remeshes": ("count", "flow.remesh"),
    "flow.record_rows": ("count", "flow.record"),
    "flow.step_us": ("mean", "flow.step", 1e6),
    "flow.step_self_s": ("self", "flow.step"),
    "flow.remesh_s": ("total", "flow.remesh"),
    "flow.record_s": ("total", "flow.record"),
    "flow.step_bytes": ("counter", "flow.step_bytes"),
    "flow.explicit_steps": ("count", "flow.explicit_step"),
    "flow.explicit_step_us": ("mean", "flow.explicit_step", 1e6),
    "curve.geometry_calls": ("count", "curve.geometry"),
    "curve.geometry_us": ("mean", "curve.geometry", 1e6),
    "curve.geometry_s": ("total", "curve.geometry"),
    "tridiag.solves": ("count", "tridiag.solve"),
    "tridiag.solve_us": ("mean", "tridiag.solve", 1e6),
    "tridiag.solve_s": ("total", "tridiag.solve"),
    "chordarc.reductions": ("count", "chordarc.reduction"),
    "chordarc.reduction_ms": ("mean", "chordarc.reduction", 1e3),
    "chordarc.pairs": ("counter", "chordarc.pairs"),
    "chordarc.pairs_per_reduction": ("per", "chordarc.pairs", "chordarc.reduction"),
    "chordarc.pair_ns": ("time_per", "chordarc.reduction", "chordarc.pairs", 1e9),
    "chordarc.field_s": ("total", "chordarc.field"),
    "chordarc.field_bytes": ("counter", "chordarc.field_bytes"),
    "chordarc.local_minima_s": ("total", "chordarc.local_minima"),
    "chordarc.pair_diag_s": ("total", "chordarc.pair_diag"),
    "sphere.geodesic_steps": ("count", "sphere.geodesic_step"),
    "sphere.geodesic_step_us": ("mean", "sphere.geodesic_step", 1e6),
    "sphere.geometry_calls": ("count", "sphere.geometry"),
    "sphere.geodesic_s": ("total", "sphere.geodesic"),
    "fileio.files_written": ("counter", "fileio.files_written"),
    "fileio.bytes_written": ("counter", "fileio.bytes_written"),
    "fileio.write_s": ("total", "fileio.write"),
    "fileio.bytes_read": ("counter", "fileio.bytes_read"),
    "fileio.read_s": ("total", "fileio.read"),
    "diagnostics.emit_s": ("total", "diagnostics.emit"),
    "diagnostics.analyze_s": ("total", "diagnostics.analyze"),
    "diagnostics.analyze_rows": ("count", "diagnostics.analyze_row"),
}

# metrics that come from array sizes and arguments, not from a clock
COMPUTED = frozenset(
    name for name, how in LAYER_METRICS.items() if how[0] in ("counter", "per")
)


class Tracer:
    """Records nested spans around every site in ``SITES``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, hook in SITES:
            module = importlib.import_module(module_name)
            if isinstance(attr, tuple):
                table, key = getattr(module, attr[0]), attr[1]
                original = table[key]
                table[key] = self._wrap(name, original, hook)
                self._undo.append((table.__setitem__, key, original))
            else:
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(name, original, hook))
                self._undo.append((lambda k, v, m=module: setattr(m, k, v), attr, original))

    def uninstall(self) -> None:
        while self._undo:
            restore, key, original = self._undo.pop()
            restore(key, original)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg = {n: {"count": 0, "total": 0.0, "self": 0.0} for n in SPAN_NAMES}
        for (name, _, start, end), inner in zip(self.spans, child):
            entry = agg[name]
            entry["count"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - inner
        return agg

    def layer_metrics(self) -> dict[str, float]:
        agg = self.aggregate()
        out = {}
        for metric, how in LAYER_METRICS.items():
            kind = how[0]
            if kind in ("count", "total", "self"):
                value = agg[how[1]][kind]
            elif kind == "mean":
                entry = agg[how[1]]
                value = entry["total"] / entry["count"] * how[2] if entry["count"] else 0.0
            elif kind == "counter":
                value = self.counters[how[1]]
            elif kind == "per":
                calls = agg[how[2]]["count"]
                value = self.counters[how[1]] / calls if calls else 0
            else:  # time_per
                work = self.counters[how[2]]
                value = agg[how[1]]["total"] / work * how[3] if work else 0.0
            out[metric] = value
        return out

    def write_spans(self, path) -> None:
        names = list(dict.fromkeys(s[0] for s in self.spans))
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "fields": ["name", "parent", "start_s", "end_s"],
            "spans": [[index[n], p, s, e] for n, p, s, e in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
