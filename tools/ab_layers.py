"""In-process A/B timings of the step layers of two csflab source trees.

    python3 tools/ab_layers.py PARENT_SRC CHANGE_SRC [--out FILE]

PARENT_SRC and CHANGE_SRC are directories that hold a ``csflab`` package,
such as the ``src`` of two checkouts. Both are loaded into this one
interpreter, as the packages ``csflab_parent`` and ``csflab_change``;
csflab imports itself only relatively, so the two trees stay apart. The
same path on both sides is an A/A run, which shows the noise floor.

The layers, each at n = 256, 512, 1024 and 2048:

- ``compute_geometry``: ``curve.compute_geometry`` on the helix preset,
  with its curvature read, so that a tree which computes the curvature on
  first read times the same work; checked field by field over its
  ``CurveGeometry``;
- ``cyclic_solve``: ``tridiag.solve_cyclic_tridiagonal`` on the system
  that ``flow._backward_euler`` builds for one semi-implicit helix step,
  with its 3 columns; each side solves the system its own
  ``_backward_euler`` builds, whatever its arguments, the right-hand side
  last;
- ``open_solve``: ``tridiag.solve_tridiagonal`` on the system it builds
  for the helix vertices taken as an open curve, whose interior it solves;
- ``semi_implicit_step``: ``flow.step_semi_implicit`` on the helix preset;
- ``explicit_step``: ``flow.step_explicit`` on the perturbed-sphere preset;
- ``geodesic_step``: ``sphere.step_geodesic_flow`` on the perturbed-sphere
  preset, rescaled to the unit sphere;
- ``remesh``: ``curve.resample_uniform`` of the helix preset to its own n;
- ``rescale``: ``sphere.rescale`` of the perturbed-sphere preset at t = 0;
- ``run_steps``: ``flow.run`` on the helix preset for 200 steps with the
  default scheme and remeshing and no periodic record row, checked on the
  last curve: the steps with their dt rule and stop test, and the two rows
  of the start and the end;
- ``ratio_minima``: ``chordarc.ratio_minima``, a closed record row, on the
  ellipse preset;
- ``min_pair_ratio``: ``chordarc.min_pair_ratio``, a periodic record row,
  on the helix preset;
- ``write_curve``: ``fileio.write_curve``, a snapshot, of the helix preset
  into a temporary directory, checked on the bytes of the file.

Each side builds its inputs with its own package. For each layer and n the
tool first checks that both sides give the same bits. A dataclass output is
compared on the public fields both sides have, and on its ``tangents``,
``curvature_vectors`` and ``scalar_curvature`` by name where it has them,
fields or not, so a geometry that gained or lost a field, or computes the
curvature on first read, still reads equal when every shared array is; the
fields only one side has are listed by name in the report. It then takes, on
each of 11 alternations, the best of 5 timings of 20 calls (one call for
``run_steps``) on each side,
the side that goes first switching each time. The JSON file
holds, per layer and n, both sides' median µs per call, the per-alternation
differences (change minus parent), their median and IQR, the bit check and
the unshared fields, with the machine facts. A table goes to stdout. Exit
status 1 when some layer's outputs differ. Pinning the process to one CPU
(``taskset -c 0``) narrows the spread.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import sys
import tempfile
import timeit
from pathlib import Path
from types import SimpleNamespace

import numpy as np

SIDES = ("parent", "change")
MODULES = ("chordarc", "curve", "fileio", "flow", "presets", "sphere", "tridiag")
LAYERS = (
    "compute_geometry", "cyclic_solve", "open_solve",
    "semi_implicit_step", "explicit_step", "geodesic_step", "remesh", "rescale",
    "run_steps", "ratio_minima", "min_pair_ratio", "write_curve",
)
# read by name from a geometry, as one computing them on demand has no such fields
CURVATURE = ("tangents", "curvature_vectors", "scalar_curvature")
RUN_STEPS = 200
SIZES = (256, 512, 1024, 2048)
ALTERNATIONS = 11
REPEAT = 5  # timings per side and alternation, best kept
NUMBER = 20  # calls per timing, but one for the run_steps layer, a whole run


def load_tree(src: Path, side: str) -> SimpleNamespace:
    """The csflab package under ``src``, imported as ``csflab_<side>``."""
    name = f"csflab_{side}"
    for loaded in [m for m in sys.modules if m == name or m.startswith(f"{name}.")]:
        del sys.modules[loaded]  # a tree loaded earlier under the same name
    root = src.resolve() / "csflab"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def layer_call(cs: SimpleNamespace, layer: str, n: int, path: Path):
    """A no-argument call of ``layer`` at size n, on inputs built by ``cs``.

    The steps take the time step of a run with the default settings: half
    the stable explicit step, or the sphere check's fixed rescaled step.
    ``run_steps`` returns the last curve of its run.
    The bare solves take the system that ``flow._backward_euler`` builds,
    caught by passing it a capturing function as its solvers. The record
    rows take the default exclusion band, and ``write_curve`` writes to
    ``path`` and returns it.
    """
    presets = cs.presets
    helix = presets.build_curve(presets.make_preset(presets.HELIX, n=n))
    sphere = presets.build_curve(presets.make_preset(presets.SPHERE_PERTURBED, n=n))
    if layer == "compute_geometry":
        def geometry():
            geom = cs.curve.compute_geometry(helix)
            geom.scalar_curvature  # computed on first read, or at once
            return geom

        return geometry
    if layer == "run_steps":
        config = cs.flow.FlowConfig(max_steps=RUN_STEPS, record_every=RUN_STEPS + 1)
        return lambda: cs.flow.run(helix, config).snapshots[-1][2]
    if layer == "ratio_minima":
        ellipse = presets.build_curve(presets.make_preset(presets.ELLIPSE, n=n))
        return lambda: cs.chordarc.ratio_minima(ellipse)
    if layer == "min_pair_ratio":
        return lambda: cs.chordarc.min_pair_ratio(helix)
    if layer == "write_curve":
        def write() -> Path:
            cs.fileio.write_curve(helix, path)
            return path

        return write
    steps = {"semi_implicit_step": (cs.flow.step_semi_implicit, helix),
             "explicit_step": (cs.flow.step_explicit, sphere)}
    if layer in steps:
        step, curve = steps[layer]
        state = cs.flow.make_state(curve)
        dt = cs.flow.stable_step(state.geometry, 0.5)
        return lambda: step(state, dt)
    if layer == "geodesic_step":
        state = cs.sphere.rescale(sphere, 0.0)
        return lambda: cs.sphere.step_geodesic_flow(state, cs.sphere.GEODESIC_DT)
    if layer == "remesh":
        return lambda: cs.curve.resample_uniform(helix, n)
    if layer == "rescale":
        return lambda: cs.sphere.rescale(sphere, 0.0)
    if layer == "open_solve":
        curve = cs.curve.SampledCurve(helix.points, cs.curve.OPEN)
        solve = cs.tridiag.solve_tridiagonal
    else:
        curve, solve = helix, cs.tridiag.solve_cyclic_tridiagonal
    geom = cs.curve.compute_geometry(curve)
    systems = []

    def capture(*system):
        systems.append(system)
        return np.zeros_like(system[-1])  # the right-hand side comes last

    cs.flow._backward_euler(curve, geom, cs.flow.stable_step(geom, 0.5), capture, capture)
    (system,) = systems
    return lambda: solve(*system)


def output_bits(result) -> dict:
    """The shapes and bytes of a layer's output, by field name: one entry per
    public field of a dataclass, such as the arrays of a geometry, and per
    curvature array it has; and one named ``output`` for a solution, a
    step's vertices, the minima of a record row or a written file."""
    if isinstance(result, Path):
        return {"output": result.read_bytes()}
    for name in ("curve", "curve_tilde"):
        if hasattr(result, name):
            result = getattr(result, name)
    if hasattr(result, "points"):  # a curve
        result = result.points
    if dataclasses.is_dataclass(result):
        names = [f.name for f in dataclasses.fields(result) if not f.name.startswith("_")]
        names += [name for name in CURVATURE if name not in names and hasattr(result, name)]
        return {name: _array_bits(getattr(result, name)) for name in names}
    return {"output": _array_bits(result)}


def _array_bits(value) -> tuple:
    value = np.asarray(value)
    return value.shape, value.tobytes()


def quartiles(values) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def compare(calls: dict, alternations: int, repeat: int, number: int) -> dict:
    """The bit check and the alternating timings of one layer at one n."""
    bits = {side: output_bits(call()) for side, call in calls.items()}
    shared = bits["parent"].keys() & bits["change"].keys()
    times = {side: [] for side in SIDES}
    for i in range(alternations):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            best = min(timeit.repeat(calls[side], repeat=repeat, number=number))
            times[side].append(1e6 * best / number)
    diffs = [c - p for p, c in zip(times["parent"], times["change"])]
    q1, median, q3 = quartiles(diffs)
    return {
        "bits_equal": bool(shared)
        and all(bits["parent"][f] == bits["change"][f] for f in shared),
        "unshared_fields": {side: sorted(bits[side].keys() - shared) for side in SIDES},
        **{f"{side}_us": quartiles(times[side])[1] for side in SIDES},
        "diff_us": median,
        "diff_iqr_us": q3 - q1,
        "diffs_us": diffs,
    }


def machine_facts() -> dict:
    """The CPUs, the platform and the versions the timings ran on."""
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        cpuinfo = []
    models = [line.split(":", 1)[1].strip() for line in cpuinfo
              if line.startswith("model name")]
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(affinity(0)) if affinity else None,
        "cpu_model": models[0] if models else "unknown",
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
    }


def measure(srcs: dict, sizes, alternations: int, repeat: int, number: int) -> dict:
    """The report on the trees ``srcs`` (side to src path), rows printed as they come."""
    trees = {side: load_tree(Path(src), side) for side, src in srcs.items()}
    layers = {}
    for layer in LAYERS:
        layers[layer] = {}
        for n in sizes:
            with tempfile.TemporaryDirectory() as tmp:
                calls = {side: layer_call(cs, layer, n, Path(tmp) / f"{side}.txt")
                         for side, cs in trees.items()}
                calls_per_timing = 1 if layer == "run_steps" else number
                result = compare(calls, alternations, repeat, calls_per_timing)
            layers[layer][str(n)] = result
            print(f"{layer:>18} n={n:<5} parent {result['parent_us']:9.1f} us  change "
                  f"{result['change_us']:9.1f} us  diff {result['diff_us']:+8.2f} "
                  f"(IQR {result['diff_iqr_us']:.2f})  bits "
                  f"{'equal' if result['bits_equal'] else 'DIFFER'}"
                  + "".join(f"  {side} only: {', '.join(fields)}"
                            for side, fields in result["unshared_fields"].items()
                            if fields))
    return {
        "sides": {side: str(Path(src).resolve()) for side, src in srcs.items()},
        "settings": {"n": list(sizes), "alternations": alternations,
                     "repeat": repeat, "number": number},
        "machine": machine_facts(),
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--out", type=Path, help="write the JSON here")
    args = parser.parse_args(argv)

    srcs = dict(zip(SIDES, (args.parent_src, args.change_src)))
    report = measure(srcs, SIZES, ALTERNATIONS, REPEAT, NUMBER)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    layers = report["layers"].values()
    return 0 if all(r["bits_equal"] for per_n in layers for r in per_n.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
