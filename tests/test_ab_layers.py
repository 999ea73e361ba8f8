"""``tools/ab_layers.py`` on tiny sizes, in this process: the shape of its
report and its bit check, never its timings."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_spec = importlib.util.spec_from_file_location("ab_layers", ROOT / "tools" / "ab_layers.py")
ab_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_layers)

LAYERS = {
    "compute_geometry", "cyclic_solve", "open_solve",
    "semi_implicit_step", "explicit_step", "geodesic_step", "remesh", "rescale",
    "run_steps", "ratio_minima", "min_pair_ratio", "write_curve",
}
FIELDS = {
    "bits_equal", "unshared_fields", "parent_us", "change_us", "diff_us",
    "diff_iqr_us", "diffs_us",
}


def measure(parent, change):
    return ab_layers.measure({"parent": parent, "change": change}, [64], 3, 1, 2)


def test_a_a_run_reports_every_layer_with_equal_bits():
    report = json.loads(json.dumps(measure(SRC, SRC)))
    assert set(report) == {"sides", "settings", "machine", "layers"}
    assert report["settings"] == {"n": [64], "alternations": 3, "repeat": 1, "number": 2}
    assert {"nproc", "cpu_model", "python", "numpy", "scipy"} <= set(report["machine"])
    assert set(report["layers"]) == LAYERS
    for per_n in report["layers"].values():
        assert set(per_n) == {"64"}
        result = per_n["64"]
        assert set(result) == FIELDS
        assert result["bits_equal"] is True
        assert result["unshared_fields"] == {"parent": [], "change": []}
        assert len(result["diffs_us"]) == 3


def test_a_changed_layer_reads_as_changed_bits(tmp_path):
    # a tree whose geodesic step takes another dt differs in that layer only
    shutil.copytree(SRC / "csflab", tmp_path / "src" / "csflab")
    sphere = tmp_path / "src" / "csflab" / "sphere.py"
    text = sphere.read_text()
    assert "GEODESIC_DT = 4e-4" in text
    sphere.write_text(text.replace("GEODESIC_DT = 4e-4", "GEODESIC_DT = 5e-4"))
    layers = measure(SRC, tmp_path / "src")["layers"]
    differ = {name for name, per_n in layers.items() if not per_n["64"]["bits_equal"]}
    assert differ == {"geodesic_step"}


def test_a_geometry_with_an_extra_field_keeps_equal_bits(tmp_path):
    # a tree whose CurveGeometry gained a field: the shared arrays decide
    shutil.copytree(SRC / "csflab", tmp_path / "src" / "csflab")
    curve = tmp_path / "src" / "csflab" / "curve.py"
    text = curve.read_text()
    last = "    _wrapped: np.ndarray = field(repr=False)\n"
    assert text.count(last) == 1
    curve.write_text(text.replace(last, last + "    extra: float = 0.0\n"))
    layers = measure(SRC, tmp_path / "src")["layers"]
    assert all(per_n["64"]["bits_equal"] for per_n in layers.values())
    unshared = {name: per_n["64"]["unshared_fields"] for name, per_n in layers.items()}
    assert unshared.pop("compute_geometry") == {"parent": [], "change": ["extra"]}
    assert all(u == {"parent": [], "change": []} for u in unshared.values())


def test_a_changed_curvature_reads_as_changed_bits(tmp_path):
    # the curvature a geometry computes on first read is in its bit check
    shutil.copytree(SRC / "csflab", tmp_path / "src" / "csflab")
    curve = tmp_path / "src" / "csflab" / "curve.py"
    text = curve.read_text()
    norm = "        scalar = row_norm(kvec)\n"
    assert text.count(norm) == 1
    curve.write_text(text.replace(norm, "        scalar = 2.0 * row_norm(kvec)\n"))
    layers = measure(SRC, tmp_path / "src")["layers"]
    differ = {name for name, per_n in layers.items() if not per_n["64"]["bits_equal"]}
    assert differ == {"compute_geometry"}
    assert layers["compute_geometry"]["64"]["unshared_fields"] == {"parent": [], "change": []}
