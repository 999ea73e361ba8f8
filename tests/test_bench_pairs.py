"""The bench-file summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def run(wall, rss, correct=True):
    return {"correct": correct, "attempted": 1, "failed": 0 if correct else 1,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_summary_of_fixed_runs():
    parent = [run(w, r) for w, r in zip([5, 1, 4, 2, 3], [72, 71, 72, 71.5, 72])]
    change = [run(w, r) for w, r in zip([5, 2, 3, 1, 4], [68, 68, 68.5, 68, 71.5])]
    out = bench_pairs.summarise({"field_io": {"parent": parent, "change": change}}, METRICS)
    entry = out["field_io"]
    assert list(entry) == ["parent", "change", "pairs", "all_correct"]
    wall = entry["parent"]["end_to_end"]["wall_s"]
    # exclusive quartiles of 1..5: positions 1.5 and 4.5
    assert wall == {"median": 3, "q1": 1.5, "q3": 4.5, "spread": 1.0,
                    "values": [5, 1, 4, 2, 3], "bound": 0.25}
    # the first pair ties and counts for neither side
    assert entry["pairs"]["wall_s"] == {
        "change_wins": 2, "pairs": 5, "median_change": 0.0,
        "median_gap_over_parent_iqr": 0.0,
    }
    rss = entry["pairs"]["peak_rss_mb"]
    assert rss["change_wins"] == 5 and rss["pairs"] == 5
    assert rss["median_change"] == pytest.approx(68 / 72 - 1)
    # parent quartiles 71.25 and 72: a 4 MB gap is 16/3 of that IQR
    assert rss["median_gap_over_parent_iqr"] == pytest.approx(4 / 0.75)
    assert entry["all_correct"]


def test_failed_and_incorrect_runs():
    parent = [run(2.0, 70.0), None, run(3.0, 70.0)]
    change = [run(1.0, 69.0), run(1.0, 69.0), run(2.5, 69.0, correct=False)]
    entry = bench_pairs.summarise({"w": {"parent": parent, "change": change}}, METRICS)["w"]
    # the failed parent run drops its pair and its value, not the others
    assert entry["parent"]["end_to_end"]["wall_s"]["values"] == [2.0, 3.0]
    assert entry["change"]["end_to_end"]["wall_s"]["values"] == [1.0, 1.0, 2.5]
    assert entry["pairs"]["wall_s"]["pairs"] == 2
    assert entry["pairs"]["wall_s"]["change_wins"] == 2
    assert not entry["all_correct"]
    # fewer than two runs have no quartiles
    one = bench_pairs.side_summary([4.0], 0.1)
    assert one == {"median": None, "q1": None, "q3": None, "spread": None,
                   "values": [4.0], "bound": 0.1}
    assert bench_pairs.side_summary([], 0.1)["median"] is None
