"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
from harness import Patches, SpanRecorder, run_pass, tail  # noqa: E402


# -- inputs --------------------------------------------------------------------------


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    import workloads

    a = workloads.make_inputs(workload, 7)
    b = workloads.make_inputs(workload, 7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a != workloads.make_inputs(workload, 8)


def test_pointwise_points_are_a_function_of_the_seed():
    import workloads

    inputs = workloads.make_inputs("pointwise", 5)
    first = workloads.pointwise_points(inputs, *workloads.pointwise_objects(inputs["params"]))
    again = workloads.pointwise_points(inputs, *workloads.pointwise_objects(inputs["params"]))
    assert first == again
    pts, zs = first
    assert all(len(v) == workloads.N_POINTS for v in pts.values())
    assert {k: len(v) for k, v in zs.items()} == workloads.N_MAP_POINTS


def test_spheres_inputs_keep_the_critical_radius_in_one_octave():
    import workloads

    for seed in range(20):
        for s in workloads.make_inputs("spheres", seed)["searches"]:
            assert 1.0 < workloads.lambda_bar_closed_form(s, s["x"]) < 2.0


# -- statistics ----------------------------------------------------------------------


def _shuffled(n: int) -> list[float]:
    vals = [float(v) for v in range(1, n + 1)]
    random.Random(n).shuffle(vals)
    return vals


def test_tail_needs_eleven_samples():
    assert tail([]) is None
    assert tail(_shuffled(10)) is None
    q, v = tail(_shuffled(11))
    assert v == 1.0 and q == pytest.approx(100.0 / 11.0)


@pytest.mark.parametrize("n, q, value", [
    (19, 100.0 * 9 / 19, 9.0),
    (20, 50.0, 10.0),
    (99, 50.0, 50.0),
    (100, 90.0, 90.0),
    (999, 90.0, 900.0),
    (1000, 99.0, 990.0),
    (10000, 99.0, 9900.0),
])
def test_tail_takes_the_highest_rung_with_ten_samples_beyond(n, q, value):
    got_q, got = tail(_shuffled(n))
    assert got_q == pytest.approx(q)
    assert got == value
    assert sum(1 for v in range(1, n + 1) if v > got) >= 10


def test_median_rejects_nan():
    assert harness.median([3.0, 1.0, 2.0]) == 2.0
    assert harness.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        harness.median([0.0, math.nan])


# -- spans ---------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    rec = SpanRecorder()
    root = rec.add("cli.main", 0.0, 10.0)
    a = rec.add("suites.a", 1.0, 4.0, parent=root)
    rec.add("invariance.x", 2.0, 3.0, parent=a)
    rec.add("suites.b", 5.0, 9.0, parent=root)
    assert rec.self_times() == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert rec.self_time_by_layer() == pytest.approx(
        {"cli": 3.0, "suites": 6.0, "invariance": 1.0})


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    rec = SpanRecorder()
    root = rec.add("a.root", 0.0, 10.0)
    rec.add("b.c1", 2.0, 6.0, parent=root)
    rec.add("b.c2", 4.0, 7.0, parent=root)
    rec.add("b.c3", 9.0, 12.0, parent=root)
    assert rec.self_times()[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_nests_by_call_order():
    rec = SpanRecorder()
    rec.current_pass = 3
    outer = rec.wrap(lambda: inner(), "x.outer")
    inner = rec.wrap(lambda: 1, "y.inner")
    assert outer() == 1
    assert list(rec.parent) == [-1, 0]
    assert list(rec.pass_id) == [3, 3]
    assert rec.start[0] <= rec.start[1] <= rec.end[1] <= rec.end[0]
    assert sum(rec.self_times()) == pytest.approx(rec.end[0] - rec.start[0])


# -- patching and running --------------------------------------------------------------


def test_missing_public_name_fails_instead_of_counting_zero():
    import layers

    with pytest.raises(LookupError):
        harness.resolve("conformal2d.spheres.no_such_function")
    with pytest.raises(LookupError):
        harness.resolve("conformal2d.geometry.NoSuchClass.__init__")
    with Patches() as patches, pytest.raises(LookupError):
        patches.replace("conformal2d.radial.no_such_root_finder", lambda f: f)
    for dotted in [*layers.COUNTED.values(), layers.VALID_POINTS, *layers.SPANNED]:
        harness.resolve(dotted)


def test_patches_are_restored():
    import conformal2d.spheres as spheres

    original = spheres.slack_stats
    counter = harness.Counter()
    with Patches() as patches:
        patches.replace("conformal2d.spheres.slack_stats", counter.counting("calls"))
        assert spheres.slack_stats is not original
    assert spheres.slack_stats is original
    assert counter == {"calls": 0}


def test_run_pass_counts_raises_nan_and_wrong_outputs_as_failures():
    import workloads

    def boom():
        raise ValueError("no")

    close_to_one = (lambda v, outs: abs(v - 1.0) <= 1e-9)
    ops = [
        workloads.Op("t.ok", lambda: 1.0, close_to_one),
        workloads.Op("t.nan", lambda: math.nan, close_to_one),
        workloads.Op("t.raise", boom, close_to_one),
        workloads.Op("t.wrong", lambda: 2.0, close_to_one),
        workloads.Op("t.truthy", lambda: 1.0, lambda v, outs: 1),
        workloads.Op("t.badcheck", lambda: 1.0, lambda v, outs: v.missing),
    ]
    lat = []
    res = run_pass(ops, lat)
    assert res.attempted == 6 and res.failed == 5 and len(lat) == 6


# -- BENCHMARK.json and the command line ---------------------------------------


def test_benchmark_json_lists_the_metrics_the_runs_report():
    import layers
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == layers.PER_LAYER


def test_run_without_the_package_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
