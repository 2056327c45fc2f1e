"""The harness itself: spans, the traced child, BENCHMARK.json, bare checkouts."""

import json
import os
import shutil
import subprocess
import sys

import run
import spans
from conftest import BENCH, SRC

ROOT = os.path.dirname(BENCH)


def test_benchmark_json_lists_exactly_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.METRICS)
    assert [w["name"] for w in bench["workloads"]] == ["periods", "homology", "interpolate"]


def test_self_time_and_nested_inclusive_time():
    # cli.main [0, 10] > a [1, 5] > a [2, 4];  cli.main > b [6, 7]
    trace = {"spans": [["cli.main", -1, 0.0, 10.0, None],
                       ["x.a", 0, 1.0, 5.0, None],
                       ["x.a", 1, 2.0, 4.0, None],
                       ["y.b", 0, 6.0, 7.0, None]],
             "counts": {}, "missing": []}
    tree = spans.SpanTree(trace["spans"])
    assert tree.self_time(0) == 5.0
    assert tree.inclusive(lambda n: n == "x.a") == 4.0
    assert spans.layer_shares(trace) == {"cli": 0.5, "x": 0.4, "y": 0.1}


def test_missing_wrap_target_is_reported_not_raised():
    recorder = spans.Recorder()
    assert spans._replace("dpmirror.pathnum", "no_such_function", lambda f: f,
                          recorder, "pathnum.no_such_function") is None
    assert recorder.missing == ["pathnum.no_such_function"]
    trace = {"spans": [["cli.main", -1, 0.0, 1.0, None]], "counts": {},
             "missing": ["pathnum.all_roots", "interfam.sweep"],
             "imports": {"numpy": 0.1, "scipy.optimize": 0.2, "dpmirror.cli": 0.3}}
    metrics = spans.layer_metrics(trace)
    assert set(metrics) == {name for name, _ in spans.METRICS}
    assert metrics["pathnum.all_roots_calls"] is None
    assert metrics["interfam.sweep_accept_ratio"] is None
    assert metrics["pathnum.elliptic_integral_calls"] == 0


def test_traced_child_records_every_layer_it_crosses(tmp_path):
    calls = [["mirror", "--d", "3", "--order", "6"],
             ["cycles", "--d", "3", "--epsilon", "1/64"],
             ["junction", "--d", "3"]]
    trace_path = str(tmp_path / "trace.json")
    result = run.run_child(calls, str(tmp_path / "out"),
                           dict(os.environ, PYTHONPATH=SRC), trace_path)
    assert "error" not in result, result.get("error")
    assert result["codes"] == [0, 0, 0]
    assert all(not r["problems"] for r in run.check_pass(calls, result))
    with open(trace_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    assert trace["missing"] == []
    metrics = spans.layer_metrics(trace)
    assert metrics["exactpoly.laurent_mul_calls"] > 0
    assert metrics["exactpoly.laurent_terms_max"] > 0
    assert metrics["pathnum.continue_roots_calls"] == 9
    assert metrics["pathnum.elliptic_integral_calls"] >= 9  # plus the period lattice
    assert metrics["pathnum.continue_roots_steps"] > 9
    assert metrics["rootlattice.short_vectors_calls"] > 0
    assert metrics["intlin.calls"] > 0
    assert metrics["vancycles.epsilon_retries"] == 0
    assert 0 < metrics["cli.main_self_s"] < result["pass_s"]
    assert metrics["periods.classical_period_s"] <= result["pass_s"]
    assert metrics["interfam.sweep_s"] == 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "periods", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_factor_scales_to_the_reference_speed():
    reference = {name: ref for name, _, ref in run.CALIBRATION}
    slow = {name: 2 * ref for name, ref in reference.items()}
    assert abs(run.speed_factor(reference, reference) - 1) < 1e-12
    assert abs(run.speed_factor(slow, slow) - 0.5) < 1e-12
    result = {"setup_s": 1.0, "pass_s": 4.0}
    run.scale_to_reference(result, reference, slow)  # 1.5x the reference time
    assert abs(result["pass_s"] - 4.0 / 1.5) < 1e-12
    assert result["wall_pass_s"] == 4.0 and result["wall_setup_s"] == 1.0
    assert set(run.calibrate()) == set(reference)
