"""Tests of the benchmark itself: the output gate, the tracer, the metric names.

    python3 -m pytest -q bench/test_gate.py
"""

from __future__ import annotations

import json
import os
import sys
import subprocess
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import TABLE1, Step, all_steps, pin_problems, steps  # noqa: E402

CONSTANTS = Step("constants", ("constants",) + ("--threads", "2"))


def _expected() -> dict:
    with open(run.EXPECTED) as f:
        return json.load(f)


def _child(trace: bool) -> dict:
    return run.run_child([CONSTANTS], trace, run.child_env(), time.perf_counter() + 60)


def test_expected_covers_every_step_and_agrees_with_the_pins():
    expected = _expected()
    for step in all_steps():
        assert step.key in expected, step.key
        assert pin_problems(step, expected[step.key]) == [], step.key


def test_gate_passes_real_output_traced_and_untraced():
    expected = _expected()
    for trace in (False, True):
        rep = _child(trace)
        assert "crash" not in rep, rep.get("crash")
        assert run.rep_failures(rep, [CONSTANTS], expected) == []


def test_corrupted_expected_output_counts_as_a_failure():
    expected = _expected()
    rep = _child(False)
    good = expected[CONSTANTS.key]
    corrupted = dict(expected, **{CONSTANTS.key: good.replace("0.5", "0.6", 1)})
    assert corrupted[CONSTANTS.key] != good
    assert run.rep_failures(rep, [CONSTANTS], corrupted) == [
        "constants: stdout differs from expected.json"]


def test_nonzero_exit_and_crash_count_as_failures():
    expected = _expected()
    rep = _child(False)
    rep["steps"][0]["rc"] = 1
    assert run.rep_failures(rep, [CONSTANTS], expected) == ["constants: exit 1"]
    crashed = {"crash": "exit 1: boom", "elapsed": 0.1}
    assert len(run.rep_failures(crashed, steps("census-mc"), expected)) == 7


def test_pins_catch_a_wrong_table_row():
    step = steps("table-1e7")[0]
    good = _expected()[step.key]
    vp, vs, vc = TABLE1[10**6]
    bad = good.replace(f"1000000,{vp},", f"1000000,{vp + 1},")
    assert bad != good
    assert pin_problems(step, bad) == [f"row 1000000: {(vp + 1, vs, vc)} != {(vp, vs, vc)}"]


def test_self_time_excludes_wrapped_callees():
    tracer = Tracer()
    inner = tracer.timed(lambda: time.sleep(0.02), "inner", hist=True)
    outer = tracer.timed(lambda: inner(), "outer", span=True)
    outer()
    rep = tracer.report()["aggregates"]
    assert rep["inner"]["self_s"] >= 0.02
    assert rep["outer"]["total_s"] >= 0.02
    assert rep["outer"]["self_s"] < 0.005
    one_call_us = rep["inner"]["total_s"] * 1e6  # histogram midpoints are within 6.25%
    assert 0.9 * one_call_us < rep["inner"]["p50_us"] < 1.1 * one_call_us


def test_benchmark_json_names_what_run_py_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    empty = {"aggregates": {}, "counters": {}, "normality_cache": {"hits": 0, "misses": 0}}
    layer = run.layer_metrics(empty, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in layer.items()}


def test_a_merged_phi_sigma_scan_is_traced_as_both():
    script = (
        "import json, sys\n"
        "from child import install_tracing\n"
        "from tracer import Tracer\n"
        "from phisigma import sieve\n"
        "t = Tracer()\n"
        "install_tracing(t)\n"
        "sieve.segment_map(2, 1002, 'both')\n"
        "print(json.dumps(t.report()))\n")
    env = dict(run.child_env(), PYTHONPATH=os.pathsep.join([run.SRC, run.BENCH]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=run.ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    rep = json.loads(proc.stdout)
    layer = run.layer_metrics(rep | {"normality_cache": {"hits": 0, "misses": 0}}, 1.0, 1.0)
    assert layer["sieve.segment_scan.both.calls"] == (1, "count")
    assert layer["sieve.segment_scan.both.ints"] == (1000, "count")
    assert layer["sieve.segment_scan.phi.calls"][0] == 0
