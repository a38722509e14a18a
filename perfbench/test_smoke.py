"""Tiny-size smoke test of the benchmark harness (no timing gate).

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, run.SRC)
import pmed.cli as cli  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _check_metrics(result, declared):
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 2
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_untraced(name, tmp_path):
    result = run.measure(cli, name, 3, 0.05, False, str(tmp_path), tiny=True)
    _check_metrics(result, BENCHMARK["end_to_end"])
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0.0
    assert result["wall_s_tail"]["samples"] == len(result["samples_s"])
    with open(result["config"]) as fh:
        assert json.load(fh) == workloads.generate(name, 3, tiny=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_traced(name, tmp_path):
    result = run.measure(cli, name, 3, 0.05, True, str(tmp_path), tiny=True)
    _check_metrics(result, BENCHMARK["per_layer"])
    assert cli.main.__module__ == "pmed.cli"  # instrumentation removed
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    command = workloads.WORKLOADS[name].command
    assert (metrics["solver.steps"] > 0) == (command != "verify-barriers")
    assert (metrics["barriers.samples"] > 0) == (command == "verify-barriers")
    assert (metrics["freeboundary.hausdorff_pairs"] > 0) == (command == "convergence")
    assert metrics["cli.bytes_written"] > 0


def test_benchmark_lists_the_workloads():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}


def test_seed_determines_config():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
        assert workloads.generate(name, 7) != workloads.generate(name, 8)


# (workload, file, text in it, replacement that breaks an invariant)
TAMPER = [
    ("simulate-2d-output", "mass.csv", "\n0.1,", "\n0.1,1"),
    ("converge-2d-fine", "summary.csv", "shell_ok,true", "shell_ok,false"),
    ("compare-1d-long", "compare.csv", "\ntrue,", "\nfalse,"),
    ("verify-barriers-2d", "residuals.csv", ",pass,", ",fail,"),
]


@pytest.mark.parametrize("name,file,old,new", TAMPER)
def test_checks_catch_broken_invariants(name, file, old, new, tmp_path):
    cfg = workloads.generate(name, 3, tiny=True)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([cfg["command"], "--config", str(cfg_path), "--out", str(out)]) == 0
    assert run.checks.invariants(str(out), cfg) == []
    path = out / file
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    assert run.checks.invariants(str(out), cfg) != []


def test_span_self_time():
    tracer = tracing.Tracer()
    inner = tracer.wrap("core.inner", lambda: sum(range(10000)))
    outer = tracer.wrap("cli.outer", lambda: [inner() for _ in range(3)])
    outer()
    spans = tracer.take()
    assert [s.parent for s in spans] == [None, 0, 0, 0]
    table = tracing.span_table(spans)
    assert table["core.inner"]["calls"] == 3
    child_total = table["core.inner"]["total_s"]
    assert table["cli.outer"]["self_s"] == pytest.approx(
        table["cli.outer"]["total_s"] - child_total)


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    t = run.tail(samples)
    assert t["value"] == 30.0 and t["percentile"] == 75.0 and t["samples"] == 40
    assert sum(s > t["value"] for s in samples) == run.TAIL_BEYOND


def test_exits_nonzero_without_program(tmp_path):
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare-1d-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
