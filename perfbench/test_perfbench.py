"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py

The workload tests spawn the real benchmark and take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def bench(*args, cwd=REPO):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_self_time_on_nested_tree():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("suites.run", 1.0, 4.0, 0),
        ("energy.e3", 2.0, 3.0, 1),
        ("energy.t_k", 5.0, 9.0, 0),
        ("energy.t_k", 8.0, 11.0, 0),  # overlaps its sibling and ends past the parent
        ("field.build", 6.0, 7.0, 3),
    ]
    assert tracer.self_times(spans) == [2.0, 2.0, 1.0, 3.0, 3.0, 1.0]
    summary = tracer.summarize(spans)
    assert summary["energy.t_k"] == [6.0, 2]
    assert summary["energy"] == [7.0, 3]
    assert summary["cli"] == [2.0, 1]


def test_tracer_records_parents_and_stops_when_inactive():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("energy.inner", lambda x: x + 1)
    outer = t.wrap("suites.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert t.spans() == [("suites.outer", 0.0, 3.0, -1), ("energy.inner", 1.0, 2.0, 0)]
    t.active = False
    assert outer(1) == 4
    assert len(t.spans()) == 2


def test_missing_function_reads_zero():
    it = {"layers": {"energy.e3": [1.5, 3], "energy": [2.0, 4]}}
    missing = set()
    wrapped = {"energy.e3"}
    assert run.layer_metric("energy.e3.self_s", it, 1, wrapped, missing) == 1.5
    assert run.layer_metric("energy.calls", it, 1, wrapped, missing) == 4
    assert run.layer_metric("energy.sum_counts.self_s", it, 1, wrapped, missing) == 0
    assert run.layer_metric("sets.calls", it, 1, wrapped, missing) == 0
    assert missing == {"energy.sum_counts", "sets"}


def test_traced_and_untraced_outputs_identical():
    res = result_of(bench("--workload", "sweep-small", "--seed", "3", "--seconds", "1",
                          "--trace", "1"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 2
    with open(os.path.join(REPO, ".perfbench", "report-sweep-small-seed3-trace1.json")) as fh:
        report = json.load(fh)
    # the traced invocation is gated against the untraced digest
    assert list(report["digests"]) == ["sweep --workers 1 seed=3000"]
    assert report["missing"] == []
    for binding in ("fplab.suites.build_field", "fplab.suites.random_set",
                    "fplab.energy.symmetric_interval", "fplab.charsums.symmetric_interval",
                    "fplab.cli.run_sweep"):
        assert binding in report["rebound"]
    assert report["dominant_measured"] == "geometry"


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_smoke(workload):
    res = result_of(bench("--workload", workload, "--seed", "2", "--seconds", "1",
                          "--trace", "0"))
    commands = len(run.WORKLOADS[workload]["commands"])
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == 2 * commands
    assert set(res["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_without_source(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "sweep-small", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
