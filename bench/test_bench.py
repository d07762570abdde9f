"""Smoke test of the benchmark at a tiny budget.

    python3 -m pytest bench/test_bench.py -q

Runs every workload untraced and traced with the smoke budget (a 30-step
fixture teacher, a few steps per job), and checks that every metric is
printed with its unit and direction, that the result line carries exactly
the metrics BENCHMARK.json names, that the traced run leaves no wrapper
behind, and that the benchmark refuses to run without a source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, bench=BENCH_DIR):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--budget", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _printed(stdout):
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, _value, unit, better = line.split()[:5]
            out[name] = (unit, better)
    return out


def test_benchmark_json_matches_the_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert list(e2e) == list(metrics.RESULT_END_TO_END)
    assert e2e == {n: metrics.END_TO_END[n][:2] for n in metrics.RESULT_END_TO_END}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert layer == {n: (u, b) for n, (u, b, keep) in metrics.PER_LAYER.items() if keep}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    printed = _printed(proc.stdout)
    expected = {n: (u, b) for n, (u, b, where) in metrics.END_TO_END.items()
                if workload in where}
    if trace:
        expected.update({n: (u, b) for n, (u, b, _) in metrics.PER_LAYER.items()})
        for base in metrics.PER_MODEL:
            for label in metrics.model_labels(workload):
                expected[f"{base}.{label}"] = metrics.PER_LAYER[base][:2]
    assert printed == expected

    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}


def test_traced_run_restores_every_wrapped_function():
    import run
    import tracing

    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attrs, _ in tracing.TARGETS for attr in attrs
                 if attr in owner.__dict__]
    with tracing.Tracer() as tracer:
        assert len(tracer.installed()) == len(originals)
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)

    lines, result = run.run("distill", 3, 0.1, True, "smoke")
    assert any(line.startswith("spans ") and int(line.split()[1]) > 0 for line in lines)
    assert result["failed"] == 0
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / BENCH_DIR.name
    shutil.copytree(BENCH_DIR, bench, ignore=shutil.ignore_patterns(
        ".fixture", "out", "__pycache__"))
    proc = _run("compress", 0, cwd=tmp_path, bench=bench)
    assert proc.returncode != 0
    assert proc.stdout == ""
