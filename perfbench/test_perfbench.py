"""Self-tests of the benchmark; run with `python3 -m pytest perfbench` from the root.

The smoke runs use tiny grids, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def smoke_runs(request):
    """Untraced and traced smoke runs of one workload: (final line, result file)."""
    out = {}
    for trace in (0, 1):
        proc = bench(ROOT, "--workload", request.param, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads((ROOT / ".perfbench" / f"{request.param}-s5-t{trace}-smoke"
                             / "result.json").read_text())
        out[trace] = (json.loads(proc.stdout.strip().splitlines()[-1]), result)
    return out


def test_smoke_runs_are_correct_and_report_every_metric(smoke_runs):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        line, _ = smoke_runs[trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared


def test_end_to_end_metrics_are_never_zero(smoke_runs):
    line, _ = smoke_runs[0]
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_span_self_times_are_nonnegative_and_sum_to_traced_wall(smoke_runs):
    _, result = smoke_runs[1]
    layers = result["layers"]
    wall = result["metrics"]["trace.wall_s"]["value"]
    assert min(v["min_self"] for v in layers.values()) >= -1e-9
    assert sum(v["self"] for v in layers.values()) == pytest.approx(wall, rel=1e-9)


def test_traced_run_restores_every_wrapped_function(smoke_runs):
    _, result = smoke_runs[1]
    assert not result["problems"]  # includes "left a wrapped function in place"


def test_tracer_restores_every_layer_in_process():
    sys.path.insert(0, str(ROOT / "src"))
    import importlib
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in child.LAYERS}
    tracer = child.Tracer()
    tracer.install()
    assert len(tracer.installed) == len(child.LAYERS)
    assert all(getattr(importlib.import_module(m), a) is not originals[m, a]
               for m, a, _ in child.LAYERS)
    tracer.restore()
    assert tracer.restored()
    assert all(getattr(importlib.import_module(m), a) is originals[m, a]
               for m, a, _ in child.LAYERS)


def test_self_times_of_nested_spans():
    # process [0, 10]: a [1, 6] holds b [2, 3] and c [4, 5]; d [7, 8] at top level
    spans = [[0, 1, 6, -1], [1, 2, 3, 0], [1, 4, 5, 0], [2, 7, 8, -1]]
    layers = run.self_times(["a", "b", "d"], spans, 0.0, 10.0)
    assert layers["a"]["self"] == pytest.approx(3.0)
    assert layers["b"] == {"calls": 2, "incl": 2.0, "self": 2.0, "min_self": 1.0}
    assert layers["process"]["self"] == pytest.approx(4.0)
    assert sum(v["self"] for v in layers.values()) == pytest.approx(10.0)


def test_n8_inputs_follow_the_seed():
    assert workloads.n8_scenario(3) == workloads.n8_scenario(3)
    assert workloads.n8_scenario(3)["R"] != workloads.n8_scenario(4)["R"]


def test_benchmark_alone_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "ode_ref", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

