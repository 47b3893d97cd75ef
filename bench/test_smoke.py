"""Smoke test of the benchmark: every workload at a tiny size, same code path.

    python3 -m pytest bench/test_smoke.py

Runs ``run.py --smoke`` for each workload with tracing off and on, and
checks the result line against ``BENCHMARK.json``; then checks span
accounting and the handling of a layer function that no longer exists.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "bench"))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 3
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert "not traced" not in proc.stderr


def test_output_checks_catch_bad_outputs(tmp_path):
    cell = {"params": {"p": 1.0}, "error": "ValueError: boom"}
    (tmp_path / "sweep.json").write_text(json.dumps(
        {"tables": {"line-membership": [cell], "transfer-vs-not": [cell]}}))
    (tmp_path / "sweep.csv").write_text("")
    outcome = WORKLOADS["metro-sweep"].check(tmp_path, tmp_path, "smoke", None)
    assert outcome.operations == 2 and outcome.failed_operations == 1

    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_text(json.dumps({"outputs": {"report.json": "0"}}))
    curves = {"gaussian(1)": {"mean": 0.4}}
    (run / "report.json").write_text(json.dumps({"transfer-vs-not": {"noise": {"curves": curves}}}))
    (run / "stale.csv").write_text("")
    problems = WORKLOADS["metro-noise"].check(run, tmp_path, "smoke", None).problems
    assert any("manifest lists" in p for p in problems)
    assert any("expected 2 noise curves" in p for p in problems)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "od-dense", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_refuses_blas_threads_above_nproc():
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(len(os.sched_getaffinity(0)) + 1))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "od-dense", "--seed",
                           "1", "--seconds", "1", "--smoke"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "refusing" in proc.stderr


def test_self_times_add_up():
    trace = {
        "spans": [["a", 0.0, 10.0, -1], ["b", 2.0, 5.0, 0], ["c", 6.0, 7.0, 0], ["b", 11.0, 12.0, -1]],
        "counters": {},
        "sampler_rss_growth": [],
        "missing": [],
    }
    selfs, roots = spans.self_times(trace["spans"])
    assert selfs == {"a": 6.0, "b": 4.0, "c": 1.0} and roots == 11.0
    assert spans.layer_metrics(trace, 14.0)["cli.other_s"] == 3.0
    trace["spans"][1][2] = 13.0  # a child longer than its parent cannot be accounted
    with pytest.raises(ValueError):
        spans.layer_metrics(trace, 14.0)


def test_missing_target_reads_zero_calls():
    sys.path.insert(0, str(ROOT / "src"))
    import pec
    import pec.srg

    tracer = spans.Tracer()
    spans.install(tracer, {"pec.walker.renamed_away": "walker.sampler",
                           "pec.srg.build_srg_from_adjacency": "srg.build"})
    assert tracer.missing == ["pec.walker.renamed_away"]
    assert pec.build_srg_from_adjacency is pec.srg.build_srg_from_adjacency  # rebound in both
    g = pec.srg.build_srg_from_adjacency([("a", "b"), ("b", "c"), ("c", "b")])
    layers = spans.layer_metrics(tracer.to_json(), 1.0)
    assert layers["walker.sampler_calls"] == 0 and layers["walker.sampler_s"] == 0.0
    assert layers["srg.build_calls"] == 1 and layers["srg.edges"] == g.num_edges == 2
