"""Smoke test of the benchmark harness at tiny scale.

Checks the output schema and the metric and workload names against
BENCHMARK.json, never timings. Run from the root of a checkout with::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from gesturemem import dataset  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd, workload, trace, seconds="0.5", smoke=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", seconds, "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["command"][1].startswith(BENCH["paths"][0] + "/")
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in BENCH["end_to_end"])}]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_schema(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    detail = json.loads(lines[-2])["detail"]
    assert detail["workload"] == workload
    assert detail["env"]["blas_threads"] == 1
    assert "failed_share" in detail["metrics"]
    if trace:
        assert detail["trace_overhead"]["spans"] > 0
        timed = [m["name"] for m in expected if m["unit"] == "ms"]
        assert all(detail["layers"][name]["entries"] > 0 for name in timed)
        assert (ROOT / detail["trace_overhead"]["spans_file"]).is_file()


def test_stream_generates_every_malformed_kind():
    recordings, _ = dataset.synthesize_recordings(
        dataset.SynthesisConfig(subjects=1, frames_per_class=20), 0)
    scale = dataclasses.replace(workloads.SMOKE, malformed_share=1.0)
    stream = workloads.build_stream(0, recordings[0], scale, 1.0)
    assert set(stream.kinds) == set(workloads.MALFORMED_KINDS)
    assert all(f == -1 for f in stream.frames)


def test_fails_without_sources(tmp_path):
    """In a directory with only the benchmark files it exits non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0, smoke=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
