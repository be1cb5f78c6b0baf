"""Smoke self-test of the benchmark: every workload at its tiny size, traced
and untraced, prints every metric named in BENCHMARK.json with its unit.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert f"{metric['name']} = {reported['value']!r} {metric['unit']}" in lines


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_adapter_rejects_a_request_file_of_other_dimensions(tmp_path):
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps([[[0, 0.5, 0.5, 0.2, 0.2]], [[0, 0.5, 0.5, 0.2, 0.2]]]))
    frame = tmp_path / "frame.pgm"
    frame.write_bytes(b"P5\n4 3\n255\n" + bytes(12))
    requests = f"FRAME 1 4 3 {frame}\nFRAME 2 8 3 {frame}\nFRAME 3 4 3 {tmp_path / 'missing.pgm'}\n"
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "adapter.py"), str(labels), "0.9"],
        input=requests, capture_output=True, text=True, timeout=30,
    )
    lines = out.stdout.splitlines()
    assert lines[0] == "READY 1"
    assert lines[1] == "OK 1"
    assert lines[2] == "DET 0 0.9 0.5 0.5 0.2 0.2"
    assert lines[3].startswith("ERR request file is 4x3")
    assert lines[4].startswith("ERR unreadable request file")
