"""The benchmark's own checks, on the tiny sizes of every workload.

    python3 -m pytest perfbench/tests -q

Each test runs perfbench/run.py in a subprocess, as the benchmark is run.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(tmp_path, workload, trace=0, *extra):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--tiny", "--out-dir", str(tmp_path), *extra,
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def printed_metrics(lines):
    """name -> unit of every '  name = value unit' line."""
    out = {}
    for line in lines[:-1]:
        m = re.fullmatch(r"\s+(\S+) = (\S+) (\S+)(?: .*)?", line)
        if m:
            float(m.group(2))
            out[m.group(1)] = m.group(3)
    return out


def test_benchmark_json_lists_the_three_workloads():
    assert NAMES == ["ripple", "front-end", "plate-scan"]
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"campaign_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_print_with_units(tmp_path, workload):
    lines, result = run_bench(tmp_path, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = printed_metrics(lines)
    assert {k: printed[k] for k in want} == want
    assert printed["failed_ops_frac"] == "fraction"
    record = json.loads((tmp_path / f"result-{workload}-seed0-tiny-trace0.json").read_text())
    for key in ("machine", "thread_env", "git_commit", "src_sha256", "constants_fingerprint", "sizes"):
        assert key in record
    assert record["thread_env"]["FOCSIM_THREADS"] is None
    assert record["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_prints_every_layer_metric(tmp_path, workload):
    lines, result = run_bench(tmp_path, workload, 1)
    assert result["correct"], lines
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert printed_metrics(lines) == {**want, "failed_ops_frac": "fraction"}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    spun_calls = metrics["spun.total_matrix.calls"] + metrics["spun.propagate_trajectory.calls"]
    if workload == "plate-scan":
        assert spun_calls == 0 and metrics["spun.spin_angle.calls"] == 0
        assert metrics["elements.detected_intensity.calls"] > 0
    else:
        assert spun_calls > 0
    spans = (tmp_path / f"spans-{workload}-seed0-tiny.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert first["name"] == "campaign" and first["parent"] == -1
    assert all({"name", "start", "end", "parent"} <= set(json.loads(s)) for s in spans)


def test_self_time_excludes_children():
    sys.path.insert(0, str(HERE))
    from tracing import Trace

    t = Trace()
    t.spans = [
        [0, "outer", 0.0, 10.0, -1],
        [1, "inner", 1.0, 4.0, 0],
        [2, "inner", 6.0, 7.0, 0],
        [3, "leaf", 2.0, 3.0, 1],
    ]
    assert t.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_corrupted_reference_fails_ops(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    for workload in NAMES:
        for values in reference["tiny"][workload].values():
            for key, value in values.items():
                if isinstance(value, float) and value != 0.0:
                    values[key] = value * (1.0 + 1e-6)
                    break
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(reference))
    for workload in NAMES:
        lines, result = run_bench(tmp_path, workload, 0, "--reference", str(bad))
        assert not result["correct"]
        assert result["failed"] > 0
        frac = float(re.search(r"failed_ops_frac = (\S+)", "\n".join(lines)).group(1))
        assert frac == result["failed"] / result["attempted"] > 0.0


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ripple", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
