"""Smoke tests of the benchmark itself, at a tiny size (a few jobs, one pass).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.bootstrap()

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, info = harness.run(workload, seed=3, seconds=0, trace=False, limit=4, probes=1)
    assert result["correct"], info["failures"]
    assert result["attempted"] == 4 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["fail_frac"] == 0.0
    assert info["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, info = harness.run(workload, seed=3, seconds=0, trace=True, limit=4)
    assert result["correct"], (info["failures"], info["trace_problems"])
    assert info["traced_passes"] == 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")


def test_tracer_sees_tpn_stencil():
    result, info = harness.run("certify-mix", seed=5, seconds=0, trace=True, limit=2)
    assert not info["trace_problems"]
    metrics = result["metrics"]
    assert metrics["geometry.chern_curvature.calls"]["value"] > 0
    assert metrics["geometry.fubini_study.self_s"]["value"] > 0


def test_bad_output_counts_as_failure(monkeypatch):
    import poslab.cli

    emit = poslab.cli._emit

    def corrupt(report, output):
        emit({"corrupted": True}, output)

    monkeypatch.setattr(poslab.cli, "_emit", corrupt)
    result, info = harness.run("moments-exact", seed=3, seconds=0, trace=False, limit=4, probes=1)
    assert result["failed"] == 4
    assert info["fail_frac"] > 0
    assert not result["correct"]


def test_wrong_value_counts_as_failure(monkeypatch):
    import poslab.cli

    lambda0 = poslab.cli.lambda0
    monkeypatch.setattr(poslab.cli, "lambda0", lambda params: lambda0(params) / 2)
    result, info = harness.run("moments-exact", seed=3, seconds=0, trace=False, probes=1)
    assert 0 < info["fail_frac"] < 1
    assert all(f.startswith("region ") and "s0=" in f for f in info["failures"])


def test_tail_has_ten_samples_beyond():
    value, percentile = harness.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "moments-exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
