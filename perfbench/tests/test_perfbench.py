"""The benchmark's own tests: tiny runs of every workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each run shrinks every input (``--scale``) so it takes seconds; the
tests check the result contract, not the figures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.spans import Tracer, merge_summaries

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def _result(workload: str, *extra: str, seed: int = 3,
            trace: int = 0) -> dict:
    proc = _run("--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", str(trace), "--scale", "0.05",
                *extra)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload: str) -> None:
    result = _result(workload)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_reports_every_per_layer_metric(workload: str) -> None:
    result = _result(workload, trace=1)
    _assert_metrics(result, SPEC["per_layer"])
    assert result["correct"] and result["failed"] == 0


def test_unused_seed_passes_every_check() -> None:
    result = _result("rtb-log", seed=987_654)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_log_counts_as_failed(workload: str) -> None:
    result = _result(workload, "--inject-fault")
    assert not result["correct"]
    assert result["failed"] >= 1


def test_without_the_program_exits_nonzero_without_a_result(
        tmp_path: os.PathLike[str]) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(tmp_path, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children() -> None:
    tracer = Tracer()
    outer = tracer.open("a")
    inner = tracer.open("b")
    tracer.close(inner)
    nested = tracer.open("a")
    tracer.close(nested)
    tracer.close(outer)
    tracer.starts[:] = [0.0, 1.0, 4.0]
    tracer.ends[:] = [10.0, 3.0, 5.0]
    layers = merge_summaries([tracer.summary()])["layers"]
    # Outer "a" keeps 10 - 2 - 1 = 7 s, nested "a" its 1 s.
    assert layers["a"]["self_s"] == pytest.approx(8.0)
    assert layers["b"]["self_s"] == pytest.approx(2.0)
    # The nested "a" span lies inside the outer one: one interval.
    assert layers["a"]["spans"] == [[0.0, 10.0]]


def test_patch_restores_inherited_methods() -> None:
    class Base:
        def push(self) -> int:
            return 1

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.patch(Child, "push", "child.push")
    assert Child().push() == 1 and "push" in Child.__dict__
    tracer.restore()
    assert "push" not in Child.__dict__
    assert tracer.summary()["layers"]["child.push"]["calls"] == 1
