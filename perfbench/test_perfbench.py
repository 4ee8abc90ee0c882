"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
from tracing import Tracer, rebound

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc, result


def test_benchmark_json_follows_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names + [w["name"] for w in spec["workloads"]])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(UNIT.match(u) for u in list(run.END_TO_END.values()) + list(run.PER_LAYER.values()))


def test_self_time_subtracts_direct_children_only():
    tr = Tracer()

    def leaf():
        return 1

    def middle():
        return traced_leaf() + traced_leaf()

    traced_leaf = tr.span("leaf", leaf)
    traced_middle = tr.span("middle", middle, is_step=True)
    assert traced_middle() == 2
    names = [s[0] for s in tr.spans]
    assert names == ["middle", "leaf", "leaf"]
    assert [s[3] for s in tr.spans] == [-1, 0, 0]
    assert [s[4] for s in tr.spans] == [0, 0, 0]
    selfs = tr.self_times()
    (_, m0, m1, _, _), (_, a0, a1, _, _), (_, b0, b1, _, _) = tr.spans
    assert selfs[0] == pytest.approx((m1 - m0) - (a1 - a0) - (b1 - b0))
    assert tr.step == -1


def test_rebound_restores_every_name():
    class Owner:
        value = 1

    with rebound([(Owner, "value", 2)]):
        assert Owner.value == 2
    assert Owner.value == 1
    with pytest.raises(RuntimeError):
        with rebound([(Owner, "value", 3)]):
            raise RuntimeError
    assert Owner.value == 1


def test_corrupted_gradient_fails_the_run_without_a_number():
    proc, result = bench("--workload", "gradcheck-grid", "--seed", "0", "--seconds", "1",
                         "--trace", "0", "--corrupt-block", "head0")
    assert proc.returncode == 1
    assert result is None
    assert "CHECK FAILED: gradcheck-grid" in proc.stderr


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc, result = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc, result = bench("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    # spans nest inside their step, so the phases never outgrow it
    assert metrics["trainer.step_self_us"]["value"] > 0
    assert metrics["losses.fwd_calls_per_step"]["value"] >= 1
    assert metrics["losses.bwd_calls_per_step"]["value"] == 1


def test_without_the_package_the_run_fails():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = bench("--workload", "surrogate-ensemble", "--seed", "0", "--seconds", "1",
                             "--trace", "0", cwd=tmp, script=Path(tmp) / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert result is None
