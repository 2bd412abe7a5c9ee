"""Tests of the benchmark itself, at the tiny scale (runs shorter than 10 s).

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from proofdiag.polygraph import polygraph  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def bench(workload, trace=0, cwd=ROOT, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHASHSEED")}
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2].removeprefix("perfbench "))
    return meta, json.loads(lines[-1])


def test_workloads_agree_with_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        meta, result = result_of(bench(workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        for field in ("python", "nproc", "git_sha", "seed", "hash_seed", "why", "digest"):
            assert field in meta
        if workload == "enumerate" and trace == 1:
            assert result["metrics"]["matching.find_matches.calls"]["value"] == 0
            assert result["metrics"]["diagram.interchange_canonical_form.calls"]["value"] > 0


def test_traced_call_counts_repeat_exactly():
    def counts():
        _, result = result_of(bench("oracle", trace=1))
        return {
            k: m["value"]
            for k, m in result["metrics"].items()
            if m["unit"] == "count"
        }

    first = counts()
    assert first["oracle.bfs.find_matches.calls"] > 0
    assert first["polygraph.find.schema.calls"] > 0
    assert first == counts()


@pytest.mark.parametrize("workload", ["cutelim", "oracle"])
def test_digest_does_not_depend_on_the_hash_seed(workload):
    def digest(hash_seed):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload]
        cmd += ["--seed", "3", "--seconds", "1", "--mode", "timed"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["hash_seed"] == str(hash_seed)
        return result["digest"]

    assert digest(0) == digest(1)


def test_cut_rules_are_sem_rules():
    names = {rule.name for rule in polygraph("Sem").rules}
    assert workloads.CUT_RULES <= names


def test_adjusted_clock_runs_at_the_host_speed():
    # One probe a second: the host runs at the reference speed, then from
    # 3 s on at half of it.
    speed = hostspeed.HostSpeed()
    probe = hostspeed.REFERENCE_S
    for t in range(6):
        speed.starts.append(t)
        speed.ends.append(t + (probe if t < 3 else 2 * probe))
    clock = hostspeed.AdjustedClock(speed, 0.5, 5.5)
    assert clock(0.5) == 0
    assert clock(1) == pytest.approx(0.5)
    assert clock(2) - clock(1) == pytest.approx(1 - probe)  # probes take no time
    assert clock(4.5) - clock(3.5) == pytest.approx((1 - 2 * probe) / 2)


def run_in_process(workload):
    return worker.run(workload, 3, 1, "timed")


def test_wrong_expected_count_fails(monkeypatch):
    monkeypatch.setitem(workloads.Enumerate.EXPECTED, 3, (1012, 75))
    res = run_in_process("enumerate")
    assert res["correct"] is False
    assert res["failed"] >= 1 and res["failed"] / res["attempted"] > 0
    assert any("1013 diagrams" in w for w in res["wrong"])


def oracle_with_first_pair(monkeypatch, change):
    setup = workloads.Oracle.setup

    def changed(self, seed, seconds):
        state = setup(self, seed, seconds)
        state["pairs"][0] = change(*state["pairs"][0])
        return state

    monkeypatch.setattr(workloads.Oracle, "setup", changed)
    return run_in_process("oracle")


def test_wrong_recorded_verdict_fails(monkeypatch):
    res = oracle_with_first_pair(
        monkeypatch, lambda kind, truth, _, call, args: (kind, truth, "unknown", call, args)
    )
    assert res["failed"] == 1 and res["attempted"] > 1
    assert any("recorded unknown" in e for e in res["errors"])


def test_verdict_against_the_truth_is_wrong(monkeypatch):
    res = oracle_with_first_pair(
        monkeypatch, lambda kind, _, recorded, call, args: (kind, False, recorded, call, args)
    )
    assert res["correct"] is False
    assert res["failed"] == 1 and res["attempted"] > 1


def test_right_expectations_pass():
    res = run_in_process("enumerate")
    assert res["correct"] is True and res["failed"] == 0
    assert res["notes"]["closure_diagrams"] == 1013


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("enumerate", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
