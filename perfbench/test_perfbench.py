"""The benchmark's own checks: determinism, tracing neutrality, layer split.

Run from the repository root (takes about two minutes)::

    python3 -m pytest perfbench/test_perfbench.py -q

Each check starts worker processes the way ``run.py`` does, with
``--seconds 0``, so a run is the set-up plus the deterministic prefix.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys

import pytest

import run

WORKLOADS = run.WORKLOAD_NAMES


@functools.lru_cache(maxsize=None)
def worker(workload: str, trace: int, repeat: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "worker.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        env=run.clean_env(trace),
        cwd=run.ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_correct_and_fair(workload):
    out = worker(workload, 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fingerprint_repeats_for_a_seed(workload):
    first = worker(workload, 0)["fingerprint"]
    assert first["counters"] and first["gas"]["queries"] > 0
    assert worker(workload, 0, repeat=1)["fingerprint"] == first


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_does_no_extra_work(workload):
    assert worker(workload, 1)["fingerprint"] == worker(workload, 0)["fingerprint"]


def test_layer_split_cold_search():
    metrics = worker("cold_search16", 1)["metrics"]
    assert metrics["share.cloud.vo"] > 0.5
    assert metrics["cloud.repeat_witness.hit_ratio"] < 0.1


def test_layer_split_hot_plans():
    metrics = worker("hot_plans8", 1)["metrics"]
    assert metrics["share.cloud.vo"] < 0.5
    assert metrics["share.core.user"] + metrics["share.blockchain"] > 0.5


def test_layer_split_insert_churn():
    metrics = worker("insert_churn16", 1)["metrics"]
    assert metrics["share.owner.insert"] > 0.5


def test_refuses_a_checkout_without_sources():
    bare = run.HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hot_plans8", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == ""
