"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import ps  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = workloads.SIZES["tiny"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_passes_its_oracle(name):
    tally, _ = workloads.run_pass(name, TINY, 1)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.errors
    assert tally.useful > 0


def test_declared_metrics_match_the_code():
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCH["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]}
    assert declared == tracing.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metrics_match_benchmark_json(trace):
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCH[key]}
    for name in workloads.WORKLOADS:
        result, info = run.measure(name, 1, 0.0, trace, size="tiny")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        emitted = result["metrics"]
        assert {k: v["unit"] for k, v in emitted.items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in emitted.values())
        env = info["env"]
        for field in ("python", "numpy", "cpu_count", "commit", "seed", "search_backend"):
            assert env[field] is not None
        if not trace:
            assert all(v["value"] > 0 for v in emitted.values())


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] >= 1 and result["correct"]


def test_tree_without_sources_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_planted_corrupt_residue_set_is_caught(monkeypatch):
    real = ps.singer_construct

    def corrupt(q):
        s = real(q)
        return dataclasses.replace(
            s, residues=s.residues[:-1] + ((s.residues[-1] + 1) % s.m,))

    monkeypatch.setattr(ps, "singer_construct", corrupt)
    tally, _ = workloads.run_pass("census", TINY, 1)
    assert tally.failed > 0


def test_planted_exists_at_order_10_is_caught(monkeypatch):
    real = ps.feasibility

    def flipped(q, **kwargs):
        report = real(q, **kwargs)
        return dataclasses.replace(report, verdict="Exists") if q == 10 else report

    monkeypatch.setattr(ps, "feasibility", flipped)
    tally, _ = workloads.run_pass("decide", TINY, 1)
    assert tally.failed == 1
    assert tally.errors[0].startswith("feasibility(10)")


def test_traced_pass_survives_a_missing_boundary(monkeypatch):
    monkeypatch.delattr(ps.minimax, "verify")
    gone = ("powersum._gone", "subtree_first", "search.first", None)
    original = ps.pds.exhaustive_search
    with tracing.Tracer(tracing.BOUNDARIES + (gone,)) as tracer:
        tally, _ = workloads.run_pass("decide", TINY, 1)
    assert tally.failed == 0
    assert tracer.missing == ["powersum.minimax.verify", "powersum._gone.subtree_first"]
    assert ps.pds.exhaustive_search is original
    metrics = tracing.layer_metrics(tracer.spans, tally.busy_s)
    assert set(metrics) == {k for k in tracing.PER_LAYER if not k.startswith("trace.")}
    assert metrics["minimax.snap.verify_calls"] == 0
    assert metrics["search.first.calls"] > 0
    assert metrics["pds.search_after_theory_s"] > 0
