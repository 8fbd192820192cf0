"""Smoke tests of the benchmark itself, on small circuits.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import repro.atpg.generate as atpg_generate  # noqa: E402
import repro.core.flow as flow_module  # noqa: E402
from perfbench import run, workloads  # noqa: E402
from perfbench.layers import FLOW_STEPS, PER_LAYER  # noqa: E402
from repro.simulation.fault_episode import FaultSimSession  # noqa: E402

SMALL = {
    "table1_flow": lambda: workloads.Table1Flow(("s27",)),
    "scan_power": lambda: workloads.ScanPower("s27", n_vectors=16),
    "fault_sim": lambda: workloads.FaultSim("s27", n_batches=2, batch=8),
}


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Small workloads, no recorded references, clean ``REPRO_*``."""
    for name, factory in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, factory)
    monkeypatch.setattr(run, "REFERENCE_FILE", tmp_path / "none.json")
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            monkeypatch.delenv(key)


def _result(capsys, *args: str) -> dict:
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _call_sites() -> dict[str, object]:
    sites = {attr: getattr(flow_module, attr) for attr in FLOW_STEPS}
    sites["generate_test"] = atpg_generate.generate_test
    sites["simulate"] = FaultSimSession.__dict__["simulate"]
    return sites


def test_wrappers_restored_after_traced_run():
    before = _call_sites()
    for name, factory in SMALL.items():
        measured = run.measure(factory(), 1, 0.0, True, {})
        assert measured["layers"]["flow.step_coverage_pct"] > 0
        assert _call_sites() == before, name


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_names_match_benchmark_json(small, capsys, workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == \
        list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    result = _result(capsys, "--workload", workload, "--seed", "3",
                     "--seconds", "0", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_per_layer_table_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, unit, better) for name, unit, better, _ in PER_LAYER]


def _flip_detection_words(original):
    def simulate(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        result.detected = {f: w ^ 1 for f, w in result.detected.items()}
        return result
    return simulate


def _raise_proposed_static(original):
    def evaluate(design, vectors, policy, *args, **kwargs):
        report = original(design, vectors, policy, *args, **kwargs)
        if policy.name == "proposed":
            report = dataclasses.replace(report, static_uw=1e9)
        return report
    return evaluate


@pytest.mark.parametrize("workload, owner, attr, corrupt", [
    ("fault_sim", FaultSimSession, "simulate", _flip_detection_words),
    ("scan_power", flow_module, "evaluate_scan_power",
     _raise_proposed_static),
])
def test_corrupted_result_counts_as_failed(small, capsys, monkeypatch,
                                           workload, owner, attr, corrupt):
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    result = _result(capsys, "--workload", workload, "--seconds", "0")
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_reference_digest_mismatch_counts_as_failed():
    measured = run.measure(SMALL["fault_sim"](), 1, 0.0, False,
                           {"drop_0": "0" * 16})
    assert [f.split(":")[0] for f in measured["harness"].failures] == \
        ["drop_0"]


def test_passes_repeat_until_seconds_elapse():
    measured = run.measure(SMALL["scan_power"](), 1, 0.3, False, {})
    harness = measured["harness"]
    assert measured["complete_passes"] >= 2
    assert not harness.failures
    assert all(len(times) >= 2 for times in harness.times.values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fault_sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
