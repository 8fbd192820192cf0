"""Cross-process trace stitching: pool workers and queue workers.

The acceptance pins of the observability layer: a multi-process
campaign and a real ``repro-power worker`` subprocess each produce one
stitched trace tree — single trace ID, parent/child links across PIDs,
zero orphan spans.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.campaign.manifest import CampaignSpec
from repro.campaign.queue import WorkQueue
from repro.campaign.runner import run_campaign
from repro.obs.trace import (
    enable,
    flush,
    read_spans,
    summarize_trace,
)

#: Keeps every real flow in the tens-of-milliseconds range (s27 only).
SMALL = {"observability_samples": 16, "ivc_trials": 2,
         "ivc_noise_samples": 2}


def small_spec(seeds=(1,), name="t"):
    return CampaignSpec(circuits=("s27",), seeds=seeds,
                        base=dict(SMALL), name=name)


def by_name(records):
    grouped = {}
    for record in records:
        grouped.setdefault(record["name"], []).append(record)
    return grouped


class TestPoolPropagation:
    def test_two_process_campaign_stitches_one_tree(self, tmp_path):
        enable(tmp_path / "trace")
        run_campaign(small_spec(seeds=(1, 2), name="pooled"), jobs=2)
        flush()

        summary = summarize_trace(tmp_path / "trace")
        assert summary.orphans == []
        assert len(summary.traces) == 1
        assert len(summary.processes) >= 2  # parent + pool workers

        records = by_name(read_spans(tmp_path / "trace"))
        [pool_map] = records["pool.map"]
        tasks = records["pool.task"]
        assert len(tasks) == 2
        for task in tasks:
            # The shipped parent_span_id is authoritative — not the
            # stack the fork worker inherited from its parent.
            assert task["parent"] == pool_map["span"]
            assert task["pid"] != pool_map["pid"]
        assert {task["parent"] for task in records["job.execute"]
                } <= {task["span"] for task in tasks}
        assert {rec["trace"] for rec in read_spans(tmp_path / "trace")
                } == {summary.traces[0]}

    def test_campaign_run_span_tracks_wall(self, tmp_path):
        enable(tmp_path / "trace")
        result = run_campaign(small_spec(name="wall"), jobs=1)
        flush()
        records = by_name(read_spans(tmp_path / "trace"))
        [run_span] = records["campaign.run"]
        assert run_span["parent"] is None
        # Same monotonic pair: the manifest wall and the span agree.
        assert run_span["dur_s"] == result.wall_s


class TestShardPropagation:
    def test_transient_pool_shards_join_the_trace(self, tmp_path):
        from repro.atpg.faults import all_faults
        from repro.atpg.faultsim import fault_simulate
        from repro.netlist import builders
        from repro.simulation.backends import ShardedBackend
        from repro.simulation.bitsim import random_input_words
        from repro.utils.rng import make_rng

        circuit = builders.s27()
        words = random_input_words(circuit, 64, make_rng(1))
        enable(tmp_path / "trace")
        fault_simulate(circuit, all_faults(circuit), words, 64,
                       backend=ShardedBackend(shards=2,
                                              min_faults_per_shard=4))
        flush()

        summary = summarize_trace(tmp_path / "trace")
        assert summary.orphans == []
        assert len(summary.traces) == 1
        records = by_name(read_spans(tmp_path / "trace"))
        [scatter] = records["shard.scatter"]
        [pool_map] = records["pool.map"]
        assert pool_map["parent"] == scatter["span"]
        tasks = records["pool.task"]
        assert len(tasks) == 2
        for task in tasks:
            assert task["parent"] == pool_map["span"]
            assert task["pid"] != scatter["pid"]


class TestWorkerPropagation:
    def test_worker_subprocess_joins_enqueue_trace(self, tmp_path):
        trace_dir = tmp_path / "trace"
        queue_dir = tmp_path / "q"
        enable(trace_dir)
        WorkQueue(queue_dir).enqueue(small_spec(name="queued"))
        flush()

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_TRACE", None)  # ctx rides the job payload only
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "worker", str(queue_dir),
             "--cache-dir", str(tmp_path / "cache"),
             "--poll-s", "0.01", "--quiet"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

        summary = summarize_trace(trace_dir)
        assert summary.orphans == []
        assert len(summary.traces) == 1

        records = by_name(read_spans(trace_dir))
        [enqueue] = records["queue.enqueue"]
        [job] = records["worker.job"]
        assert job["parent"] == enqueue["span"]
        assert job["pid"] != enqueue["pid"]  # a real second process
        assert job["trace"] == enqueue["trace"]
        assert job["attrs"]["source"] == "run"
        [execute] = records["job.execute"]
        assert execute["parent"] == job["span"]
        assert execute["pid"] == job["pid"]

    def test_claim_span_recorded_in_worker_file(self, tmp_path):
        """The worker's spans land in its own per-PID JSONL file."""
        trace_dir = tmp_path / "trace"
        queue_dir = tmp_path / "q"
        enable(trace_dir)
        WorkQueue(queue_dir).enqueue(small_spec(name="files"))
        flush()

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_TRACE", None)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "worker", str(queue_dir),
             "--cache-dir", str(tmp_path / "cache"),
             "--poll-s", "0.01", "--quiet"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

        pids = {rec["pid"] for rec in read_spans(trace_dir)}
        files = {int(p.name.split("-")[1])
                 for p in trace_dir.glob("trace-*.jsonl")}
        assert pids == files and len(files) >= 2
