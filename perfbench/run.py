"""End-to-end benchmark of the paper's flow, with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload table1_flow --seed 1 --seconds 25 \
        --trace 0

Workloads (see ``workloads.py``): ``table1_flow``, ``scan_power`` and
``fault_sim``.  Set-up (imports, circuit generation, tech-map, test-set or
fault-universe construction) runs several times and reports its median.
The measured phase then repeats the workload's pass, op by op in one
closed loop, until ``--seconds`` have elapsed and at least one pass is
complete.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: host seconds of one pass, the sum over the pass's ops of
  each op's median time;
* ``setup_s``: median import seconds (this process plus fresh child
  interpreters) plus the median in-process set-up;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` wraps the program's public callables at their call sites
(``layers.py``) and reports the per-layer metrics instead.

Every op is checked (invariants at any seed; at seeds with a recorded
reference, digests of the simulated statistics must match it).  An op
that raises or fails its check counts in ``failed``; the error rate is
``failed / attempted``.  Lines before the last describe the run: machine
fingerprint, code revision, cleared ``REPRO_*`` variables, per-op
medians, result quality and digests.  The last line is the JSON result.

``reference_digests.json`` maps workload -> seed -> op label -> digest,
as printed on the ``# digests`` line by a run of a commit whose results
are known good.  Re-record it only for an intended change of results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_digests.json"
WORKLOAD_NAMES = ("table1_flow", "scan_power", "fault_sim")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: In-process set-ups per run; child-interpreter import samples per run.
SETUP_REPS = 3
IMPORT_PROBES = 2


class _Stop(Exception):
    """The measured phase is over."""


class _PassAborted(Exception):
    """An op raised; the rest of the pass depends on it."""


def clean_environment() -> list[str]:
    """Drop every ``REPRO_*`` variable so default runtime options apply."""
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    return cleared


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import the benchmark's modules."""
    code = ("import time; t = time.perf_counter(); "
            "import perfbench.workloads; print(time.perf_counter() - t)")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.split()[-1])


def fingerprint() -> dict[str, Any]:
    """Machine fingerprint and code revision recorded with every result."""
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    revision = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_revision": revision, "src_sha256": src.hexdigest()[:16]}


class Harness:
    """Times, checks and digests every op of the measured phase."""

    def __init__(self, seconds: float, reference: dict[str, str],
                 digest: Any):
        self.seconds = seconds
        self.reference = reference
        self.digest = digest
        self.times: dict[str, list[float]] = {}
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.finished_passes = 0
        self.pass_s = 0.0
        self.start = time.perf_counter()

    def over(self) -> bool:
        return (self.finished_passes > 0 and
                time.perf_counter() - self.start >= self.seconds)

    def step(self, label: str, fn: Any, *args: Any, check: Any = None,
             summary: Any = None, **kwargs: Any) -> Any:
        """Run one op; the workload's ``step`` callback."""
        if self.over():
            raise _Stop
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failures.append(f"{label}: raised {exc!r}")
            raise _PassAborted from exc
        dt = time.perf_counter() - t0
        self.pass_s += dt
        self.times.setdefault(label, []).append(dt)
        try:
            if check is not None:
                check(result)
            if summary is not None:
                self._compare(label, self.digest(summary(result)))
        except Exception as exc:
            self.failures.append(f"{label}: {exc}")
        return result

    def _compare(self, label: str, value: str) -> None:
        first = self.digests.setdefault(label, value)
        if value != first:
            raise ValueError("digest differs from the first pass's")
        expected = self.reference.get(label)
        if expected is not None and value != expected:
            raise ValueError(f"digest {value} differs from the "
                                 f"reference {expected}")

    def wall_s(self) -> float:
        return sum(statistics.median(t) for t in self.times.values())


def measure(workload: Any, seed: int, seconds: float, trace: bool,
            reference: dict[str, str]) -> dict[str, Any]:
    """Set up, run the measured phase and collect everything reported."""
    from perfbench.layers import LayerTracer, wrapper_cost_s
    from perfbench.workloads import digest

    tracer = LayerTracer() if trace else None
    setup_sections = []
    setup_times = []
    inputs = []
    passes: list[tuple[Any, float]] = []
    quality: dict[str, float] = {}
    with tracer if tracer is not None else contextlib.nullcontext():
        for _ in range(SETUP_REPS):
            if tracer is not None:
                setup_sections.append(tracer.begin())
            t0 = time.perf_counter()
            inputs.append(workload.setup(seed))
            setup_times.append(time.perf_counter() - t0)
        harness = Harness(seconds, reference, digest)
        index = 0
        while not harness.over():
            # Each pass gets fresh inputs; build more outside the timed
            # ops if the set-up ones run out.
            if index < len(inputs):
                pass_inputs, inputs[index] = inputs[index], None
            else:
                if tracer is not None:
                    tracer.begin()
                pass_inputs = workload.setup(seed)
            index += 1
            section = tracer.begin() if tracer is not None else None
            harness.pass_s = 0.0
            try:
                pass_quality = workload.run_pass(pass_inputs, harness.step)
            except _Stop:
                break
            except _PassAborted:
                pass
            else:
                quality = quality or pass_quality
                passes.append((section, harness.pass_s))
            harness.finished_passes += 1
    layer_metrics = None
    if tracer is not None and passes:
        layer_metrics = tracer.metrics(setup_sections, passes, quality,
                                       wrapper_cost_s())
    return {"harness": harness, "setup_times": setup_times,
            "complete_passes": len(passes), "quality": quality,
            "layers": layer_metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    cleared = clean_environment()
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    t0 = time.perf_counter()
    try:
        from perfbench.layers import PER_LAYER
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_times = [time.perf_counter() - t0]

    references = json.loads(REFERENCE_FILE.read_text()) \
        if REFERENCE_FILE.is_file() else {}
    reference = references.get(args.workload, {}).get(str(args.seed), {})
    workload = WORKLOADS[args.workload]()
    if not args.trace:
        import_times += [import_probe() for _ in range(IMPORT_PROBES)]
    run = measure(workload, args.seed, args.seconds, bool(args.trace),
                  reference)
    harness: Harness = run["harness"]

    failures = list(harness.failures)
    if not run["complete_passes"]:
        failures.append("no pass completed")
    quality = run["quality"]
    error_rate = len(harness.failures) / max(harness.attempted, 1)
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# fingerprint {json.dumps(fingerprint(), sort_keys=True)}")
    print(f"# cleared environment: {', '.join(cleared) or 'none'}")
    print(f"# passes complete={run['complete_passes']} "
          f"ops={harness.attempted} error_rate={error_rate:g}")
    print("# op median s " + json.dumps(
        {k: round(statistics.median(v), 4) for k, v in harness.times.items()}))
    print(f"# quality {json.dumps(quality, sort_keys=True)}")
    print(f"# digests {json.dumps(harness.digests)} reference="
          f"{'checked' if reference else 'none for this seed'}")
    for failure in failures:
        print(f"# FAILED {failure}")

    if args.trace:
        layers = run["layers"] or {name: 0.0 for name, *_ in PER_LAYER}
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _, _ in PER_LAYER}
        coverage = layers["flow.step_coverage_pct"]
        print(f"# step coverage {coverage:.2f}% of wall_s "
              f"({'>=' if coverage >= 95.0 else 'BELOW'} 95%)")
    else:
        values = {
            "wall_s": harness.wall_s(),
            "setup_s": statistics.median(import_times) +
            statistics.median(run["setup_times"]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    print(json.dumps({"correct": not failures,
                      "attempted": harness.attempted,
                      "failed": len(harness.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
