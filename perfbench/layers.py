"""Per-layer attribution for the traced run, installed from outside ``src/``.

The traced run wraps public callables where the flow looks them up:

* every step callable that ``repro.core.flow`` calls through its module
  attributes (tech-map, ATPG, AddMUX, observability, find-pattern, IVC,
  quiescent simulation, reorder, input control, power replay);
* ``repro.atpg.generate.generate_test`` (PODEM, one call per fault);
* ``FaultSimSession.simulate`` (the fault engine, on the class).

The wrappers time each call, read counts off its result and restore the
original attributes on exit.  Nothing under ``src/`` changes.  Calls made
while another wrapped call is running are nested; only outermost calls
count as flow steps for ``flow.step_coverage_pct``.
"""

from __future__ import annotations

import functools
import statistics
import time
import weakref
from collections import defaultdict
from typing import Any, Callable

import repro.atpg.generate as atpg_generate
import repro.core.flow as flow_module
from repro.simulation.fault_episode import FaultSimSession

__all__ = ["PER_LAYER", "LayerTracer", "wrapper_cost_s"]

#: ``repro.core.flow`` attribute -> seconds metric (``None``: timed as a
#: flow step, reported only through coverage).
FLOW_STEPS: dict[str, str | None] = {
    "technology_map": "techmap.map_s",
    "generate_tests": "atpg.generate_s",
    "add_mux": "core.addmux_s",
    "monte_carlo_observability": "leakage.observability_s",
    "find_controlled_input_pattern": "core.find_pattern_s",
    "random_fill_search": "leakage.ivc_s",
    "simulate_comb3": None,
    "reorder_for_leakage": "leakage.reorder_s",
    "input_control_pattern": "core.input_control_s",
    "evaluate_scan_power": "power.replay_s",
}

#: Every per-layer metric: (name, unit, better, what it should move).
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    ("atpg.generate_s", "s", "lower", "wall_s on table1_flow"),
    ("atpg.podem_s", "s", "lower", "wall_s on table1_flow"),
    ("atpg.podem_aborted_s", "s", "lower", "wall_s on table1_flow"),
    ("atpg.podem_calls", "count", "lower", "wall_s on table1_flow"),
    ("atpg.podem_aborted", "count", "lower",
     "fault_coverage on table1_flow"),
    ("atpg.podem_untestable", "count", "higher",
     "fault_coverage on table1_flow"),
    ("atpg.podem_backtracks", "count", "lower", "wall_s on table1_flow"),
    ("atpg.podem_yield", "ratio", "higher", "wall_s on table1_flow"),
    ("atpg.vectors", "count", "lower", "wall_s on table1_flow"),
    ("atpg.fault_coverage_pct", "%", "higher", "result of table1_flow"),
    ("simulation.faultsim_s", "s", "lower",
     "wall_s on fault_sim and table1_flow"),
    ("simulation.faultsim_cold_s", "s", "lower", "wall_s on fault_sim"),
    ("simulation.faultsim_calls", "count", "lower", "wall_s on fault_sim"),
    ("simulation.faultsim_fault_patterns", "count", "lower",
     "wall_s on fault_sim"),
    ("simulation.faultsim_ns_per_fault_pattern", "ns", "lower",
     "wall_s on fault_sim"),
    ("power.replay_s", "s", "lower", "wall_s and peak_rss_mb on scan_power"),
    ("power.replay_cycles", "count", "lower", "wall_s on scan_power"),
    ("power.replay_ns_per_cycle", "ns", "lower", "wall_s on scan_power"),
    ("power.static_saving_pct", "%", "higher",
     "result of table1_flow and scan_power"),
    ("power.dynamic_saving_pct", "%", "higher",
     "result of table1_flow and scan_power"),
    ("core.input_control_s", "s", "lower", "wall_s on scan_power"),
    ("core.find_pattern_s", "s", "lower", "wall_s on scan_power"),
    ("core.addmux_s", "s", "lower", "wall_s on scan_power"),
    ("leakage.observability_s", "s", "lower", "wall_s on scan_power"),
    ("leakage.ivc_s", "s", "lower", "wall_s on scan_power"),
    ("leakage.reorder_s", "s", "lower", "wall_s on scan_power"),
    ("techmap.map_s", "s", "lower", "setup_s on every workload"),
    ("flow.unattributed_s", "s", "lower", "wall_s on every workload"),
    ("flow.step_coverage_pct", "%", "higher", "coverage check (>= 95%)"),
    ("trace_overhead_pct", "%", "lower", "traced vs untraced wall_s"),
)

_COUNTS = frozenset(name for name, unit, _, _ in PER_LAYER
                    if unit == "count")


class LayerTracer:
    """Context manager that installs the wrappers and collects the numbers.

    Numbers accumulate into the current *section*: :meth:`begin` opens a
    new one (the harness opens one per set-up and one per pass).
    """

    def __init__(self) -> None:
        self.sections: list[dict[str, float]] = []
        self._depth = 0
        self._saved: list[tuple[Any, str, Any]] = []
        self._sessions: weakref.WeakSet = weakref.WeakSet()
        self.begin()

    @property
    def current(self) -> dict[str, float]:
        return self.sections[-1]

    def begin(self) -> dict[str, float]:
        """Start a fresh section and return it."""
        self.sections.append(defaultdict(float))
        return self.current

    # -- wrapping ---------------------------------------------------------- #

    def _timed(self, fn: Callable, record: Callable[[Any, float], None]
               ) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.current["wrapper.calls"] += 1
            outermost = self._depth == 0
            self._depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._depth -= 1
            if outermost:
                self.current["flow.step_s"] += dt
            record((args, kwargs, result), dt)
            return result
        return wrapper

    def _patch(self, owner: Any, attr: str,
               record: Callable[[Any, float], None]) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._timed(original, record))

    def __enter__(self) -> "LayerTracer":
        for attr, metric in FLOW_STEPS.items():
            self._patch(flow_module, attr, self._step_recorder(attr, metric))
        self._patch(atpg_generate, "generate_test", self._record_podem)
        self._patch(FaultSimSession, "simulate", self._record_faultsim)
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- recorders --------------------------------------------------------- #

    def _step_recorder(self, attr: str, metric: str | None
                       ) -> Callable[[Any, float], None]:
        def record(call: Any, dt: float) -> None:
            if metric is not None:
                self.current[metric] += dt
            _, _, result = call
            if attr == "generate_tests":
                self.current["atpg.vectors"] += len(result.vectors)
                self.current["atpg.n_faults"] += result.n_faults
                self.current["atpg.n_detected"] += result.n_detected
            elif attr == "evaluate_scan_power":
                self.current["power.replay_cycles"] += result.n_cycles
        return record

    def _record_podem(self, call: Any, dt: float) -> None:
        _, _, outcome = call
        cur = self.current
        cur["atpg.podem_s"] += dt
        cur["atpg.podem_calls"] += 1
        cur["atpg.podem_backtracks"] += outcome.backtracks
        if outcome.status == "aborted":
            cur["atpg.podem_aborted"] += 1
            cur["atpg.podem_aborted_s"] += dt
        elif outcome.status == "untestable":
            cur["atpg.podem_untestable"] += 1
        else:
            cur["atpg.podem_detected"] += 1

    def _record_faultsim(self, call: Any, dt: float) -> None:
        args, kwargs, _ = call
        session, faults = args[0], args[1]
        n = args[3] if len(args) > 3 else kwargs["n"]
        cur = self.current
        cur["simulation.faultsim_s"] += dt
        cur["simulation.faultsim_calls"] += 1
        cur["simulation.faultsim_fault_patterns"] += len(faults) * n
        if session not in self._sessions:
            self._sessions.add(session)
            cur["simulation.faultsim_cold_s"] += dt

    # -- report ------------------------------------------------------------ #

    def metrics(self, setups: list[dict[str, float]],
                passes: list[tuple[dict[str, float], float]],
                quality: dict[str, float], per_call_s: float
                ) -> dict[str, float]:
        """Per-layer metrics from set-up sections and complete passes.

        ``passes`` holds ``(section, pass wall seconds)`` per complete
        pass.  Seconds are medians over passes; counts come from the
        first pass (the inputs of every pass are the same, so the
        counts are too).
        """
        def med(key: str, rows: list[dict[str, float]]) -> float:
            return statistics.median(row.get(key, 0.0) for row in rows)

        sections = [section for section, _ in passes]
        walls = [wall for _, wall in passes]
        first = sections[0]
        out: dict[str, float] = {}
        for name, unit, _, _ in PER_LAYER:
            if name in _COUNTS:
                out[name] = first.get(name, 0.0)
            elif unit == "s":
                out[name] = med(name, sections)
        out["techmap.map_s"] = med("techmap.map_s", setups)
        calls = first.get("atpg.podem_calls", 0.0)
        out["atpg.podem_yield"] = \
            first.get("atpg.podem_detected", 0.0) / calls if calls else 0.0
        n_faults = first.get("atpg.n_faults", 0.0)
        out["atpg.fault_coverage_pct"] = \
            100.0 * first.get("atpg.n_detected", 0.0) / n_faults \
            if n_faults else 0.0
        fp = out["simulation.faultsim_fault_patterns"]
        out["simulation.faultsim_ns_per_fault_pattern"] = \
            1e9 * out["simulation.faultsim_s"] / fp if fp else 0.0
        cycles = out["power.replay_cycles"]
        out["power.replay_ns_per_cycle"] = \
            1e9 * out["power.replay_s"] / cycles if cycles else 0.0
        out["power.static_saving_pct"] = quality.get("static_saving_pct", 0.0)
        out["power.dynamic_saving_pct"] = \
            quality.get("dynamic_saving_pct", 0.0)
        wall = statistics.median(walls)
        steps = [section.get("flow.step_s", 0.0) for section in sections]
        out["flow.unattributed_s"] = statistics.median(
            w - s for w, s in zip(walls, steps))
        out["flow.step_coverage_pct"] = statistics.median(
            100.0 * s / w for w, s in zip(walls, steps))
        calls_per_pass = first.get("wrapper.calls", 0.0)
        out["trace_overhead_pct"] = 100.0 * calls_per_pass * per_call_s / wall
        return out


def wrapper_cost_s(repeats: int = 20000) -> float:
    """Measured cost of one wrapped call over a bare call, in seconds.

    The wrappers add far less time than a shared 2-CPU host's
    run-to-run noise, so a traced-vs-untraced wall comparison cannot
    resolve it; the overhead is reported as wrapper calls x this
    per-call cost (median of five trials).
    """
    def noop(*args: Any, **kwargs: Any) -> None:
        return None

    tracer = LayerTracer()
    wrapped = tracer._timed(noop, lambda call, dt: None)
    trials = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop(1)
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(repeats):
            wrapped(1)
        trials.append((time.perf_counter() - t0 - bare) / repeats)
    return max(statistics.median(trials), 0.0)
