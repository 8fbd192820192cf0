"""The benchmark's three workloads.

Each workload is a fixed *pass*: a sequence of ops (one circuit flow, one
flow-step call or one fault-simulation call) that the harness repeats in
a closed loop, one caller, one process.  A workload builds its inputs in
:meth:`setup` from the seed alone and hands the program only those
inputs.  Every pass gets a freshly generated input set, so per-circuit
caches inside the program start empty on every pass, as they do for a
user's run.

The circuits are the repository's synthetic ISCAS89 stand-ins, generated
at circuit seed 1 (``load_circuit``'s default): the seed varies the
flow's stochastic choices and the generated stimuli, not the netlist, so
every seed measures the same amount of structure.

Each op carries a correctness check (invariants that hold at any seed)
and a digest of its simulated statistics, compared across passes and,
where one was recorded, with the reference digest for the seed.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections.abc import Callable, Iterable
from typing import Any

import repro.core.flow as flow
from repro.atpg.collapse import collapse_faults
from repro.atpg.faults import Fault, all_faults
from repro.atpg.faultsim import fault_simulate, scalar_replay
from repro.benchgen.loader import load_circuit
from repro.core.config import FlowConfig
from repro.experiments.results import PAPER_TABLE1, Table1Row
from repro.power.scanpower import ScanPowerReport, ShiftPolicy
from repro.scan.chain import ScanChain
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.bitsim import (
    pack_input_vectors,
    random_input_words,
    simulate_packed,
)
from repro.simulation.eval2 import comb_input_lines
from repro.simulation.fault_episode import FaultSimSession
from repro.simulation.values import bit_at
from repro.utils.rng import derive_seed, make_rng

__all__ = ["WORKLOADS", "CheckFailed", "digest", "Step"]

#: ``step(label, fn, *args, check=, summary=, **kwargs)`` — the harness
#: callback that times one op, checks it and returns its result.
Step = Callable[..., Any]

_IMPROVEMENTS = ("imp_trad_dynamic", "imp_trad_static",
                 "imp_ic_dynamic", "imp_ic_static")


class CheckFailed(Exception):
    """An op's result broke an invariant."""


def digest(summary: Any) -> str:
    """Short stable digest of a JSON-able summary (floats by ``repr``)."""
    text = json.dumps(summary, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _report_summary(report: ScanPowerReport) -> list:
    return [report.n_vectors, report.n_cycles, report.total_transitions,
            repr(report.dynamic_uw_per_hz), repr(report.static_uw),
            repr(report.mean_leakage_na)]


def _check_saves(trad: ScanPowerReport, prop: ScanPowerReport) -> None:
    if not prop.static_uw < trad.static_uw:
        raise CheckFailed(f"proposed static {prop.static_uw} not below "
                          f"traditional {trad.static_uw}")
    if not prop.dynamic_uw_per_hz < trad.dynamic_uw_per_hz:
        raise CheckFailed(f"proposed dynamic {prop.dynamic_uw_per_hz} not "
                          f"below traditional {trad.dynamic_uw_per_hz}")


def _row_quality(rows: Iterable[Table1Row]) -> dict[str, float]:
    """Savings vs traditional (mean over rows) and the paper gap."""
    rows = list(rows)
    quality = {
        "static_saving_pct":
            sum(r.imp_trad_static for r in rows) / len(rows),
        "dynamic_saving_pct":
            sum(r.imp_trad_dynamic for r in rows) / len(rows),
    }
    gaps = [abs(getattr(row, col) - getattr(PAPER_TABLE1[row.circuit], col))
            for row in rows if row.circuit in PAPER_TABLE1
            for col in _IMPROVEMENTS]
    if gaps:
        quality["paper_gap_pct"] = sum(gaps) / len(gaps)
    return quality


def _mapped(name: str):
    # Through the module attribute, so the traced run times the tech-map.
    return flow.technology_map(load_circuit(name))


class Table1Flow:
    """``ProposedFlow.run`` on the Table-I subset: the ``table1`` path."""

    name = "table1_flow"
    why = ("user's run/table1 path: ProposedFlow.run on synthetic s344, "
           "s444, s641, s1423; PODEM ~75% and the fault engine ~20% of "
           "the time")

    def __init__(self, circuits: tuple[str, ...] = ("s344", "s444", "s641",
                                                    "s1423")):
        self.circuits = circuits
        self._resimulated: set[str] = set()

    def setup(self, seed: int) -> dict[str, Any]:
        return {"config": FlowConfig(seed=seed),
                "circuits": {name: _mapped(name) for name in self.circuits}}

    def run_pass(self, inputs: dict[str, Any], step: Step
                 ) -> dict[str, float]:
        rows = []
        coverage = []
        for name, circuit in inputs["circuits"].items():
            result = step(name, flow.ProposedFlow(inputs["config"]).run,
                          circuit, check=self._check,
                          summary=self._summary)
            reports = result.reports
            rows.append(Table1Row.from_reports(
                name, reports["traditional"], reports["input_control"],
                reports["proposed"]))
            coverage.append(result.test_set)
        quality = _row_quality(rows)
        quality["fault_coverage_pct"] = 100.0 * sum(
            t.n_detected for t in coverage) / sum(t.n_faults for t in coverage)
        return quality

    def _check(self, result) -> None:
        _check_saves(result.reports["traditional"],
                     result.reports["proposed"])
        # Later passes repeat the same inputs; their digests must equal
        # the first pass's, which covers the test set's counts.
        if result.circuit.name not in self._resimulated:
            self._resimulate(result)
            self._resimulated.add(result.circuit.name)

    @staticmethod
    def _resimulate(result) -> None:
        """Re-fault-simulate the test set: it must detect ``n_detected``."""
        design, tests = result.design, result.test_set
        assignments = []
        for vector in tests.vectors:
            values = dict(vector.pi_values)
            values.update(design.chain.state_as_dict(vector.scan_state))
            assignments.append(values)
        words, n = pack_input_vectors(result.circuit, assignments)
        universe = collapse_faults(result.circuit,
                                   all_faults(result.circuit))
        again = fault_simulate(result.circuit, universe, words, n)
        if again.n_detected != tests.n_detected:
            raise CheckFailed(f"{result.circuit.name}: re-simulated test set "
                              f"detects {again.n_detected}, flow reported "
                              f"{tests.n_detected}")

    @staticmethod
    def _summary(result) -> dict[str, Any]:
        tests = result.test_set
        return {
            "tests": [len(tests.vectors), tests.n_faults, tests.n_detected,
                      tests.n_untestable, tests.n_aborted,
                      digest([[sorted(v.pi_values.items()), v.scan_state]
                              for v in tests.vectors])],
            "replay": {k: _report_summary(r)
                       for k, r in sorted(result.reports.items())},
        }


class ScanPower:
    """The post-ATPG half of the flow on s5378 over a random test set."""

    name = "scan_power"
    why = ("post-ATPG half of the flow on s5378, 2048 random vectors: "
           "input control and the episode replay engine; ATPG bypassed; "
           "memory peaks here")

    def __init__(self, circuit: str = "s5378", n_vectors: int = 2048):
        self.circuit = circuit
        self.n_vectors = n_vectors

    def setup(self, seed: int) -> dict[str, Any]:
        mapped = _mapped(self.circuit)
        design = ScanDesign.full_scan(mapped)
        rng = make_rng(derive_seed(seed, f"{self.name}:vectors"))
        pis = list(mapped.inputs)
        n_pis = len(pis)
        bits = rng.integers(0, 2, size=(self.n_vectors,
                                        n_pis + len(design.chain.q_lines)))
        vectors = [TestVector(pi_values=dict(zip(pis, map(int, row[:n_pis]))),
                              scan_state=tuple(map(int, row[n_pis:])))
                   for row in bits]
        return {"config": FlowConfig(seed=seed), "circuit": mapped,
                "design": design, "vectors": vectors}

    def run_pass(self, inputs: dict[str, Any], step: Step
                 ) -> dict[str, float]:
        # The same calls, arguments and order as ProposedFlow._run_steps.
        config: FlowConfig = inputs["config"]
        mapped, design = inputs["circuit"], inputs["design"]
        vectors = inputs["vectors"]
        library = config.library()

        addmux = step("add_mux", flow.add_mux, mapped, library,
                      margin_ps=config.mux_delay_margin_ps,
                      summary=lambda r: sorted(r.muxable))
        observability = step(
            "observability", flow.monte_carlo_observability, mapped,
            config.observability_samples,
            seed=derive_seed(config.seed, f"obs:{mapped.name}"),
            library=library,
            summary=lambda r: sorted((k, repr(v)) for k, v in r.items()))
        controlled = set(mapped.inputs) | set(addmux.muxable)
        sources = set(mapped.dff_outputs) - set(addmux.muxable)
        pattern = step(
            "find_pattern", flow.find_controlled_input_pattern, mapped,
            controlled, sources, observability=observability,
            library=library, max_backtracks=config.max_backtracks,
            summary=lambda r: [sorted(r.assignment.items()),
                               sorted(r.blocked_gates)])
        free = sorted(controlled - set(pattern.assignment))
        ivc = step(
            "ivc", flow.random_fill_search, mapped,
            fixed=pattern.assignment, free_lines=free,
            n_trials=config.ivc_trials,
            seed=derive_seed(config.seed, f"ivc:{mapped.name}"),
            library=library, noise_lines=sorted(sources),
            n_noise=config.ivc_noise_samples,
            summary=lambda r: [sorted(r.assignment.items()),
                               repr(r.leakage_na)])
        control_values = {**pattern.assignment, **ivc.assignment}

        def reorder():
            quiescent = flow.simulate_comb3(mapped, control_values)
            return flow.reorder_for_leakage(mapped, quiescent, library)

        reordered = step("reorder", reorder,
                         summary=lambda r: [sorted(r.swapped_gates.items()),
                                            repr(r.saved_na)])
        ic = step("input_control", flow.input_control_pattern, mapped,
                  library, max_backtracks=config.max_backtracks,
                  summary=lambda r: sorted(r.pi_values.items()))

        proposed_design = ScanDesign(
            reordered.circuit,
            ScanChain.from_circuit(reordered.circuit,
                                   order=design.chain.q_lines))
        policies = {
            "traditional": (design, ShiftPolicy(name="traditional")),
            "input_control": (design, ic.policy()),
            "proposed": (proposed_design, ShiftPolicy(
                name="proposed",
                pi_values={pi: control_values[pi] for pi in mapped.inputs},
                mux_ties={q: control_values[q] for q in addmux.muxable})),
        }
        reports: dict[str, ScanPowerReport] = {}
        for name, (target, policy) in policies.items():
            reports[name] = step(
                f"replay_{name}", flow.evaluate_scan_power, target,
                vectors, policy, library, config.include_capture_cycles,
                check=functools.partial(_check_saves, reports["traditional"])
                if name == "proposed" else None,
                summary=_report_summary)
        row = Table1Row.from_reports(self.circuit, reports["traditional"],
                                     reports["input_control"],
                                     reports["proposed"])
        return _row_quality([row])


class FaultSim:
    """s5378's collapsed universe through one ``FaultSimSession``."""

    name = "fault_sim"
    why = ("fault engine alone on s5378: cold then shrinking 64-pattern "
           "drop batches (ATPG random phase), then a no-drop compaction "
           "matrix; no PODEM, no replay")

    #: Faults per call whose detection words are re-derived by the scalar
    #: reference replay.
    SAMPLE = 24

    def __init__(self, circuit: str = "s5378", n_batches: int = 3,
                 batch: int = 64):
        self.circuit = circuit
        self.n_batches = n_batches
        self.batch = batch

    def setup(self, seed: int) -> dict[str, Any]:
        mapped = _mapped(self.circuit)
        rng = make_rng(derive_seed(seed, f"{self.name}:patterns"))
        return {
            "seed": seed, "circuit": mapped,
            "universe": collapse_faults(mapped, all_faults(mapped)),
            "words": [random_input_words(mapped, self.batch, rng)
                      for _ in range(self.n_batches)],
        }

    def run_pass(self, inputs: dict[str, Any], step: Step
                 ) -> dict[str, float]:
        circuit, universe = inputs["circuit"], inputs["universe"]
        lines = comb_input_lines(circuit)
        session = FaultSimSession(circuit)
        remaining = list(universe)
        kept: list[dict[str, int]] = []
        for b, words in enumerate(inputs["words"]):
            label = f"drop_{b}"
            result = step(label, session.simulate, remaining, words,
                          self.batch, drop=True,
                          check=self._checker(inputs, label, remaining,
                                              words, self.batch),
                          summary=_detections)
            first = sorted({(w & -w).bit_length() - 1
                            for w in result.detected.values()})
            kept.extend({line: bit_at(words[line], t) for line in lines}
                        for t in first)
            remaining = result.remaining
        covered = len(universe) - len(remaining)
        words, n = pack_input_vectors(circuit, kept)
        step("matrix", session.simulate, universe, words, n, drop=False,
             check=self._checker(inputs, "matrix", universe, words, n),
             summary=_detections)
        return {"fault_coverage_pct": 100.0 * covered / len(universe)}

    def _checker(self, inputs: dict[str, Any], label: str,
                 faults: list[Fault], words: dict[str, int], n: int
                 ) -> Callable[[Any], None]:
        def check(result) -> None:
            detected = result.detected
            if result.remaining != [f for f in faults if f not in detected]:
                raise CheckFailed(f"{label}: remaining is not the undetected "
                                  f"faults in input order")
            rng = make_rng(derive_seed(inputs["seed"], f"sample:{label}"))
            picks = rng.choice(len(faults), min(self.SAMPLE, len(faults)),
                               replace=False)
            sample = [faults[i] for i in sorted(picks)]
            good = simulate_packed(inputs["circuit"], words, n)
            reference = scalar_replay(inputs["circuit"], sample, good, n)
            for fault in sample:
                if detected.get(fault, 0) != reference.detected.get(fault, 0):
                    raise CheckFailed(f"{label}: detection word of {fault} "
                                      f"differs from the scalar replay")
        return check


def _detections(result) -> list:
    return [sorted((f.line, f.stuck_at, w)
                   for f, w in result.detected.items()),
            len(result.remaining)]


WORKLOADS = {w.name: w for w in (Table1Flow, ScanPower, FaultSim)}
