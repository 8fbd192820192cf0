"""Serial scan-episode reference: the per-vector, per-cycle replay loop.

The production power path (:mod:`repro.power.scanpower`,
:mod:`repro.scan.multichain`) compiles a whole test set into one
:class:`~repro.simulation.episode.EpisodePlan` and evaluates it with
``Backend.simulate_episode_batch``.  This module keeps the serial
construction as an independent oracle: waveforms are assembled one
vector, one shift cycle and one line at a time, with one scalar capture
simulation per vector, and replayed through
:func:`~repro.simulation.cyclesim.simulate_cycles`.  The differential
tests and the episode-batch bench compare the two bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cells.capacitance import switched_caps_ff
from repro.cells.library import CellLibrary, default_library
from repro.errors import ScanError
from repro.leakage.estimator import _word_to_bool_array, leakage_power_uw
from repro.power.dynamic import (
    energy_per_cycle_uw_per_hz,
    switching_energy_fj,
)
from repro.power.scanpower import ScanPowerReport, ShiftPolicy
from repro.scan.multichain import (
    MultiChainDesign,
    evaluate_multichain_power,
)
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.backends import Backend, resolve_backend
from repro.simulation.cyclesim import simulate_cycles
from repro.simulation.values import pack_bits


def _policy_pi_bit(policy: ShiftPolicy, pi: str, vector: TestVector) -> int:
    if policy.pi_values is not None and pi in policy.pi_values:
        return policy.pi_values[pi]
    return vector.pi_values[pi]


def serial_episode_waveforms(design: ScanDesign,
                             vectors: Sequence[TestVector],
                             policy: ShiftPolicy | None = None,
                             include_capture: bool = True,
                             initial_state: Sequence[int] | None = None
                             ) -> tuple[dict[str, int], int]:
    """Per-line packed waveforms of the whole scan episode.

    Shift cycles present the policy's constants (PIs, MUX ties) and the
    live chain state on non-muxed pseudo-inputs; capture cycles present
    the test vector itself (MUXes transparent in normal mode).
    """
    policy = policy or ShiftPolicy()
    circuit = design.circuit
    chain = design.chain
    if not vectors:
        raise ScanError("empty test set")
    unknown_mux = set(policy.mux_ties) - set(chain.q_lines)
    if unknown_mux:
        raise ScanError(f"mux ties on unknown cells: {sorted(unknown_mux)}")

    state = tuple(initial_state) if initial_state is not None \
        else (0,) * chain.length
    if len(state) != chain.length:
        raise ScanError("initial state length mismatch")

    pi_bits: dict[str, list[int]] = {pi: [] for pi in circuit.inputs}
    q_bits: dict[str, list[int]] = {q: [] for q in chain.q_lines}
    for vector in vectors:
        if len(vector.scan_state) != chain.length:
            raise ScanError("test vector scan state length mismatch")
        shift_states = chain.load_states(state, vector.scan_state)
        for cycle_state in shift_states:
            for pi in circuit.inputs:
                pi_bits[pi].append(_policy_pi_bit(policy, pi, vector))
            for cell, bit in zip(chain.cells, cycle_state):
                tie = policy.mux_ties.get(cell.q)
                q_bits[cell.q].append(bit if tie is None else tie)
        if shift_states[-1] != vector.scan_state:
            raise ScanError("shift protocol failed to load the vector")
        if include_capture:
            for pi in circuit.inputs:
                pi_bits[pi].append(vector.pi_values[pi])
            for cell, bit in zip(chain.cells, vector.scan_state):
                q_bits[cell.q].append(bit)
        state, _po_values = design.capture(vector)

    all_bits = {**pi_bits, **q_bits}
    n_cycles = len(next(iter(all_bits.values())))
    waveforms = {line: pack_bits(bits) for line, bits in all_bits.items()}
    return waveforms, n_cycles


def serial_scan_power(design: ScanDesign, vectors: Sequence[TestVector],
                      policy: ShiftPolicy | None = None,
                      library: CellLibrary | None = None,
                      include_capture: bool = True,
                      initial_state: Sequence[int] | None = None,
                      backend: str | Backend | None = None
                      ) -> ScanPowerReport:
    """:func:`~repro.power.scanpower.evaluate_scan_power`, serially."""
    policy = policy or ShiftPolicy()
    library = library or default_library()
    circuit = design.circuit
    waveforms, n_cycles = serial_episode_waveforms(
        design, vectors, policy, include_capture, initial_state)
    result = simulate_cycles(circuit, waveforms, n_cycles, library,
                             collect_leakage=True,
                             backend=resolve_backend(backend))
    energy_fj = switching_energy_fj(circuit, result.transitions, library)
    return ScanPowerReport(
        circuit_name=circuit.name,
        policy_name=policy.name,
        n_vectors=len(vectors),
        n_cycles=n_cycles,
        dynamic_uw_per_hz=energy_per_cycle_uw_per_hz(energy_fj, n_cycles),
        static_uw=leakage_power_uw(result.mean_leakage_na, library.vdd),
        total_transitions=result.total_transitions,
        mean_leakage_na=result.mean_leakage_na,
    )


def serial_energy_profile(design: ScanDesign,
                          vectors: Sequence[TestVector],
                          policy: ShiftPolicy | None = None,
                          library: CellLibrary | None = None,
                          include_capture: bool = True,
                          backend: str | Backend | None = None
                          ) -> np.ndarray:
    """:func:`~repro.power.scanpower.per_cycle_energy_fj`, serially."""
    library = library or default_library()
    circuit = design.circuit
    waveforms, n_cycles = serial_episode_waveforms(
        design, vectors, policy, include_capture)
    sim = simulate_cycles(circuit, waveforms, n_cycles, library,
                          collect_leakage=False, keep_waveforms=True,
                          backend=resolve_backend(backend))
    caps = switched_caps_ff(circuit, library)
    profile = np.zeros(max(n_cycles - 1, 0), dtype=np.float64)
    boundary_mask = (1 << max(n_cycles - 1, 0)) - 1
    for line, word in sim.waveforms.items():
        toggles = (word ^ (word >> 1)) & boundary_mask
        if toggles:
            bits = _word_to_bool_array(toggles, n_cycles - 1)
            profile += bits * library.switching_energy_fj(
                caps.get(line, 0.0))
    return profile


class CycleReplayBackend(Backend):
    """Backend double whose episode batches replay through
    :func:`~repro.simulation.cyclesim.simulate_cycles` on ``engine``."""

    def __init__(self, engine: Backend):
        self.engine = engine
        self.name = engine.name

    def run(self, circuit, input_words, n):
        return self.engine.run(circuit, input_words, n)

    def eval_gate_packed(self, gtype, words, n):
        return self.engine.eval_gate_packed(gtype, words, n)

    def simulate_episode_batch(self, plan, library=None,
                               collect_leakage=True, keep_waveforms=False,
                               stream_budget=None):
        return simulate_cycles(plan.circuit, plan.waveforms, plan.n_cycles,
                               library, collect_leakage=collect_leakage,
                               keep_waveforms=keep_waveforms,
                               backend=self.engine)


def serial_multichain_power(design: MultiChainDesign,
                            vectors: Sequence[TestVector],
                            policy: ShiftPolicy | None = None,
                            library: CellLibrary | None = None,
                            include_capture: bool = True,
                            backend: str | Backend | None = None
                            ) -> ScanPowerReport:
    """:func:`~repro.scan.multichain.evaluate_multichain_power` with the
    parallel-shift stimulus replayed through the plain cycle simulation
    instead of the episode batch."""
    return evaluate_multichain_power(
        design, vectors, policy, library, include_capture,
        backend=CycleReplayBackend(resolve_backend(backend)))
