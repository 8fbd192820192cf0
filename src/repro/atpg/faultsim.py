"""Bit-parallel stuck-at fault simulation with fault dropping.

For each fault: force the faulty line's packed waveform to the stuck
value, re-simulate only the fault's fanout cone, and compare the good and
faulty words at the observable lines.  With 64-4096 patterns per packed
word this is the standard parallel-pattern single-fault method.

:func:`fault_simulate` compiles its arguments into a one-shot
:class:`~repro.simulation.fault_episode.FaultEpisodePlan` and hands it
to the selected engine's
:meth:`~repro.simulation.backends.base.Backend.fault_simulate_plan`, the
one fault-simulation entry point every engine has:

* ``bigint`` runs :func:`scalar_replay` below (the bit-exact reference);
* ``numpy``/``array_api`` replay whole fault batches on the ``uint64``
  pattern matrix (:mod:`repro.simulation.backends.fault_kernel`);
* ``sharded`` partitions the fault list (or the pattern axis) over
  worker processes and merges the per-shard results deterministically
  (:mod:`repro.simulation.backends.sharded`).

All engines return bit-identical detection words and the same
``remaining`` ordering; the differential property tests in
``tests/properties`` enforce this.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence

from repro.atpg.faults import Fault, observable_lines
from repro.netlist.circuit import Circuit
from repro.simulation.backends import Backend, resolve_backend
from repro.simulation.bitsim import eval_gate_packed
from repro.simulation.fault_episode import FaultEpisodePlan
from repro.simulation.values import mask

__all__ = ["FaultSimResult", "detect_word", "fault_simulate",
           "scalar_replay"]


@dataclasses.dataclass
class FaultSimResult:
    """Outcome of simulating a fault list against a pattern set.

    ``detected[f]`` is the packed word of patterns that detect ``f``
    (missing = undetected); ``remaining`` lists the *undetected* faults,
    in the order they were given.
    """

    detected: dict[Fault, int]
    remaining: list[Fault]

    @classmethod
    def from_words(cls, faults: Sequence[Fault],
                   words: Mapping[Fault, int]) -> "FaultSimResult":
        """Result from per-fault detection words (missing = undetected).

        ``detected`` and ``remaining`` follow ``faults``' order, so every
        engine, window fold and shard merge reports the same ordering.
        """
        detected: dict[Fault, int] = {}
        remaining: list[Fault] = []
        for fault in faults:
            word = words.get(fault, 0)
            if word:
                detected[fault] = word
            else:
                remaining.append(fault)
        return cls(detected=detected, remaining=remaining)

    @property
    def n_detected(self) -> int:
        return len(self.detected)

    def coverage(self, n_faults: int | None = None) -> float:
        total = n_faults if n_faults is not None else \
            len(self.detected) + len(self.remaining)
        if total == 0:
            return 1.0
        return len(self.detected) / total


def _cone_order(circuit: Circuit, line: str) -> list[str]:
    """Gate outputs in the fanout cone of ``line``, topologically ordered."""
    cone = circuit.fanout_cone(line)
    return [g for g in circuit.topo_order() if g in cone and g != line]


def detect_word(circuit: Circuit, fault: Fault, good: Mapping[str, int],
                n: int, obs: Sequence[str] | None = None,
                cone: Sequence[str] | None = None) -> int:
    """Packed word of patterns on which ``fault`` is detected.

    ``good`` must hold the fault-free simulation of all lines for the same
    patterns (from :func:`repro.simulation.bitsim.simulate_packed`).
    """
    full = mask(n)
    faulty_value = full if fault.stuck_at else 0
    if good.get(fault.line, None) == faulty_value:
        return 0  # stuck value equals the good value everywhere

    obs = obs if obs is not None else observable_lines(circuit)
    cone = cone if cone is not None else _cone_order(circuit, fault.line)

    faulty: dict[str, int] = {fault.line: faulty_value}
    for out in cone:
        gate = circuit.gates[out]
        words = [faulty.get(src, good[src]) for src in gate.inputs]
        value = eval_gate_packed(gate.gtype, words, full)
        if value == good[out]:
            # Effect dies here; only record differences.
            faulty.pop(out, None)
        else:
            faulty[out] = value

    detected = 0
    for line in obs:
        if line in faulty:
            detected |= faulty[line] ^ good[line]
    return detected


def scalar_replay(circuit: Circuit, faults: Sequence[Fault],
                  good: Mapping[str, int], n: int,
                  cone_cache: dict[str, list[str]] | None = None
                  ) -> FaultSimResult:
    """Scalar cone replay over an already-settled good machine.

    ``good`` holds the fault-free interchange words of every line
    (whichever backend produced them — words are backend-agnostic).
    This is the reference replay behind
    :meth:`~repro.simulation.backends.base.Backend.fault_simulate_plan`
    and the semantics every vectorized kernel must reproduce exactly.
    ``cone_cache`` may be shared across calls on the same (unmodified)
    circuit to amortise fanout-cone extraction.
    """
    obs = observable_lines(circuit)
    if cone_cache is None:
        cone_cache = {}
    words: dict[Fault, int] = {}
    for fault in faults:
        cone = cone_cache.get(fault.line)
        if cone is None:
            cone = _cone_order(circuit, fault.line)
            cone_cache[fault.line] = cone
        words[fault] = detect_word(circuit, fault, good, n, obs, cone)
    return FaultSimResult.from_words(faults, words)


def fault_simulate(circuit: Circuit, faults: Sequence[Fault],
                   input_words: Mapping[str, int], n: int,
                   drop: bool = True,
                   cone_cache: dict[str, list[str]] | None = None,
                   backend: str | Backend | None = None
                   ) -> FaultSimResult:
    """Simulate ``faults`` against ``n`` packed patterns.

    ``remaining`` always holds exactly the undetected faults, in input
    order.  ``drop=True`` (default) lets an engine stop refining a fault
    once it is detected; the detection word still records *all* detecting
    patterns of this batch (which reverse-order compaction exploits), so
    the result does not depend on ``drop``.  Dropping *across* batches is
    the caller's job: feed ``result.remaining`` to the next call.

    ``cone_cache`` may be shared across calls on the same (unmodified)
    circuit to amortise fanout-cone extraction on the scalar path
    (vectorized engines keep their own per-circuit plans).

    ``backend`` selects the fault-simulation engine (name, instance or
    ``None``); ``None`` resolves through
    :func:`~repro.simulation.backends.resolve_backend`.  The call
    is one :class:`~repro.simulation.fault_episode.FaultEpisodePlan`
    on that engine and, like a
    :class:`~repro.simulation.fault_episode.FaultSimSession`, streams
    pattern windows when a stream budget resolves and the good machine
    exceeds it.  Detection words and ``remaining`` ordering are
    bit-identical across all engines.
    """
    engine = resolve_backend(backend)
    if n == 0:
        return FaultSimResult(detected={}, remaining=list(faults))
    plan = FaultEpisodePlan(circuit, faults, input_words, n,
                            cone_cache=cone_cache)
    return engine.fault_simulate_plan(plan, drop=drop)
