"""Per-batch fault-simulation reference for the planned ATPG path.

Production ATPG (:func:`repro.atpg.generate.generate_tests`) sends every
fault simulation through a :class:`~repro.simulation.fault_episode.
FaultSimSession`, which compiles each call into a fault x pattern plan.
It picks compaction vectors with the vectorized reverse greedy pass and
reads final coverage off the compaction matrix.  This module keeps the
per-batch reference of each of those three steps:

* :class:`PerBatchSession` — a session double whose every call settles
  the good machine afresh and replays it with the scalar
  :func:`~repro.atpg.faultsim.scalar_replay`;
* :func:`greedy_keep_bigint` — the reverse greedy keep-set as plain
  big-int column scans;
* :func:`reference_generate_tests` — the generation pipeline on those
  two, with coverage counted by one more drop-mode pass over the
  compacted set.

The differential tests compare the production path against them bit
for bit.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from unittest import mock

import repro.atpg.generate as generate
from repro.atpg.collapse import collapse_faults
from repro.atpg.faults import Fault, all_faults
from repro.atpg.faultsim import FaultSimResult, scalar_replay
from repro.atpg.generate import AtpgConfig, TestSet
from repro.netlist.circuit import Circuit
from repro.scan.testview import ScanDesign
from repro.simulation.backends import Backend, resolve_backend
from repro.simulation.bitsim import pack_input_vectors


class PerBatchSession:
    """``FaultSimSession`` double: one scalar replay per call.

    No plan, no good-machine pool: every call re-simulates the fault-free
    machine on ``backend`` and replays the faults with the scalar cone
    replay, so the oracle never runs the engine's fault kernel.  The
    fanout-cone cache is shared across calls, as the scalar path
    expects.  ``drop`` cannot change one call's result, so it is
    ignored.
    """

    def __init__(self, circuit: Circuit,
                 backend: str | Backend | None = None):
        self.circuit = circuit
        self.engine = resolve_backend(backend)
        self.cone_cache: dict[str, list[str]] = {}

    def simulate(self, faults: Sequence[Fault],
                 input_words: Mapping[str, int], n: int,
                 drop: bool = True) -> FaultSimResult:
        good = self.engine.simulate_packed(self.circuit, input_words, n)
        return scalar_replay(self.circuit, faults, good, n,
                             cone_cache=self.cone_cache)


def greedy_keep_bigint(matrix: FaultSimResult,
                       n_vectors: int) -> list[bool]:
    """Reference reverse-greedy keep-set: big-int column scans."""
    still_uncovered = [word for word in matrix.detected.values() if word]
    keep: list[bool] = [False] * n_vectors
    for t in range(n_vectors - 1, -1, -1):
        bit = 1 << t
        hits = [w for w in still_uncovered if w & bit]
        if hits:
            keep[t] = True
            still_uncovered = [w for w in still_uncovered if not (w & bit)]
        if not still_uncovered:
            break
    return keep


def reference_generate_tests(design: ScanDesign,
                             config: AtpgConfig | None = None,
                             backend: str | Backend | None = None
                             ) -> TestSet:
    """:func:`~repro.atpg.generate.generate_tests`, per batch.

    Runs the same random, PODEM and compaction phases on a
    :class:`PerBatchSession` with :func:`greedy_keep_bigint` as the
    keep-set, then recounts coverage by re-simulating the compacted set
    instead of reading it off the compaction matrix.
    """
    config = config or AtpgConfig()
    circuit = design.circuit
    universe = collapse_faults(circuit, all_faults(circuit))
    session = PerBatchSession(circuit, backend)
    with mock.patch.object(generate, "_greedy_keep_vectorized",
                           greedy_keep_bigint):
        test_set = generate._generate_tests(design, config, universe,
                                            session)
    if test_set.vectors:
        assignments = [generate._vector_to_assignment(design, v)
                       for v in test_set.vectors]
        words, n = pack_input_vectors(circuit, assignments)
        test_set.n_detected = session.simulate(universe, words, n,
                                               drop=True).n_detected
    return test_set
