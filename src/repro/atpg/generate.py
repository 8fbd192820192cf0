"""Full deterministic test-set generation (the ATOM [18] substitute).

Pipeline:

1. **Random phase** — batches of packed random vectors are fault-simulated
   with dropping; each pattern that is the *first* detector of some fault
   is kept (like ATOM's random phase).
2. **Deterministic phase** — PODEM per remaining fault, in batches:
   don't-cares are random-filled and the whole batch of new vectors is
   fault-simulated at once against the remaining list (collateral
   detections drop out cheaply).
3. **Reverse-order compaction** — one packed no-drop fault simulation of
   the kept set produces a detection matrix; a reverse greedy pass keeps a
   vector only if it detects some fault no later-kept vector detects.

The output is a :class:`TestSet` of :class:`~repro.scan.TestVector`
objects in application order, plus coverage statistics.  Seeded and fully
deterministic.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np

from repro.atpg.collapse import collapse_faults
from repro.atpg.faults import Fault, all_faults
from repro.atpg.faultsim import FaultSimResult
from repro.atpg.podem import PodemEngine, generate_test
from repro.scan.testview import ScanDesign, TestVector
from repro.simulation.backends import Backend
from repro.simulation.bitsim import pack_input_vectors, random_input_words
from repro.simulation.eval2 import comb_input_lines
from repro.simulation.fault_episode import FaultSimSession
from repro.simulation.values import bit_at
from repro.utils.rng import derive_seed, make_rng

__all__ = ["TestSet", "AtpgConfig", "generate_tests"]


@dataclasses.dataclass(frozen=True)
class AtpgConfig:
    """Knobs of the test generation pipeline."""

    seed: int = 0
    random_batch: int = 64
    max_random_batches: int = 16
    min_batch_yield: int = 1      # stop random phase below this many detects
    max_backtracks: int = 100
    podem_batch: int = 32
    compaction: bool = True


@dataclasses.dataclass
class TestSet:
    """A generated scan test set with its bookkeeping."""

    #: keep pytest from collecting this dataclass as a test case
    __test__ = False

    vectors: list[TestVector]
    n_faults: int                  # collapsed universe size
    n_detected: int
    n_untestable: int
    n_aborted: int

    @property
    def fault_coverage(self) -> float:
        """Detected / total (collapsed) faults."""
        if self.n_faults == 0:
            return 1.0
        return self.n_detected / self.n_faults

    @property
    def testable_coverage(self) -> float:
        """Detected / (total - proven untestable)."""
        denom = self.n_faults - self.n_untestable
        if denom <= 0:
            return 1.0
        return self.n_detected / denom

    def summary(self) -> str:
        return (f"{len(self.vectors)} vectors, "
                f"{self.n_detected}/{self.n_faults} faults "
                f"({self.fault_coverage:.1%} coverage, "
                f"{self.n_untestable} untestable, "
                f"{self.n_aborted} aborted)")


def _assignment_to_vector(design: ScanDesign,
                          values: dict[str, int]) -> TestVector:
    pi_values = {pi: values[pi] for pi in design.circuit.inputs}
    scan_state = tuple(values[q] for q in design.chain.q_lines)
    return TestVector(pi_values=pi_values, scan_state=scan_state)


def _vector_to_assignment(design: ScanDesign,
                          vector: TestVector) -> dict[str, int]:
    values = dict(vector.pi_values)
    values.update(design.chain.state_as_dict(vector.scan_state))
    return values


def generate_tests(design: ScanDesign,
                   config: AtpgConfig | None = None,
                   backend: str | Backend | None = None,
                   fault_backend: str | Backend | None = None,
                   stream_budget: int | None = None) -> TestSet:
    """Generate a compacted stuck-at test set for a full-scan design.

    ``backend`` selects the packed-simulation engine for every fault
    simulation; ``fault_backend`` overrides it for the fault simulations
    specifically (e.g. the ``sharded`` meta-backend for large collapsed
    universes) and defaults to ``backend``.  Results are bit-identical
    across backends, so the generated test set never depends on either.

    All fault simulations run through one persistent
    :class:`~repro.simulation.fault_episode.FaultSimSession` that
    carries the fanout-cone cache and good-machine states across the
    pipeline's batches.  ``stream_budget`` bounds the session's planned
    replays out of core (``None`` = session default /
    ``$REPRO_STREAM_BUDGET``, ``0`` off); streaming is bit-identical, so
    the test set never depends on it.

    When the resolved fault engine is a sharding meta-backend that
    would actually split this circuit's collapsed universe, the inner
    fault-simulation loop runs against the process-wide shared worker
    pool (:func:`repro.campaign.pool.ensure_shared_pool`) by default:
    ATPG makes many fault-simulation calls on the same circuit, and
    live workers with interned plan caches beat a fresh fork per call.
    An explicitly attached pool, or an already active shared pool, is
    honoured as-is.
    """
    config = config or AtpgConfig()
    from repro.simulation.backends import (
        ShardedBackend,
        resolve_fault_backend,
    )
    engine = resolve_fault_backend(
        fault_backend if fault_backend is not None else backend)
    circuit = design.circuit
    universe = collapse_faults(circuit, all_faults(circuit))
    pool_ctx: contextlib.AbstractContextManager = contextlib.nullcontext()
    if isinstance(engine, ShardedBackend) and engine.pool is None \
            and engine.effective_shards(len(universe)) > 1:
        from repro.campaign.pool import (
            active_shared_pool,
            ensure_shared_pool,
        )
        if active_shared_pool() is None:
            pool_ctx = engine.using_pool(ensure_shared_pool())
    with pool_ctx:
        session = FaultSimSession(circuit, engine,
                                  stream_budget=stream_budget)
        return _generate_tests(design, config, universe, session)


def _generate_tests(design: ScanDesign, config: AtpgConfig,
                    universe: list[Fault],
                    session: FaultSimSession) -> TestSet:
    """The generation pipeline proper (fault session fully resolved)."""
    circuit = design.circuit
    remaining: list[Fault] = list(universe)
    kept_vectors: list[TestVector] = []
    n_untestable = 0
    aborted: list[Fault] = []

    # ---- phase 1: random patterns ------------------------------------- #
    rng = make_rng(derive_seed(config.seed, f"atpg:{circuit.name}"))
    for _batch in range(config.max_random_batches):
        if not remaining:
            break
        n = config.random_batch
        words = random_input_words(circuit, n, rng)
        result = session.simulate(remaining, words, n, drop=True)
        if len(result.detected) < config.min_batch_yield:
            break
        first_detectors: set[int] = set()
        for word in result.detected.values():
            first_detectors.add((word & -word).bit_length() - 1)
        for t in sorted(first_detectors):
            values = {line: bit_at(words[line], t)
                      for line in comb_input_lines(circuit)}
            kept_vectors.append(_assignment_to_vector(design, values))
        remaining = result.remaining

    # ---- phase 2: PODEM in batches ------------------------------------- #
    engine = PodemEngine(circuit) if remaining else None
    while remaining:
        batch = remaining[:config.podem_batch]
        new_assignments: list[dict[str, int]] = []
        proven_untestable: set[Fault] = set()
        for fault in batch:
            outcome = generate_test(circuit, fault, config.max_backtracks,
                                    engine=engine)
            if outcome.status == "untestable":
                proven_untestable.add(fault)
                n_untestable += 1
            elif outcome.status == "aborted":
                aborted.append(fault)
            else:
                values = dict(outcome.assignment)
                for line in comb_input_lines(circuit):
                    if line not in values:
                        values[line] = int(rng.integers(2))
                new_assignments.append(values)
        handled = set(batch)
        remaining = [f for f in remaining if f not in handled]
        if new_assignments:
            words, n = pack_input_vectors(circuit, new_assignments)
            targets = batch + remaining
            targets = [f for f in targets
                       if f not in proven_untestable and f not in aborted]
            result = session.simulate(targets, words, n, drop=True)
            still = set(result.remaining)
            remaining = [f for f in remaining if f in still]
            kept_vectors.extend(
                _assignment_to_vector(design, values)
                for values in new_assignments)
        # Batch faults neither proven untestable nor detected by the new
        # vectors were aborted or collaterally missed; they are dropped
        # from further generation (counted via `aborted` when applicable).

    # ---- phase 3: reverse-order compaction ----------------------------- #
    matrix: FaultSimResult | None = None
    kept_mask = 0
    if config.compaction and kept_vectors:
        kept_vectors, kept_mask, matrix = _reverse_compact(
            design, universe, kept_vectors, session)

    # final coverage accounting on the kept set
    n_detected = 0
    if matrix is not None:
        # The no-drop compaction matrix already holds, per fault, the
        # word of detecting vectors; a fault is detected by the
        # compacted set iff that word hits a kept column (per-pattern
        # detection is independent, so this equals a re-simulation of
        # the compacted set bit for bit).
        n_detected = sum(1 for word in matrix.detected.values()
                         if word & kept_mask)
    elif kept_vectors:
        # Compaction off: one drop-mode pass over the kept set.
        assignments = [_vector_to_assignment(design, v)
                       for v in kept_vectors]
        words, n = pack_input_vectors(circuit, assignments)
        n_detected = session.simulate(universe, words, n,
                                      drop=True).n_detected

    return TestSet(
        vectors=kept_vectors,
        n_faults=len(universe),
        n_detected=n_detected,
        n_untestable=n_untestable,
        n_aborted=len(aborted),
    )


def _reverse_compact(design: ScanDesign, universe: list[Fault],
                     vectors: list[TestVector],
                     session: FaultSimSession
                     ) -> tuple[list[TestVector], int, FaultSimResult]:
    """Reverse-order compaction via one no-drop detection matrix.

    One packed fault simulation of all kept vectors yields, per fault, the
    word of detecting vectors; the reverse greedy pass is then pure bit
    arithmetic.  Returns ``(kept vectors, packed keep mask, matrix)`` so
    the final coverage accounting can be read off the matrix instead of
    re-simulating.  The greedy pass runs vectorized
    (:func:`_greedy_keep_vectorized`).
    """
    circuit = design.circuit
    assignments = [_vector_to_assignment(design, v) for v in vectors]
    words, n = pack_input_vectors(circuit, assignments)
    matrix = session.simulate(universe, words, n, drop=False)
    keep = _greedy_keep_vectorized(matrix, len(vectors))
    kept_mask = sum(1 << t for t, k in enumerate(keep) if k)
    return [v for v, k in zip(vectors, keep) if k], kept_mask, matrix


def _greedy_keep_vectorized(matrix: FaultSimResult,
                            n_vectors: int) -> list[bool]:
    """Vectorized reverse-greedy keep-set (numpy bool matrix).

    The detection words become a ``(faults, vectors)`` bool matrix once;
    each reverse step is then one column AND / row update instead of an
    O(faults) Python list scan per vector.  Identical keep-set to the
    plain big-int reverse scan by construction (the same faults are
    covered and removed at every step).
    """
    words = [word for word in matrix.detected.values() if word]
    keep = [False] * n_vectors
    if not words:
        return keep
    n_bytes = (n_vectors + 7) // 8
    raw = b"".join(word.to_bytes(n_bytes, "little") for word in words)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(words),
                                                        n_bytes)
    bits = np.unpackbits(packed, axis=1,
                         bitorder="little")[:, :n_vectors].astype(bool)
    uncovered = np.ones(len(words), dtype=bool)
    for t in range(n_vectors - 1, -1, -1):
        column = bits[:, t]
        if (column & uncovered).any():
            keep[t] = True
            uncovered &= ~column
        if not uncovered.any():
            break
    return keep
