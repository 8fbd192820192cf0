"""Process-sharded simulation meta-backend (fault, pattern and cycle axes).

``ShardedBackend`` wraps an inner engine (``numpy`` by default).  Plain
packed simulation delegates straight to the inner backend.  Fault
simulation (:meth:`ShardedBackend.fault_simulate_plan`, its one fault
entry point) cuts a compiled plan into slice plans — contiguous fault
ranges in drop mode, word-aligned pattern windows for no-drop
detection matrices — replays each slice in a worker process through the
inner engine's own ``fault_simulate_plan``, and merges the slices in
plan fault order (fault ranges concatenate, pattern windows OR their
shifted detection words).  Batched *episode* simulation
(:meth:`ShardedBackend.simulate_episode_batch`) shards the cycle axis:
oversized :class:`~repro.simulation.episode.EpisodePlan`\\ s are split
into contiguous **cycle ranges** under a fixed memory budget, each chunk
is simulated by a worker, and the chunk results are merged with
integer-exact arithmetic (transition counts add, boundary transitions
are recovered from the chunk-edge bits, leakage pattern counts add and
are priced once) — so the merge is bit-identical to the unsharded pass
for every chunk count.

Determinism guarantees:

* fault shards are contiguous slices of the plan's fault list, and
  every (fault, pattern) detection bit is computed independently, so
  both merges give ``detected``/``remaining`` in plan fault order —
  the single-process result exactly;
* every shard runs the same bit-identical kernel on the same patterns,
  so detection words never depend on the shard count or the axis (the
  differential property tests pin this against the big-int reference);
* fault dropping happens per shard — each worker drops its own detected
  faults — which is exactly the reference semantics, because dropping
  never crosses fault boundaries within one call;
* episode chunks merge through integer pattern/transition counts and a
  single float pricing pass in table order, so leakage floats and
  concatenated waveforms never depend on the chunk count either.

Calls too small to split (fewer than two shards' worth of faults, or a
single pattern word) run inline on the inner backend: starting workers
costs more than it saves there, and the result is identical by
construction.

Every sharded call dispatches through one method,
:meth:`ShardedBackend._scatter`, onto a pool or transient pool — both
:class:`~repro.campaign.pool.WorkerPool`\\ s, so shards get supervised
respawn, ``pool.task`` spans and the pool's chaos sites.  The call's
shared inputs travel as one :class:`_Job`:

* an attached pool (``pool=`` or :meth:`ShardedBackend.using_pool`) or
  the process-wide shared pool
  (:func:`repro.campaign.pool.ensure_shared_pool`) receives the job cut
  down to each task's fault slice and cycle window; workers intern the
  circuit by content fingerprint, so their plan caches keep hitting
  across calls;
* otherwise a transient pool runs the call.  Where the platform forks,
  it is started after the job is published, so its workers inherit the
  job and the parent's warmed caches copy-on-write and each task
  carries only its bounds; on spawn/forkserver platforms it receives
  the cut-down jobs like a live pool.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import OrderedDict
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.cells.library import CellLibrary
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.obs.trace import span
from repro.simulation.backends.base import Backend, SimState
from repro.simulation.fault_episode import FaultEpisodePlan
from repro.simulation.streaming import (
    PlanByteStore,
    episode_window_ingredients,
    merge_fault_windows,
    plan_byte_map,
    resolve_stream_budget,
    shard_bounds,
    state_elements,
    stream_episode_ingredients,
    window_word,
    word_windows,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    import numpy as np

    from repro.atpg.faults import Fault
    from repro.atpg.faultsim import FaultSimResult
    from repro.campaign.pool import WorkerPool
    from repro.simulation.episode import EpisodeBatchResult, EpisodePlan

__all__ = ["ShardedBackend", "shard_bounds", "DEFAULT_SHARDS_ENV"]

#: Environment variable supplying the default worker count.
DEFAULT_SHARDS_ENV = "REPRO_SIM_SHARDS"

#: ``uint64``-element budget of one episode chunk's state matrix
#: (lines x words), ~32 MiB — the same order as the fault kernel's
#: batch budget.  Plans that fit run inline on the inner backend.
_EPISODE_ELEMENT_BUDGET = 1 << 22

#: One shard task: a ``[start, stop)`` fault range and a ``[start,
#: stop)`` pattern/cycle window of its job (episode tasks have no
#: faults, so their fault range is empty).
_Task = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class _Job:
    """The inputs every task of one sharded call shares.

    ``stimulus`` is the packed byte map of every input line over ``n``
    patterns (or cycles), so any window slices in O(window).  ``state``
    is the numpy engine's settled fault-free state over all ``n``
    patterns — or, in the parent, a thunk producing it; it only ever
    reaches workers by inheritance, never by pickling.
    """

    inner: str
    circuit: Circuit
    stimulus: dict[str, bytes]
    n: int
    faults: "Sequence[Fault]" = ()
    drop: bool = True
    budget: int | None = None
    leakage: bool = False
    keep: bool = False
    state: Any = None
    fingerprint: str = ""

    def words(self, start: int, stop: int) -> dict[str, int]:
        """Packed stimulus of patterns ``[start, stop)``."""
        return {line: window_word(raw, start, stop)
                for line, raw in self.stimulus.items()}

    def shipped(self, tasks: Sequence[_Task]
                ) -> list[tuple["_Job", _Task]]:
        """Pool items for ``tasks``: this job cut down to each task's
        fault slice and window, with the task rebased onto the cut — so
        a pickled item is O(slice), not O(job)."""
        job = replace(self, state=None,
                      fingerprint=self.circuit.fingerprint())
        items = []
        for (f0, f1), (start, stop) in tasks:
            stimulus = job.stimulus
            if (start, stop) != (0, job.n):
                stimulus = plan_byte_map(job.words(start, stop),
                                         stop - start)
            items.append((replace(job, faults=job.faults[f0:f1],
                                  stimulus=stimulus, n=stop - start),
                          ((0, f1 - f0), (0, stop - start))))
        return items


#: The job a transient fork pool's workers inherit (see
#: :func:`_inherited`).  Not thread-safe: the simulation substrate is
#: process-parallel, not thread-parallel.
_INHERITED: _Job | None = None


@contextlib.contextmanager
def _inherited(job: _Job) -> Iterator[None]:
    """Publish ``job`` to every worker forked inside the block."""
    global _INHERITED
    _INHERITED = job
    try:
        yield
    finally:
        _INHERITED = None


#: Worker-side circuit intern table for shipped jobs.  Every call ships
#: a freshly unpickled circuit copy; the per-circuit plan/schedule
#: caches key on object identity, so without interning a persistent
#: worker would rebuild cone plans on every call.  Keyed by content
#: fingerprint, bounded LRU.
_INTERN_MAX = 8
_INTERNED_CIRCUITS: "OrderedDict[str, Circuit]" = OrderedDict()


def _interned_circuit(circuit: Circuit, fingerprint: str) -> Circuit:
    cached = _INTERNED_CIRCUITS.get(fingerprint)
    if cached is None:
        _INTERNED_CIRCUITS[fingerprint] = cached = circuit
        while len(_INTERNED_CIRCUITS) > _INTERN_MAX:
            _INTERNED_CIRCUITS.popitem(last=False)
    else:
        _INTERNED_CIRCUITS.move_to_end(fingerprint)
    return cached


def _resolve(item: Any) -> tuple[_Job, _Task]:
    """A worker's job and task: the inherited job when the slot is set
    (the item is the bare task), otherwise the shipped ``(job, task)``
    pair with its circuit interned."""
    if _INHERITED is not None:
        return _INHERITED, item
    job, task = item
    circuit = _interned_circuit(job.circuit, job.fingerprint)
    return replace(job, circuit=circuit), task


def _fault_task(item: Any) -> "FaultSimResult":
    """Worker: one fault range x pattern window of the job.

    The slice becomes its own plan on the inner engine.  An inherited
    settled good state (fault axis, forked workers) seeds the plan's
    state cache, so the replay skips the fault-free pass; a job budget
    makes the slice stream its own pattern windows, so no worker then
    materializes the full good machine.
    """
    from repro.simulation.backends import get_backend
    job, ((f0, f1), (start, stop)) = _resolve(item)
    plan = FaultEpisodePlan(
        job.circuit, job.faults[f0:f1], job.words(start, stop),
        stop - start,
        state_cache=None if job.state is None else {job.inner: job.state})
    return get_backend(job.inner).fault_simulate_plan(
        plan, drop=job.drop, stream_budget=job.budget or 0)


def _episode_task(item: Any) -> tuple[dict[str, int],
                                      dict[str, tuple[int, int]],
                                      "dict[str, np.ndarray] | None",
                                      dict[str, int] | None]:
    """Worker: one cycle window of the job, distilled to the
    integer-exact merge ingredients of
    :func:`~repro.simulation.streaming.episode_window_ingredients`
    (transitions, edge bits, pattern counts, kept words).

    With a budget the window exceeds, the worker streams its own
    sub-windows (sharding composes with streaming) and folds them, so
    the parent receives exactly the unstreamed ingredients.
    """
    job, (_faults, (start, stop)) = _resolve(item)
    from repro.simulation.backends import get_backend
    backend = get_backend(job.inner)
    n = stop - start
    if job.budget is not None:
        elements = state_elements(len(job.stimulus), job.circuit, n)
        needed = -(elements // -job.budget)
        if needed > 1:
            store = PlanByteStore.from_bytes(job.stimulus, job.n)
            bounds = [(start + lo, start + hi)
                      for lo, hi in shard_bounds(n, min(needed, n))]
            return stream_episode_ingredients(backend, job.circuit, store,
                                              n, job.leakage, job.keep,
                                              bounds)
    return episode_window_ingredients(backend, job.circuit,
                                      job.words(start, stop), n,
                                      job.leakage, job.keep)


class ShardedBackend(Backend):
    """Fault-list and cycle-axis sharding over worker processes.

    Parameters
    ----------
    inner:
        Name of the engine each worker (and the inline fast path) runs.
    shards:
        Worker count; ``None`` defers to ``$REPRO_SIM_SHARDS`` at call
        time, falling back to ``os.cpu_count()``.
    min_faults_per_shard:
        Never split below this many faults per worker; lists smaller
        than two shards' worth run inline on the inner backend.
    pool:
        Externally owned persistent :class:`~repro.campaign.pool.
        WorkerPool`; shard dispatch then reuses its live workers
        instead of starting a transient pool per call.  The caller owns
        the pool's lifetime.  When unset, a started process-wide shared
        pool (:func:`repro.campaign.pool.ensure_shared_pool`) is picked
        up opportunistically.
    episode_budget:
        ``uint64``-element budget of one episode chunk's state matrix
        (lines x words); plans whose whole matrix fits run inline on
        the inner backend, larger plans split along the cycle axis.
        Defaults to ~32 MiB per chunk.
    """

    name = "sharded"

    def __init__(self, inner: str = "numpy", shards: int | None = None,
                 min_faults_per_shard: int = 256,
                 pool: "WorkerPool | None" = None,
                 episode_budget: int | None = None):
        if inner == self.name:
            raise SimulationError("sharded backend cannot nest itself")
        if shards is not None and shards < 1:
            raise SimulationError("shards must be >= 1")
        if min_faults_per_shard < 1:
            raise SimulationError("min_faults_per_shard must be >= 1")
        if episode_budget is not None and episode_budget < 1:
            raise SimulationError("episode_budget must be >= 1")
        self.inner_name = inner
        self.shards = shards
        self.min_faults_per_shard = min_faults_per_shard
        self.pool = pool
        self.episode_budget = episode_budget if episode_budget is not None \
            else _EPISODE_ELEMENT_BUDGET

    @contextlib.contextmanager
    def using_pool(self, pool: "WorkerPool") -> Iterator["ShardedBackend"]:
        """Temporarily dispatch shards through ``pool``.

        Restores the previous pool (usually ``None``) on exit; the
        pool itself is not closed — the caller owns it.
        """
        previous = self.pool
        self.pool = pool
        try:
            yield self
        finally:
            self.pool = previous

    def _resolve_pool(self) -> "WorkerPool | None":
        """The pool shard dispatch should use, if any."""
        if self.pool is not None:
            return self.pool
        from repro.campaign.pool import active_shared_pool
        return active_shared_pool()

    def _scatter(self, worker: Callable[[Any], Any], job: _Job,
                 tasks: Sequence[_Task]) -> list[Any]:
        """Run ``worker`` over ``tasks`` of ``job``; results in task
        order.

        A resolved pool gets every task as a cut-down ``(job, task)``
        pair.  Without one, a transient pool of ``min(tasks, configured
        shards)`` workers runs the call and is closed before returning
        (also when a task fails): where it forks, it starts after the
        job is published, so its workers inherit the job — plus the
        parent's warmed caches and settled good state — and tasks are
        bare bounds.  Extra tasks queue on the pool's workers.
        """
        from repro.campaign.pool import WorkerPool
        pool = self._resolve_pool()
        if pool is not None:
            return pool.map(worker, job.shipped(tasks))
        transient = WorkerPool(
            processes=min(len(tasks), self.configured_shards()))
        if transient.start_method != "fork":
            with transient:
                return transient.map(worker, job.shipped(tasks))
        with _inherited(self._settled(job)), transient:
            return transient.map(worker, tasks)

    def _settled(self, job: _Job) -> _Job:
        """``job`` ready to publish to forked workers.

        Pays the expensive shared work — the levelized schedule, the
        fanout cones of every faulted line and the fault-free state —
        once in the parent instead of once per worker per call; only
        the numpy inner engine keeps caches worth warming.
        """
        if self.inner_name == "numpy":
            from repro.simulation.backends import fault_kernel
            from repro.simulation.schedule import cached_schedule
            cached_schedule(job.circuit)
            if job.faults:
                plan = fault_kernel.cached_fault_plan(job.circuit)
                for line in {fault.line for fault in job.faults}:
                    plan.cone_rows(line)
        if callable(job.state):
            job = replace(job, state=job.state())
        return job

    # ------------------------------------------------------------------ #
    # plain packed simulation: pure delegation
    # ------------------------------------------------------------------ #

    def _inner(self) -> Backend:
        from repro.simulation.backends import get_backend
        return get_backend(self.inner_name)

    def run(self, circuit: Circuit, input_words: Mapping[str, int],
            n: int) -> SimState:
        return self._inner().run(circuit, input_words, n)

    def eval_gate_packed(self, gtype: GateType, words: Sequence[int],
                         n: int) -> int:
        return self._inner().eval_gate_packed(gtype, words, n)

    # ------------------------------------------------------------------ #
    # pattern/cycle-axis sharded episode simulation
    # ------------------------------------------------------------------ #

    def episode_chunks(self, plan: "EpisodePlan") -> int:
        """Cycle-axis chunk count for ``plan`` under the memory budget.

        ``1`` (inline on the inner backend) when the plan's whole state
        matrix fits the per-chunk element budget; otherwise at least
        enough chunks to respect the budget, rounded up to the
        configured worker count so an oversized plan also parallelizes.
        """
        needed = -(plan.state_elements() // -self.episode_budget)
        if needed <= 1:
            return 1
        return min(plan.n_cycles, max(needed, self.configured_shards()))

    def simulate_episode_batch(self, plan: "EpisodePlan",
                               library: CellLibrary | None = None,
                               collect_leakage: bool = True,
                               keep_waveforms: bool = False,
                               stream_budget: int | None = None
                               ) -> "EpisodeBatchResult":
        """Shard the plan's cycle axis across workers and merge exactly.

        Chunks are contiguous cycle ranges; every chunk is one plain
        packed simulation on the inner engine.  The merge is
        integer-exact (transition counts add, with one extra transition
        per chunk boundary where the edge bits differ; leakage pattern
        counts add and are priced once in table order; kept waveforms
        concatenate by shifting), so the result never depends on the
        chunk count — pinned against the unsharded pass by the
        differential property tests.

        Sharding composes with streaming: under a resolved
        ``stream_budget`` every chunk worker streams its own
        sub-windows (see :func:`_episode_task`), and the inline
        single-chunk path delegates the budget to the inner engine —
        peak memory per process is one window either way.
        """
        from repro.cells.library import default_library
        library = library or default_library()
        budget = resolve_stream_budget(stream_budget)
        n_chunks = self.episode_chunks(plan)
        if n_chunks <= 1:
            return self._inner().simulate_episode_batch(
                plan, library, collect_leakage=collect_leakage,
                keep_waveforms=keep_waveforms,
                stream_budget=budget or 0)

        bounds = shard_bounds(plan.n_cycles, n_chunks)
        processes = min(len(bounds), self.configured_shards())
        job = _Job(self.inner_name, plan.circuit,
                   plan_byte_map(plan.waveforms, plan.n_cycles),
                   plan.n_cycles, budget=budget, leakage=collect_leakage,
                   keep=keep_waveforms)
        with span("shard.scatter", axis="cycle", chunks=len(bounds),
                  processes=processes):
            parts = self._scatter(_episode_task, job,
                                  [((0, 0), window) for window in bounds])
        with span("shard.merge", axis="cycle", chunks=len(bounds)):
            return self._merge_episode(plan, bounds, parts, library,
                                       collect_leakage, keep_waveforms)

    @staticmethod
    def _merge_episode(plan: "EpisodePlan",
                       bounds: Sequence[tuple[int, int]],
                       parts: Sequence[tuple], library: CellLibrary,
                       collect_leakage: bool, keep_waveforms: bool
                       ) -> "EpisodeBatchResult":
        from repro.leakage.estimator import leakage_from_pattern_counts
        from repro.simulation.episode import EpisodeBatchResult

        # Transition counts add across chunks; a boundary between two
        # chunks contributes one more transition per line whose last
        # bit of the left chunk differs from the first bit of the
        # right.  Entry order follows the inner backend's dict.
        transitions = dict(parts[0][0])
        for left, right in zip(parts, parts[1:]):
            left_edges, right_trans, right_edges = \
                left[1], right[0], right[1]
            for line, count in right_trans.items():
                transitions[line] += count
                if left_edges[line][1] != right_edges[line][0]:
                    transitions[line] += 1

        leakage_sum: dict[str, float] = {}
        if collect_leakage:
            merged_counts = {line: arr.copy()
                             for line, arr in parts[0][2].items()}
            for part in parts[1:]:
                for line, arr in part[2].items():
                    merged_counts[line] += arr
            leakage_sum = leakage_from_pattern_counts(
                plan.circuit, merged_counts, library)

        waveforms: dict[str, int] | None = None
        if keep_waveforms:
            waveforms = dict(parts[0][3])
            for (start, _stop), part in zip(bounds[1:], parts[1:]):
                for line, word in part[3].items():
                    waveforms[line] |= word << start
        return EpisodeBatchResult(
            n_cycles=plan.n_cycles,
            transitions=transitions,
            leakage_sum_na=leakage_sum,
            offsets=plan.offsets,
            lengths=plan.lengths,
            waveforms=waveforms,
        )

    # ------------------------------------------------------------------ #
    # sharded fault simulation
    # ------------------------------------------------------------------ #

    def configured_shards(self) -> int:
        """The configured worker count (flag, session, env, pool or
        CPU count)."""
        shards = self.shards
        if shards is None:
            from repro.runtime import session_defaults
            shards = session_defaults().shards
        if shards is None:
            env = os.environ.get(DEFAULT_SHARDS_ENV, "")
            if env:
                try:
                    shards = int(env)
                except ValueError:
                    raise SimulationError(
                        f"${DEFAULT_SHARDS_ENV} must be an integer, "
                        f"got {env!r}") from None
            else:
                pool = self._resolve_pool()
                shards = pool.processes if pool is not None \
                    else os.cpu_count() or 1
        if shards < 1:
            raise SimulationError(
                f"invalid shard count {shards} "
                f"(check ${DEFAULT_SHARDS_ENV})")
        return shards

    def effective_shards(self, n_faults: int) -> int:
        """Worker count actually used for ``n_faults`` faults."""
        by_size = n_faults // self.min_faults_per_shard
        return max(1, min(self.configured_shards(), by_size))

    def fault_simulate_plan(self, plan: "FaultEpisodePlan",
                            drop: bool = True,
                            stream_budget: int | None = None
                            ) -> "FaultSimResult":
        """Two-axis sharded replay of a compiled fault x pattern plan.

        Drop-mode runs shard the **fault axis** (each worker replays
        its contiguous fault slice against all patterns — dropping is
        per fault, so fault-major keeps every worker's early-outs);
        no-drop detection matrices shard the **pattern axis** into
        word-aligned cycle windows (every fault is refined on every
        pattern anyway, and splitting the patterns also splits the
        fault-free simulation across workers).  Calls too small to
        split run inline on the inner engine.  Both merges are
        integer-exact — shard-ordered concatenation resp.
        :func:`~repro.simulation.streaming.merge_fault_windows`, the OR
        of window detection words shared with the streamed fold — so
        the result never depends on the axis or the shard count.

        Sharding composes with streaming: under a resolved
        ``stream_budget`` a plan exceeds, fault-axis workers stream
        pattern windows of their own fault slice (never materializing
        the good machine), and the pattern axis raises its window
        count so every window fits the budget.
        """
        inner = self._inner()
        budget = resolve_stream_budget(stream_budget)
        if budget is not None and plan.state_elements() <= budget:
            budget = None
        if drop:
            n_shards = self.effective_shards(plan.n_faults)
            tasks = [(shard, (0, plan.n))
                     for shard in shard_bounds(plan.n_faults, n_shards)]
        else:
            n_shards = min(self.configured_shards(), plan.n_words)
            if budget is not None:
                needed = -(plan.state_elements() // -budget)
                n_shards = min(plan.n_words, max(n_shards, needed))
            if plan.n_faults < self.min_faults_per_shard:
                # Tiny matrices run inline: starting workers costs more
                # than the window work saves.
                n_shards = 1
            tasks = [((0, plan.n_faults), window)
                     for window in word_windows(plan.n, n_shards)]
        if len(tasks) <= 1:
            return inner.fault_simulate_plan(plan, drop=drop,
                                             stream_budget=budget or 0)
        state: "Callable[[], Any] | None" = None
        if not drop:
            # The window count already honours the budget, so pattern
            # workers replay their window resident.
            axis, budget = "pattern", None
        elif budget is not None:
            axis = "fault-stream"
        else:
            axis = "fault"
            if self.inner_name == "numpy":
                # Forked workers inherit the plan's memoized good state,
                # so repeated dispatches on one stimulus never
                # re-simulate the good machine.
                state = functools.partial(plan.good_state, inner)
        job = _Job(self.inner_name, plan.circuit,
                   plan_byte_map(plan.input_words, plan.n), plan.n,
                   plan.faults, drop=drop, budget=budget, state=state)
        with span("shard.scatter", axis=axis, tasks=len(tasks)):
            parts = self._scatter(_fault_task, job, tasks)
        with span("shard.merge", axis=axis, tasks=len(tasks)):
            if axis == "pattern":
                return merge_fault_windows(
                    plan.faults,
                    [(start, part) for (_faults, (start, _stop)), part
                     in zip(tasks, parts)])
            return self._merge(parts)

    @staticmethod
    def _merge(parts: "Sequence[FaultSimResult]") -> "FaultSimResult":
        """Fault-axis merge: shard order is fault order, so the shards'
        results concatenate (no per-fault rehashing)."""
        from repro.atpg.faultsim import FaultSimResult
        detected: dict[Fault, int] = {}
        remaining: list[Fault] = []
        for part in parts:
            detected.update(part.detected)
            remaining.extend(part.remaining)
        return FaultSimResult(detected=detected, remaining=remaining)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ShardedBackend inner={self.inner_name!r} "
                f"shards={self.shards!r}>")
