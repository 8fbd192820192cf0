"""Sharded fault-simulation meta-backend mechanics.

Bit-identity of the sharded results is pinned by the differential
property suite (``tests/properties/test_backend_diff.py``); these tests
cover the machinery around it: partitioning, shard-count resolution,
inline fast path and delegation of plain packed simulation.
"""

import pytest

from repro.atpg.faults import all_faults
from repro.atpg.faultsim import fault_simulate
from repro.errors import SimulationError
from repro.simulation.backends import (
    ShardedBackend,
    get_backend,
)
from repro.simulation.backends.sharded import (
    DEFAULT_SHARDS_ENV,
    shard_bounds,
)
from repro.simulation.bitsim import random_input_words, simulate_packed
from repro.utils.rng import make_rng


def _failing_task(item):
    raise RuntimeError("shard task failed")


def _fault_job(circuit):
    faults = all_faults(circuit)
    words = random_input_words(circuit, 64, make_rng(1))
    return faults, words


@pytest.fixture
def pool():
    from repro.campaign.pool import WorkerPool
    with WorkerPool(processes=2) as p:
        yield p


class TestShardBounds:
    def test_even_split(self):
        assert shard_bounds(9, 3) == [(0, 3), (3, 6), (6, 9)]

    def test_uneven_split_front_loads_remainder(self):
        assert shard_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_shards_than_items(self):
        assert shard_bounds(2, 5) == [(0, 1), (1, 2)]

    def test_single_shard(self):
        assert shard_bounds(7, 1) == [(0, 7)]

    def test_covers_everything_contiguously(self):
        for n_items in range(1, 40):
            for n_shards in range(1, 8):
                bounds = shard_bounds(n_items, n_shards)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n_items
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start


class TestConfiguration:
    def test_rejects_nested_sharding(self):
        with pytest.raises(SimulationError):
            ShardedBackend(inner="sharded")

    def test_rejects_bad_shard_count(self):
        with pytest.raises(SimulationError):
            ShardedBackend(shards=0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(SimulationError):
            ShardedBackend(min_faults_per_shard=0)

    def test_effective_shards_respects_threshold(self):
        backend = ShardedBackend(shards=8, min_faults_per_shard=100)
        assert backend.effective_shards(50) == 1
        assert backend.effective_shards(250) == 2
        assert backend.effective_shards(10_000) == 8

    def test_effective_shards_from_env(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_SHARDS_ENV, "3")
        backend = ShardedBackend(min_faults_per_shard=1)
        assert backend.effective_shards(100) == 3

    def test_bad_env_shard_count_raises(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_SHARDS_ENV, "0")
        backend = ShardedBackend(min_faults_per_shard=1)
        with pytest.raises(SimulationError):
            backend.effective_shards(100)

    def test_non_numeric_env_shard_count_raises_cleanly(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_SHARDS_ENV, "two")
        backend = ShardedBackend(min_faults_per_shard=1)
        with pytest.raises(SimulationError, match="must be an integer"):
            backend.effective_shards(100)

    def test_registered_singleton_defaults(self):
        backend = get_backend("sharded")
        assert isinstance(backend, ShardedBackend)
        assert backend.inner_name == "numpy"


class TestDelegation:
    def test_packed_simulation_delegates_to_inner(self, s27_mapped):
        words = random_input_words(s27_mapped, 70, make_rng(0))
        via_sharded = simulate_packed(s27_mapped, words, 70,
                                      backend="sharded")
        via_numpy = simulate_packed(s27_mapped, words, 70, backend="numpy")
        assert via_sharded == via_numpy

    def test_small_fault_list_runs_inline(self, s27_mapped, monkeypatch):
        # A threshold above the universe size must never start workers:
        # poison pool construction and verify it is not reached.
        import repro.campaign.pool as pool_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("worker pool should not be started")

        monkeypatch.setattr(pool_mod, "WorkerPool", boom)
        backend = ShardedBackend(shards=4, min_faults_per_shard=10_000)
        faults = all_faults(s27_mapped)
        words = random_input_words(s27_mapped, 64, make_rng(1))
        got = fault_simulate(s27_mapped, faults, words, 64,
                             backend=backend)
        ref = fault_simulate(s27_mapped, faults, words, 64,
                             backend="bigint")
        assert got.detected == ref.detected
        assert got.remaining == ref.remaining


class TestPooledDispatch:
    """Persistent-pool shard dispatch (``pool=`` hook)."""

    def test_pooled_results_bit_identical(self, s27_mapped, pool):
        faults, words = _fault_job(s27_mapped)
        ref = fault_simulate(s27_mapped, faults, words, 64,
                             backend="bigint")
        backend = ShardedBackend(shards=2, min_faults_per_shard=4,
                                 pool=pool)
        got = fault_simulate(s27_mapped, faults, words, 64,
                             backend=backend)
        assert got.detected == ref.detected
        assert got.remaining == ref.remaining

    def test_pool_reused_across_calls(self, s27_mapped, pool):
        faults, words = _fault_job(s27_mapped)
        backend = ShardedBackend(shards=2, min_faults_per_shard=4,
                                 pool=pool)
        first = fault_simulate(s27_mapped, faults, words, 64,
                               backend=backend)
        second = fault_simulate(s27_mapped, faults, words, 64,
                                backend=backend)
        assert first.detected == second.detected
        assert pool.started  # dispatch must not tear the pool down

    def test_using_pool_context_restores(self, pool):
        backend = ShardedBackend()
        assert backend.pool is None
        with backend.using_pool(pool) as bound:
            assert bound is backend
            assert backend.pool is pool
        assert backend.pool is None

    def test_effective_shards_defaults_to_pool_size(self, pool,
                                                    monkeypatch):
        monkeypatch.delenv(DEFAULT_SHARDS_ENV, raising=False)
        backend = ShardedBackend(min_faults_per_shard=1, pool=pool)
        assert backend.effective_shards(100) == pool.processes

    def test_shared_pool_picked_up(self, monkeypatch):
        from repro.campaign.pool import (
            ensure_shared_pool,
            shutdown_shared_pool,
        )
        backend = ShardedBackend()
        assert backend._resolve_pool() is None
        try:
            shared = ensure_shared_pool(processes=1)
            assert backend._resolve_pool() is shared
        finally:
            shutdown_shared_pool()
        assert backend._resolve_pool() is None

    def test_explicit_pool_outranks_shared(self, pool):
        from repro.campaign.pool import (
            ensure_shared_pool,
            shutdown_shared_pool,
        )
        try:
            ensure_shared_pool(processes=1)
            backend = ShardedBackend(pool=pool)
            assert backend._resolve_pool() is pool
        finally:
            shutdown_shared_pool()


class TestDispatch:
    """Every shard task goes through a ``WorkerPool``: the attached one,
    or exactly one transient pool per sharded call."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """``(pool, event)`` log of every ``WorkerPool`` built, started
        or closed while the test runs."""
        import repro.campaign.pool as pool_mod
        events = []

        class RecordingPool(pool_mod.WorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                events.append((self, "init"))

            def start(self):
                if not self.started:
                    events.append((self, "start"))
                return super().start()

            def close(self):
                if self.started:
                    events.append((self, "close"))
                super().close()

        monkeypatch.setattr(pool_mod, "WorkerPool", RecordingPool)
        return events

    def test_attached_pool_builds_no_transient_pool(self, s27_mapped,
                                                     pool, pools):
        faults, words = _fault_job(s27_mapped)
        backend = ShardedBackend(shards=2, min_faults_per_shard=4,
                                 pool=pool)
        result = fault_simulate(s27_mapped, faults, words, 64,
                                backend=backend)
        assert result.n_detected > 0
        assert pools == []

    def test_one_transient_pool_per_call(self, s27_mapped, pools):
        faults, words = _fault_job(s27_mapped)
        ref = fault_simulate(s27_mapped, faults, words, 64,
                             backend="numpy")
        backend = ShardedBackend(shards=2, min_faults_per_shard=4)
        for call in range(2):
            got = fault_simulate(s27_mapped, faults, words, 64,
                                 backend=backend)
            assert got.detected == ref.detected
            assert got.remaining == ref.remaining
            transient = pools[3 * call][0]
            assert pools[3 * call:] == [(transient, "init"),
                                        (transient, "start"),
                                        (transient, "close")]

    def test_one_transient_pool_per_episode_call(self, s27_design,
                                                 pools):
        from repro.simulation.episode import compile_episode_plan
        from tests.conftest import random_vectors
        plan = compile_episode_plan(s27_design,
                                    random_vectors(s27_design, 6))
        ref = get_backend("numpy").simulate_episode_batch(
            plan, keep_waveforms=True)
        backend = ShardedBackend(shards=2, episode_budget=4)
        got = backend.simulate_episode_batch(plan, keep_waveforms=True)
        assert got == ref
        assert [event for _, event in pools] == ["init", "start",
                                                 "close"]

    def test_spawned_transient_pool_is_sent_the_job(self, s27_mapped,
                                                    monkeypatch):
        # Where the platform does not fork, the transient pool cannot
        # inherit the job; it is sent each task's cut-down job instead.
        import repro.campaign.pool as pool_mod

        class SpawnPool(pool_mod.WorkerPool):
            def __init__(self, processes=None):
                super().__init__(processes, start_method="spawn")

        monkeypatch.setattr(pool_mod, "WorkerPool", SpawnPool)
        faults, words = _fault_job(s27_mapped)
        ref = fault_simulate(s27_mapped, faults, words, 64,
                             backend="numpy")
        backend = ShardedBackend(shards=2, min_faults_per_shard=4)
        got = fault_simulate(s27_mapped, faults, words, 64,
                             backend=backend)
        assert got.detected == ref.detected
        assert got.remaining == ref.remaining

    def test_live_pool_registry_unchanged(self, s27_mapped, monkeypatch):
        import repro.campaign.pool as pool_mod
        import repro.simulation.backends.sharded as sharded_mod
        before = set(pool_mod._LIVE_POOLS)
        faults, words = _fault_job(s27_mapped)
        backend = ShardedBackend(shards=2, min_faults_per_shard=4)
        fault_simulate(s27_mapped, faults, words, 64,
                       backend=backend)
        assert pool_mod._LIVE_POOLS == before
        monkeypatch.setattr(sharded_mod, "_fault_task", _failing_task)
        with pytest.raises(pool_mod.WorkerPoolError,
                           match="shard task failed"):
            fault_simulate(s27_mapped, faults, words, 64,
                           backend=backend)
        assert pool_mod._LIVE_POOLS == before

    def test_transient_pool_survives_worker_kills(self, s27_mapped):
        """Per-call shards get the pool's supervised respawn: killed
        workers are replaced and their tasks re-run, bit-identically."""
        import repro.chaos as chaos
        from repro.campaign.pool import _respawn_counter
        from repro.simulation.fault_episode import (
            compile_fault_episode_plan,
        )
        faults, words = _fault_job(s27_mapped)
        ref = fault_simulate(s27_mapped, faults, words, 64,
                             backend="numpy")
        n = 8 * 64  # eight one-word pattern windows on two workers
        wide = random_input_words(s27_mapped, n, make_rng(2))
        plan = compile_fault_episode_plan(s27_mapped, faults, wide, n)
        ref_plan = get_backend("numpy").fault_simulate_plan(plan,
                                                            drop=False)
        backend = ShardedBackend(shards=2, min_faults_per_shard=4)
        respawns = _respawn_counter().value
        chaos.enable("seed=5,pool.task.kill=0.3")
        try:
            got = fault_simulate(s27_mapped, faults, words, 64,
                                 backend=backend)
            got_plan = backend.fault_simulate_plan(
                compile_fault_episode_plan(s27_mapped, faults, wide, n),
                drop=False, stream_budget=1)
        finally:
            chaos.disable()
        assert got.detected == ref.detected
        assert got.remaining == ref.remaining
        assert got_plan.detected == ref_plan.detected
        assert got_plan.remaining == ref_plan.remaining
        assert _respawn_counter().value > respawns


class TestCircuitInterning:
    """Worker-side intern table behind the pooled dispatch path."""

    def test_first_copy_wins(self, s27_mapped, monkeypatch):
        import repro.simulation.backends.sharded as sharded_mod
        monkeypatch.setattr(sharded_mod, "_INTERNED_CIRCUITS",
                            type(sharded_mod._INTERNED_CIRCUITS)())
        fp = s27_mapped.fingerprint()
        first = sharded_mod._interned_circuit(s27_mapped, fp)
        copy = s27_mapped.copy()
        second = sharded_mod._interned_circuit(copy, fp)
        assert first is s27_mapped
        assert second is s27_mapped  # the copy was deduplicated

    def test_bounded_lru(self, monkeypatch):
        import repro.simulation.backends.sharded as sharded_mod
        from repro.netlist import builders
        monkeypatch.setattr(sharded_mod, "_INTERNED_CIRCUITS",
                            type(sharded_mod._INTERNED_CIRCUITS)())
        for i in range(sharded_mod._INTERN_MAX + 3):
            sharded_mod._interned_circuit(builders.s27(), f"fp{i}")
        assert len(sharded_mod._INTERNED_CIRCUITS) == \
            sharded_mod._INTERN_MAX
