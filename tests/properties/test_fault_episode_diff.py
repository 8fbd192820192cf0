"""Differential properties of the fault x pattern batched replay.

``Backend.fault_simulate_plan`` must be observationally identical to the
scalar big-int reference — detection words bit for bit, ``remaining`` in
exact input order — on every registered backend, in both drop modes, on
mapped and unmapped circuits, for every tile geometry, and under forced
multi-process sharding of **either** axis (fault-major and
pattern-major) with real worker processes.  The generated test sets of
the planned ATPG pipeline must equal the per-batch oracle's
(``tests/oracle/fault_oracle.py``) too.
"""

from hypothesis import given, settings, strategies as st

from repro.atpg.faults import all_faults
from repro.atpg.faultsim import fault_simulate, scalar_replay
from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.netlist.circuit import Circuit
from repro.simulation.backends import (
    ShardedBackend,
    available_backends,
    get_backend,
)
from repro.simulation.bitsim import random_input_words
from repro.simulation.fault_episode import (
    FaultSimSession,
    compile_fault_episode_plan,
)
from repro.techmap.mapper import technology_map
from repro.utils.rng import make_rng

from oracle.fault_oracle import PerBatchSession, reference_generate_tests

BACKENDS = sorted(available_backends())


def _random_circuit(seed: int, n_gates: int = 40, mapped: bool = False
                    ) -> Circuit:
    circuit = generate_from_stats(
        Iscas89Stats("fedge", 5, 3, 4, n_gates), seed)
    return technology_map(circuit) if mapped else circuit


def _assert_same(got, reference, context) -> None:
    assert got.detected == reference.detected, context
    assert list(got.detected) == list(reference.detected), context
    assert got.remaining == reference.remaining, context


class TestPlanEqualsScalarReference:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 200), st.booleans(),
           st.booleans())
    def test_every_backend_both_drop_modes(self, seed, n_patterns,
                                           mapped, drop):
        circuit = _random_circuit(seed, mapped=mapped)
        faults = all_faults(circuit)
        words = random_input_words(circuit, n_patterns, make_rng(seed))
        good = get_backend("bigint").simulate_packed(circuit, words,
                                                     n_patterns)
        reference = scalar_replay(circuit, faults, good, n_patterns)
        for name in BACKENDS:
            plan = compile_fault_episode_plan(circuit, faults, words,
                                              n_patterns)
            got = get_backend(name).fault_simulate_plan(plan, drop=drop)
            _assert_same(got, reference, (name, drop))

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 160), st.booleans(),
           st.booleans())
    def test_session_matches_per_batch_path(self, seed, n_patterns,
                                            mapped, drop):
        """The planned session and the per-batch double both equal
        ``fault_simulate``."""
        circuit = _random_circuit(seed, mapped=mapped, n_gates=30)
        faults = all_faults(circuit)
        words = random_input_words(circuit, n_patterns, make_rng(seed))
        reference = fault_simulate(circuit, faults, words, n_patterns,
                                   drop=drop, backend="bigint")
        for name in ("bigint", "numpy"):
            for session in (FaultSimSession(circuit, name),
                            PerBatchSession(circuit, name)):
                got = session.simulate(faults, words, n_patterns,
                                       drop=drop)
                _assert_same(got, reference, (name, session, drop))

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 170), st.booleans())
    def test_tile_geometry_is_invisible(self, seed, n_patterns, mapped):
        """Forced tiny element budgets (multi-tile on both axes) must
        reproduce the default geometry's words exactly."""
        from repro.simulation.backends.fault_kernel import (
            fault_simulate_matrix,
        )
        circuit = _random_circuit(seed, mapped=mapped, n_gates=25)
        faults = all_faults(circuit)
        words = random_input_words(circuit, n_patterns, make_rng(seed))
        reference = fault_simulate(circuit, faults, words, n_patterns,
                                   backend="bigint")
        state = get_backend("numpy").run(circuit, words, n_patterns)
        for budget in (1, 64, 4096):
            got = fault_simulate_matrix(state, faults,
                                        element_budget=budget)
            _assert_same(got, reference, budget)


class TestTwoAxisSharding:
    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 96),
           st.integers(2, 4))
    def test_fault_axis_shards_invisible(self, seed, n_patterns,
                                         n_shards):
        """Drop-mode plans shard the fault axis across >= 2 real worker
        processes; the merge must equal the single-process result."""
        circuit = _random_circuit(seed, mapped=True, n_gates=25)
        faults = all_faults(circuit)
        words = random_input_words(circuit, n_patterns, make_rng(seed))
        reference = fault_simulate(circuit, faults, words, n_patterns,
                                   backend="bigint")
        backend = ShardedBackend(shards=n_shards, min_faults_per_shard=1)
        plan = compile_fault_episode_plan(circuit, faults, words,
                                          n_patterns)
        got = backend.fault_simulate_plan(plan, drop=True)
        _assert_same(got, reference, n_shards)

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 10_000), st.integers(65, 250),
           st.integers(2, 3), st.booleans())
    def test_pattern_axis_shards_invisible(self, seed, n_patterns,
                                           n_shards, mapped):
        """No-drop plans shard the pattern axis (word-aligned windows)
        across >= 2 real worker processes; the OR-merge must equal the
        single-pass detection matrix bit for bit."""
        circuit = _random_circuit(seed, mapped=mapped, n_gates=25)
        faults = all_faults(circuit)
        words = random_input_words(circuit, n_patterns, make_rng(seed))
        reference = fault_simulate(circuit, faults, words, n_patterns,
                                   drop=False, backend="bigint")
        backend = ShardedBackend(shards=n_shards, min_faults_per_shard=1)
        plan = compile_fault_episode_plan(circuit, faults, words,
                                          n_patterns)
        got = backend.fault_simulate_plan(plan, drop=False)
        _assert_same(got, reference, (n_shards, mapped))


class TestGeneratedTestSetsIdentical:
    @settings(max_examples=3, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_planned_equals_oracle(self, seed, mapped):
        from repro.atpg.generate import AtpgConfig, generate_tests
        from repro.scan.testview import ScanDesign

        circuit = _random_circuit(seed, mapped=mapped, n_gates=25)
        design = ScanDesign.full_scan(circuit)
        config = AtpgConfig(seed=seed, max_random_batches=4)
        reference = reference_generate_tests(design, config, backend="bigint")
        for name in ("bigint", "numpy"):
            planned = generate_tests(design, config, backend=name)
            assert planned.vectors == reference.vectors, name
            assert planned.n_detected == reference.n_detected, name
            assert planned.n_faults == reference.n_faults, name
            assert planned.n_untestable == reference.n_untestable, name
            assert planned.n_aborted == reference.n_aborted, name
