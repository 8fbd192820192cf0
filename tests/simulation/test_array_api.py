"""Array-API backend: namespace resolution + mocked conforming double.

The double below wraps host numpy arrays in an opaque device-array
class that *refuses* implicit numpy coercion (``__array__`` raises and
``__array_ufunc__`` is ``None``), and a namespace module exposing only
the kernel surface the shared kernels are documented to need.  Driving
every backend entry point through this double proves no numpy-only API
(``np.bitwise_and.reduce``, ``np.repeat``, implicit ``np.asarray`` on
kernel data, ...) leaks into :mod:`repro.simulation.kernels` — the GPU
path is gated in CI without a GPU.
"""

import operator

import numpy as np
import pytest

from repro.atpg.faults import all_faults
from repro.atpg.faultsim import fault_simulate
from repro.errors import ConfigError, SimulationError
from repro.netlist import builders
from repro.netlist.gates import GateType
from repro.runtime import set_session_defaults, using
from repro.simulation.backends import available_backends, get_backend
from repro.simulation.backends.array_api import (
    DEFAULT_NAMESPACE_ENV,
    ArrayApiBackend,
    ArrayApiState,
    resolve_array_namespace,
)
from repro.simulation.backends.fault_kernel import (
    _MIN_BATCH_FAULTS,
    cached_fault_plan,
    fault_simulate_matrix,
    tile_geometry,
)
from repro.simulation.bitsim import random_input_words
from repro.simulation.episode import compile_episode_plan
from repro.simulation.fault_episode import compile_fault_episode_plan
from repro.simulation.kernels import TileScratch
from repro.techmap.mapper import technology_map
from repro.utils.rng import make_rng


class DeviceArray:
    """Opaque device-array double over a host numpy array.

    Delegates shape/indexing/bitwise operators to the inner array and
    wraps every array result, but raises on any attempt by numpy to
    coerce it — so a raw ``np.*`` call on kernel data fails the test
    instead of silently running on the host.
    """

    # Make numpy refuse to apply its ufuncs to this type (binary ops
    # with numpy operands defer to our reflected methods instead).
    __array_ufunc__ = None

    def __init__(self, array):
        assert isinstance(array, np.ndarray)
        self._array = array

    def __array__(self, *args, **kwargs):
        raise AssertionError(
            "implicit numpy coercion of a device array — a raw np.* "
            "call leaked into the shared kernels")

    def get(self):
        """Host transfer (the cupy idiom ``to_host`` relies on)."""
        return self._array.copy()

    @property
    def shape(self):
        return self._array.shape

    @property
    def dtype(self):
        return self._array.dtype

    @staticmethod
    def _unwrap(value):
        if isinstance(value, DeviceArray):
            return value._array
        if isinstance(value, tuple):
            return tuple(DeviceArray._unwrap(item) for item in value)
        return value

    def __getitem__(self, key):
        out = self._array[DeviceArray._unwrap(key)]
        return DeviceArray(out) if isinstance(out, np.ndarray) else out

    def __setitem__(self, key, value):
        self._array[DeviceArray._unwrap(key)] = DeviceArray._unwrap(value)

    def _binop(self, other, op):
        return DeviceArray(op(self._array, DeviceArray._unwrap(other)))

    def __and__(self, other):
        return self._binop(other, operator.and_)

    __rand__ = __and__

    def __or__(self, other):
        return self._binop(other, operator.or_)

    __ror__ = __or__

    def __xor__(self, other):
        return self._binop(other, operator.xor)

    __rxor__ = __xor__


def _wrap(array):
    return DeviceArray(np.asarray(DeviceArray._unwrap(array)))


class MockNamespace:
    """A module-like namespace exposing only the documented surface."""

    __name__ = "mock_xp"
    uint64 = np.uint64

    @staticmethod
    def asarray(obj):
        return _wrap(obj)

    @staticmethod
    def zeros(shape, dtype=None):
        return DeviceArray(np.zeros(shape, dtype=dtype))

    @staticmethod
    def empty(shape, dtype=None):
        return DeviceArray(np.empty(shape, dtype=dtype))

    @staticmethod
    def where(cond, a, b):
        return DeviceArray(np.where(DeviceArray._unwrap(cond),
                                    DeviceArray._unwrap(a),
                                    DeviceArray._unwrap(b)))

    @staticmethod
    def broadcast_to(array, shape):
        return DeviceArray(np.broadcast_to(DeviceArray._unwrap(array),
                                           shape))

    @staticmethod
    def reshape(array, shape):
        return DeviceArray(np.reshape(DeviceArray._unwrap(array), shape))


@pytest.fixture
def mock_backend():
    return ArrayApiBackend(namespace=MockNamespace)


@pytest.fixture
def mapped():
    return technology_map(builders.toy_scan_circuit())


@pytest.fixture
def stimulus(mapped):
    n = 130  # three uint64 words, ragged tail
    return random_input_words(mapped, n, make_rng(9)), n


class TestDoubleIsOpaque:
    """Meta-tests: the double really does catch numpy leaks."""

    def test_numpy_functions_reject_device_arrays(self):
        dev = _wrap(np.arange(4, dtype=np.uint64))
        with pytest.raises(AssertionError, match="leaked"):
            np.asarray(dev)
        with pytest.raises((TypeError, AssertionError)):
            np.bitwise_and.reduce(dev)
        with pytest.raises((TypeError, AssertionError)):
            np.repeat(dev, 2)

    def test_operators_and_indexing_delegate(self):
        dev = _wrap(np.arange(4, dtype=np.uint64))
        assert isinstance(dev ^ dev, DeviceArray)
        assert isinstance(dev[1:3], DeviceArray)
        assert (dev.get() == np.arange(4, dtype=np.uint64)).all()


class TestMockedNamespaceKernels:
    """Every backend entry point, end to end, on the device double."""

    def test_registered(self):
        assert "array_api" in available_backends()

    def test_run_and_simulate_packed(self, mock_backend, mapped, stimulus):
        words, n = stimulus
        expected = get_backend("bigint").simulate_packed(mapped, words, n)
        state = mock_backend.run(mapped, words, n)
        assert isinstance(state, ArrayApiState)
        assert isinstance(state.device_matrix, DeviceArray)
        assert state.words() == expected

    def test_derived_quantities_match_numpy(self, mock_backend, mapped,
                                            stimulus):
        from repro.cells.library import default_library
        words, n = stimulus
        reference = get_backend("numpy").run(mapped, words, n)
        state = mock_backend.run(mapped, words, n)
        assert state.transitions() == reference.transitions()
        library = default_library()
        assert state.leakage_sum(library) == reference.leakage_sum(library)

    def test_eval_gate_packed_every_type(self, mock_backend):
        reference = get_backend("bigint")
        n = 77
        gen = make_rng(5)
        for gtype in GateType:
            arities = (3,) if gtype is GateType.MUX2 else \
                (0,) if gtype in (GateType.CONST0, GateType.CONST1) else \
                (0, 1, 2, 4)
            for arity in arities:
                if gtype in (GateType.NOT, GateType.BUFF, GateType.DFF) \
                        and arity != 1:
                    continue
                inputs = [int.from_bytes(gen.bytes(16), "little")
                          & ((1 << n) - 1) for _ in range(arity)]
                assert mock_backend.eval_gate_packed(gtype, inputs, n) == \
                    reference.eval_gate_packed(gtype, inputs, n), \
                    (gtype, arity)

    def test_fault_simulate(self, mock_backend, mapped, stimulus):
        words, n = stimulus
        faults = all_faults(mapped)
        reference = fault_simulate(mapped, faults, words, n,
                                   backend="bigint")
        for drop in (True, False):
            got = fault_simulate(mapped, faults, words, n, drop=drop,
                                 backend=mock_backend)
            assert got.detected == reference.detected, drop
            assert list(got.detected) == list(reference.detected), drop
            assert got.remaining == reference.remaining, drop

    def test_fault_simulate_plan(self, mock_backend, mapped, stimulus):
        words, n = stimulus
        faults = all_faults(mapped)
        reference = fault_simulate(mapped, faults, words, n,
                                   backend="bigint")
        for drop in (True, False):
            plan = compile_fault_episode_plan(mapped, faults, words, n)
            got = mock_backend.fault_simulate_plan(plan, drop=drop)
            assert got.detected == reference.detected, drop
            assert got.remaining == reference.remaining, drop

    def test_fault_plan_streams_under_budget(self, mock_backend, mapped,
                                             stimulus):
        """A tiny stream budget exercises the streamed replay windows on
        the device double (streamed composition)."""
        words, n = stimulus
        faults = all_faults(mapped)
        reference = fault_simulate(mapped, faults, words, n,
                                   backend="bigint")
        plan = compile_fault_episode_plan(mapped, faults, words, n)
        budget = plan.state_elements() // 2
        got = mock_backend.fault_simulate_plan(plan, drop=True,
                                               stream_budget=budget)
        assert got.detected == reference.detected
        assert got.remaining == reference.remaining

    def test_simulate_episode_batch(self, mock_backend, mapped):
        from repro.scan.testview import ScanDesign, TestVector
        design = ScanDesign.full_scan(mapped)
        gen = make_rng(3)
        vectors = [
            TestVector(
                pi_values={pi: int(gen.integers(2))
                           for pi in design.circuit.inputs},
                scan_state=tuple(int(gen.integers(2))
                                 for _ in range(design.chain.length)))
            for _ in range(4)
        ]
        plan = compile_episode_plan(design, vectors)
        reference = get_backend("bigint").simulate_episode_batch(plan)
        got = mock_backend.simulate_episode_batch(plan)
        assert got.transitions == reference.transitions
        assert got.leakage_sum_na == reference.leakage_sum_na

    def test_multi_tile_geometry_on_double(self, mock_backend, mapped,
                                           stimulus):
        """Forced word-axis tiling runs the scratch-buffer reuse path on
        the device double and stays bit-identical."""
        words, n = stimulus
        faults = all_faults(mapped)
        reference = fault_simulate(mapped, faults, words, n,
                                   backend="bigint")
        state = mock_backend.run(mapped, words, n)
        plan = cached_fault_plan(mapped)
        for budget in (1, plan.n_rows * _MIN_BATCH_FAULTS * 2):
            got = fault_simulate_matrix(state, faults,
                                        element_budget=budget)
            assert got.detected == reference.detected, budget
            assert got.remaining == reference.remaining, budget


class TestNamespaceResolution:
    """Knob chain: constructor > session > env > built-in numpy."""

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(DEFAULT_NAMESPACE_ENV, raising=False)
        set_session_defaults()
        assert resolve_array_namespace(None) is np

    def test_env_level(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_NAMESPACE_ENV, "numpy")
        set_session_defaults()
        assert resolve_array_namespace(None) is np

    def test_session_beats_env(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_NAMESPACE_ENV, "definitely.not.a.module")
        with using(array_namespace="numpy"):
            assert resolve_array_namespace(None) is np

    def test_constructor_beats_session(self):
        with using(array_namespace="numpy"):
            backend = ArrayApiBackend(namespace=MockNamespace)
            assert backend._resolve() is MockNamespace

    def test_unimportable_name_raises(self):
        with pytest.raises(SimulationError, match="not importable"):
            resolve_array_namespace("definitely.not.a.module")

    def test_nonconforming_namespace_raises(self):
        import math
        with pytest.raises(SimulationError, match="kernel surface"):
            resolve_array_namespace(math)

    def test_runtime_options_validate_namespace(self):
        from repro.runtime import RuntimeOptions
        with pytest.raises(ConfigError, match="not importable"):
            RuntimeOptions(array_namespace="definitely.not.a.module")
        assert RuntimeOptions(array_namespace="numpy") \
            .array_namespace == "numpy"

    def test_flow_config_validates_namespace(self):
        from repro.core.config import FlowConfig
        with pytest.raises(ConfigError, match="not importable"):
            FlowConfig(array_namespace="definitely.not.a.module")
        config = FlowConfig(array_namespace="numpy")
        # Runtime-only: the namespace never changes results, so it must
        # not perturb the campaign cache key.
        assert config.config_hash() == FlowConfig().config_hash()

    def test_backend_reports_clean_error(self, mapped, stimulus):
        words, n = stimulus
        backend = ArrayApiBackend(namespace="definitely.not.a.module")
        with pytest.raises(SimulationError, match="not importable"):
            backend.run(mapped, words, n)

    def test_numpy_entry_is_pinned(self, monkeypatch, mapped, stimulus):
        """The ``numpy`` registry entry is this engine on numpy; it
        ignores the namespace knobs that retarget ``array_api``."""
        from repro.simulation.backends import get_backend
        words, n = stimulus
        monkeypatch.setenv(DEFAULT_NAMESPACE_ENV, "definitely.not.a.module")
        numpy_entry = get_backend("numpy")
        assert isinstance(numpy_entry, ArrayApiBackend)
        assert numpy_entry.name == "numpy"
        with using(array_namespace="repro"):
            state = numpy_entry.run(mapped, words, n)
        assert state.namespace is np
        with pytest.raises(SimulationError, match="not importable"):
            get_backend("array_api").run(mapped, words, n)


class TestTileGeometryMemoized:
    def test_memoized_per_plan_and_budget(self, mapped, stimulus):
        words, n = stimulus
        get_backend("numpy").run(mapped, words, n)  # warm schedule
        plan = cached_fault_plan(mapped)
        plan._tile_cache.clear()
        first = tile_geometry(plan, 7)
        assert plan._tile_cache == {(7, None): first}
        assert tile_geometry(plan, 7) == first
        other = tile_geometry(plan, 7, 123)
        assert plan._tile_cache[(7, 123)] == other
        assert len(plan._tile_cache) == 2

    def test_fresh_plan_fresh_cache(self, mapped):
        plan = cached_fault_plan(mapped)
        other = type(plan)(mapped)
        assert other._tile_cache == {}


class TestTileScratchReuse:
    def test_single_buffer_grows_monotonically(self):
        scratch = TileScratch(np)
        small = scratch.faulty((2, 3, 4))
        assert small.shape == (2, 3, 4)
        flat = scratch._flat
        # A same-or-smaller tile reuses the buffer (a view, no realloc).
        again = scratch.faulty((2, 3, 4))
        assert scratch._flat is flat
        assert again.base is flat
        smaller = scratch.faulty((1, 2, 3))
        assert scratch._flat is flat
        assert smaller.shape == (1, 2, 3)
        # Only a larger tile reallocates.
        scratch.faulty((4, 3, 4))
        assert scratch._flat is not flat

    def test_kernel_allocates_once_across_tiles(self, mapped, stimulus,
                                                monkeypatch):
        """A multi-tile sweep must not allocate one buffer per tile."""
        import repro.simulation.backends.fault_kernel as fk

        allocations = []
        real_empty = np.empty

        class CountingScratch(TileScratch):
            def faulty(self, shape):
                before = self._flat
                out = super().faulty(shape)
                if self._flat is not before:
                    allocations.append(shape)
                return out

        monkeypatch.setattr(fk, "TileScratch", CountingScratch)
        words, n = stimulus
        faults = all_faults(mapped)
        state = get_backend("numpy").run(mapped, words, n)
        plan = cached_fault_plan(mapped)
        budget = 1  # clamps to the minimum batch -> many tiles
        f_tile, _ = tile_geometry(plan, state.matrix.shape[1], budget)
        n_tiles = -(-len(set(faults)) // f_tile)
        fault_simulate_matrix(state, faults, element_budget=budget)
        assert real_empty is np.empty
        assert n_tiles > 1
        assert len(allocations) < n_tiles

    def test_scratch_reuse_bit_identical(self, mapped, stimulus):
        """Pinned: buffer reuse across tiles changes no detection bit."""
        words, n = stimulus
        faults = all_faults(mapped)
        reference = fault_simulate(mapped, faults, words, n,
                                   backend="bigint")
        state = get_backend("numpy").run(mapped, words, n)
        for budget in (1, 1000, None):
            got = fault_simulate_matrix(state, faults,
                                        element_budget=budget)
            assert got.detected == reference.detected, budget
            assert list(got.detected) == list(reference.detected), budget
            assert got.remaining == reference.remaining, budget
