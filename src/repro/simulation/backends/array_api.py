"""The packed ``uint64`` matrix engine on any array namespace.

Every line's waveform is one row of a ``(n_lines, n_words)`` ``uint64``
matrix — bit ``t`` of the row (little-endian across words) is the value
in pattern ``t``, the same packing as the big-int interchange words.  The
levelized schedule (:mod:`repro.simulation.schedule`) batches all gates
of one (level, type, arity) bucket into a single fancy-indexed array
operation, replacing the per-gate Python dispatch of the reference
engine.  The schedule sweep and the fault tiles run in the
namespace-parameterized kernels (:mod:`repro.simulation.kernels`) on a
pluggable array namespace — ``numpy`` by default, ``cupy`` or any other
array-API-style library by configuration — so a GPU/accelerator path
needs zero kernel changes.

Derived quantities are computed on the host matrix without ever
unpacking to big ints:

* transitions — whole-matrix shift/xor + ``np.bitwise_count``;
* leakage sums — per (type, arity) group, one masked-AND popcount per
  leakage-table pattern, accumulated in the table's iteration order so
  the per-gate floats match the reference backend bit-for-bit.

Two registry entries share this one engine:

* ``numpy`` — pinned to the numpy namespace; it ignores every namespace
  knob;
* ``array_api`` — the namespace resolves lazily at each dispatch, in
  precedence order:

  1. an explicit ``namespace=`` constructor argument (module or name);
  2. the session default, :attr:`repro.runtime.RuntimeOptions.
     array_namespace` (the CLI's ``--array-namespace`` flag installs
     it);
  3. the ``REPRO_ARRAY_NAMESPACE`` environment variable;
  4. the built-in default, ``numpy``.

  Installing a session default therefore retargets the registered
  instance.

Host transfers happen only at merge boundaries: the initial stimulus
upload, the settled-waveform download after a schedule sweep, and one
detection matrix per fault tile.
"""

from __future__ import annotations

import importlib
import os
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.cells.library import CellLibrary
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.obs.trace import span
from repro.simulation.backends.base import Backend, SimState
from repro.simulation.kernels import (
    eval_gate_rows,
    eval_schedule,
    initial_state,
    int_to_row,
    row_to_int,
    to_device,
    to_host,
)
from repro.simulation.schedule import LevelizedSchedule, cached_schedule
from repro.simulation.values import mask

if TYPE_CHECKING:  # pragma: no cover - runtime import would be cyclic
    from repro.atpg.faults import Fault
    from repro.atpg.faultsim import FaultSimResult
    from repro.simulation.fault_episode import FaultEpisodePlan

__all__ = ["ArrayApiBackend", "ArrayApiState", "resolve_array_namespace",
           "DEFAULT_NAMESPACE_ENV"]

#: Environment variable consulted for the default array namespace.
DEFAULT_NAMESPACE_ENV = "REPRO_ARRAY_NAMESPACE"

#: Namespace attributes the shared kernels call; probed at resolution
#: time so a non-conforming library fails fast with a clear error
#: instead of deep inside a levelized sweep.
_REQUIRED_SURFACE = ("asarray", "zeros", "empty", "where", "broadcast_to",
                     "reshape", "uint64")

_MODULE_CACHE: dict[str, Any] = {}

_ONE = np.uint64(1)
_SHIFT63 = np.uint64(63)

#: Per-byte popcount table for the NumPy < 2.0 fallback path.
_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)],
                          dtype=np.uint8)


def _popcount_sum_fallback(arr: np.ndarray,
                           buf: np.ndarray | None = None) -> np.ndarray:
    """Bit count summed over the last axis, via a byte lookup table.

    Works on any NumPy; bit counts are byte-order independent, so the
    ``uint8`` reinterpretation is safe on either endianness.
    """
    as_bytes = np.ascontiguousarray(arr).view(np.uint8)
    return _BYTE_POPCOUNT[as_bytes].sum(axis=-1, dtype=np.int64)


if hasattr(np, "bitwise_count"):
    def _popcount_sum(arr: np.ndarray,
                      buf: np.ndarray | None = None) -> np.ndarray:
        """Bit count summed over the last axis (``np.bitwise_count``,
        NumPy >= 2.0); ``buf`` is an optional uint8 scratch of
        ``arr.shape``."""
        return np.bitwise_count(arr, out=buf).sum(axis=-1)
else:  # pragma: no cover - exercised only on NumPy 1.x installs
    _popcount_sum = _popcount_sum_fallback


def resolve_array_namespace(spec: str | Any | None = None) -> Any:
    """Resolve an array-namespace spec into a namespace object.

    ``spec`` may be a module-like object (returned as-is after a
    conformance probe), an importable module name, or ``None`` — which
    walks the knob chain: session default
    (:attr:`repro.runtime.RuntimeOptions.array_namespace`), then
    ``$REPRO_ARRAY_NAMESPACE``, then ``numpy``.  Raises
    :class:`SimulationError` for an unimportable name or a namespace
    missing part of the kernel surface.
    """
    if spec is None:
        from repro.runtime import session_defaults
        spec = session_defaults().array_namespace
    if spec is None:
        spec = os.environ.get(DEFAULT_NAMESPACE_ENV, "") or "numpy"
    if isinstance(spec, str):
        cached = _MODULE_CACHE.get(spec)
        if cached is not None:
            return cached
        try:
            namespace = importlib.import_module(spec)
        except ImportError as exc:
            raise SimulationError(
                f"array namespace {spec!r} is not importable: "
                f"{exc}") from exc
    else:
        namespace = spec
    missing = [attr for attr in _REQUIRED_SURFACE
               if not hasattr(namespace, attr)]
    if missing:
        name = spec if isinstance(spec, str) else \
            getattr(namespace, "__name__", repr(namespace))
        raise SimulationError(
            f"array namespace {name!r} does not provide the kernel "
            f"surface: missing {', '.join(missing)}")
    if isinstance(spec, str):
        _MODULE_CACHE[spec] = namespace
    return namespace


class ArrayApiState(SimState):
    """Settled waveforms as rows of a packed ``uint64`` matrix.

    The host matrix (downloaded once at the end of the schedule sweep —
    the merge boundary) feeds every derived quantity, which keeps
    transitions, leakage sums and pattern counts bit-identical across
    namespaces by construction.  ``device_matrix`` is the same matrix
    resident in ``namespace`` (the host array itself on numpy), so
    fault replay tiles read it without re-uploading.
    """

    def __init__(self, circuit: Circuit, n: int,
                 schedule: LevelizedSchedule, matrix: np.ndarray,
                 full_row: np.ndarray, device_matrix: Any,
                 namespace: Any):
        super().__init__(circuit, n)
        self._schedule = schedule
        self._matrix = matrix
        self._full_row = full_row
        self.device_matrix = device_matrix
        self.namespace = namespace

    @property
    def matrix(self) -> np.ndarray:
        """The raw ``(n_lines, n_words)`` waveform matrix (read-only use)."""
        return self._matrix

    def lines(self) -> Sequence[str]:
        return self._schedule.lines

    def word(self, line: str) -> int:
        return row_to_int(self._matrix[self._schedule.line_index[line]])

    def words(self) -> dict[str, int]:
        matrix = self._matrix
        return {line: int.from_bytes(matrix[i].tobytes(), "little")
                for i, line in enumerate(self._schedule.lines)}

    def transitions(self) -> dict[str, int]:
        state = self._matrix[:len(self._schedule.lines)]
        n = self.n
        if n < 2 or state.shape[1] == 0:
            return dict.fromkeys(self._schedule.lines, 0)
        diff = np.empty_like(state)
        diff[:, :-1] = (state[:, :-1] >> _ONE) | (state[:, 1:] << _SHIFT63)
        diff[:, -1] = state[:, -1] >> _ONE
        diff ^= state
        # Only the tail word can hold bits at or above position n-1.
        diff[:, -1] &= np.uint64((mask(n - 1) >> (64 * (state.shape[1] - 1)))
                                 & 0xFFFFFFFFFFFFFFFF)
        counts = _popcount_sum(diff)
        return dict(zip(self._schedule.lines, counts.tolist()))

    def _pattern_counts(self, rows: np.ndarray) -> np.ndarray:
        """Exact per-gate cycle counts for every input pattern.

        ``rows`` is ``(arity, n_gates, n_words)``; the result is
        ``(2**arity, n_gates)`` int64, entry ``[p, g]`` the number of
        patterns on which gate ``g``'s inputs equal bit-pattern ``p``
        (pin ``j`` = bit ``j`` of ``p``).

        Computed as subset popcounts (AND-products shared along a prefix
        tree) followed by Möbius inversion over the subset lattice —
        integer-exact, so downstream float pricing matches the reference
        backend's per-pattern popcounts bit-for-bit.
        """
        arity, n_gates, n_words = rows.shape
        subsets = 1 << arity
        ones = np.empty((subsets, n_gates), dtype=np.int64)
        ones[0] = self.n
        prods: list[np.ndarray | None] = [None] * subsets
        pop = np.empty((n_gates, n_words), dtype=np.uint8)
        for m in range(1, subsets):
            low = m & -m
            if m == low:
                prods[m] = rows[low.bit_length() - 1]
            else:
                prods[m] = prods[m ^ low] & prods[low]
            ones[m] = _popcount_sum(prods[m], pop)
        # In-place superset Möbius inversion: afterwards ones[p] is the
        # count of cycles whose pattern is exactly p.
        lattice = ones.reshape((2,) * arity + (n_gates,))
        for axis in range(arity):
            zero = tuple(0 if i == axis else slice(None)
                         for i in range(arity))
            one = tuple(1 if i == axis else slice(None)
                        for i in range(arity))
            lattice[zero] -= lattice[one]
        return ones

    def leakage_sum(self, library: CellLibrary) -> dict[str, float]:
        schedule = self._schedule
        state = self._matrix
        n_inputs = len(schedule.input_lines)
        # Fixed topological insertion order: downstream float reductions
        # (e.g. mean leakage) must sum in the same order as the reference
        # backend to stay bit-identical.
        leakage = {line: 0.0 for line in schedule.lines[n_inputs:]}
        for group in schedule.type_groups:
            table = library.leakage_table(group.gtype, group.arity)
            totals = np.zeros(len(group), dtype=np.float64)
            if group.arity == 0:
                # Zero-input tie cells leak their single table entry on
                # every pattern.
                for _pattern, leak_na in table.items():
                    totals += float(self.n) * leak_na
            else:
                counts = self._pattern_counts(state[group.inputs])
                for pattern, leak_na in table.items():
                    code = 0
                    for pin, bit in enumerate(pattern):
                        code |= bit << pin
                    totals += counts[code].astype(np.float64) * leak_na
            for out_pos, value in zip(group.outputs, totals):
                leakage[schedule.lines[out_pos]] = float(value)
        return leakage

    def pattern_counts(self) -> dict[str, np.ndarray]:
        """Möbius-inverted subset popcounts per (type, arity) group.

        Same integers as the generic per-pattern popcount reference
        (:meth:`SimState.pattern_counts`), one vectorized pass per
        group instead of one Python loop per gate.
        """
        schedule = self._schedule
        n_inputs = len(schedule.input_lines)
        # Seed the dict in topological order; groups fill it out of
        # order but cover every combinational gate exactly once.
        counts: dict[str, np.ndarray] = \
            dict.fromkeys(schedule.lines[n_inputs:])  # type: ignore[arg-type]
        for group in schedule.type_groups:
            ones = self._pattern_counts(self._matrix[group.inputs])
            for g, out_pos in enumerate(group.outputs):
                counts[schedule.lines[out_pos]] = \
                    np.ascontiguousarray(ones[:, g])
        return counts

    def _unpack_bools(self, line: str) -> np.ndarray:
        row = self._matrix[self._schedule.line_index[line]]
        bits = np.unpackbits(np.frombuffer(row.tobytes(), dtype=np.uint8),
                             bitorder="little")
        return bits[:self.n].astype(bool)


class ArrayApiBackend(Backend):
    """The shared packed kernels on a configurable array namespace.

    ``name`` overrides the registry key; the ``numpy`` entry is this
    engine constructed as ``ArrayApiBackend("numpy", name="numpy")``.
    """

    name = "array_api"

    def __init__(self, namespace: str | Any | None = None,
                 name: str | None = None):
        self._namespace = namespace
        if name is not None:
            self.name = name

    def _resolve(self) -> Any:
        return resolve_array_namespace(self._namespace)

    def run(self, circuit: Circuit, input_words: Mapping[str, int],
            n: int) -> ArrayApiState:
        xp = self._resolve()
        schedule = cached_schedule(circuit)
        n_words = (n + 63) // 64
        full = mask(n)
        full_row = int_to_row(full, n_words)
        host = initial_state(schedule, input_words, n, n_words, full,
                             full_row)
        device = to_device(xp, host)
        eval_schedule(xp, schedule, device, to_device(xp, full_row))
        return ArrayApiState(circuit, n, schedule, to_host(device),
                             full_row, device, xp)

    def eval_gate_packed(self, gtype: GateType, words: Sequence[int],
                         n: int) -> int:
        xp = self._resolve()
        n_words = (n + 63) // 64
        full_row = int_to_row(mask(n), n_words)
        if words:
            rows = np.stack([int_to_row(w, n_words) for w in words])
        else:
            rows = np.zeros((0, n_words), dtype="<u8")
        out = eval_gate_rows(xp, gtype, to_device(xp, rows),
                             to_device(xp, full_row), (n_words,))
        return row_to_int(to_host(out))

    def fault_simulate_batch(self, circuit: Circuit,
                             faults: "Sequence[Fault]",
                             input_words: Mapping[str, int], n: int,
                             drop: bool = True,
                             cone_cache: dict[str, list[str]] | None = None
                             ) -> "FaultSimResult":
        """Fused batched cone replay, tiles evaluated on the namespace.

        See :mod:`repro.simulation.backends.fault_kernel`; bit-identical
        to the scalar reference.  ``cone_cache`` (a string-keyed cache
        of the scalar path) is ignored — the kernel keeps its own
        per-circuit plan.
        """
        from repro.simulation.backends.fault_kernel import (
            fault_simulate_matrix,
        )
        state = self.run(circuit, input_words, n)
        return fault_simulate_matrix(state, faults, drop=drop,
                                     xp=state.namespace,
                                     matrix=state.device_matrix)

    def fault_simulate_plan(self, plan: "FaultEpisodePlan",
                            drop: bool = True,
                            stream_budget: int | None = None
                            ) -> "FaultSimResult":
        """Whole-plan replay on the 2-D-tiled kernel, namespace-resident.

        The plan's memoized good-machine state (and with it the
        levelized schedule and the device matrix) is settled once and
        reused across every fault-axis chunk and pattern-axis word
        block; see :func:`repro.simulation.backends.fault_kernel.
        fault_simulate_matrix`.  Bit-identical to the scalar reference
        for every tile geometry.  A resolved ``stream_budget`` the plan
        exceeds switches to streamed pattern windows (the memoized state
        is bypassed — it is exactly the matrix streaming avoids).
        """
        from repro.simulation.backends.fault_kernel import (
            fault_simulate_matrix,
        )
        from repro.simulation.streaming import (
            resolve_stream_budget,
            stream_fault_plan,
        )
        budget = resolve_stream_budget(stream_budget)
        if budget is not None and plan.state_elements() > budget:
            return stream_fault_plan(self, plan, budget)
        state = plan.good_state(self)
        assert isinstance(state, ArrayApiState)
        with span("sim.fault_plan", backend=self.name,
                  faults=plan.n_faults, patterns=plan.n):
            return fault_simulate_matrix(state, plan.faults, drop=drop,
                                         xp=state.namespace,
                                         matrix=state.device_matrix)

    def fault_window_result(self, circuit: Circuit,
                            faults: "Sequence[Fault]",
                            input_words: Mapping[str, int], n: int,
                            element_budget: int | None = None
                            ) -> "FaultSimResult":
        """One streamed pattern window on the tiled kernel.

        The good machine is settled over the window's cycles only and
        the fault tiles are evaluated from that window view, with the
        kernel's element budget capped at the stream budget so a faulty
        tile never outgrows the window it streams from.
        """
        from repro.simulation.backends.fault_kernel import (
            _BATCH_ELEMENT_BUDGET,
            fault_simulate_matrix,
        )
        state = self.run(circuit, input_words, n)
        budget = _BATCH_ELEMENT_BUDGET if element_budget is None else \
            min(element_budget, _BATCH_ELEMENT_BUDGET)
        return fault_simulate_matrix(state, faults, drop=False,
                                     element_budget=budget,
                                     xp=state.namespace,
                                     matrix=state.device_matrix)
