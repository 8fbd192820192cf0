"""Backend registry and per-gate packed evaluation semantics.

``eval_gate_packed`` is exercised for every :class:`GateType` — including
the degenerate 0/1-input reductions the variadic types allow — on every
registered backend, pinned against the scalar reference evaluator.
"""

import pytest

from repro.errors import SimulationError
from repro.netlist.gates import GateType, eval_gate
from repro.simulation import backends
from repro.simulation.backends import (
    Backend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    set_default_backend,
)
from repro.simulation.values import bit_at, mask, pack_bits
from repro.utils.rng import make_rng

#: Arities exercised per gate type (variadic types include the degenerate
#: 0- and 1-input reductions the packed evaluators support).
ARITIES = {
    GateType.AND: (0, 1, 2, 3, 4),
    GateType.NAND: (0, 1, 2, 3, 4),
    GateType.OR: (0, 1, 2, 3, 4),
    GateType.NOR: (0, 1, 2, 3, 4),
    GateType.XOR: (0, 1, 2, 3, 4),
    GateType.XNOR: (0, 1, 2, 3, 4),
    GateType.NOT: (1,),
    GateType.BUFF: (1,),
    GateType.DFF: (1,),
    GateType.MUX2: (3,),
    GateType.CONST0: (0,),
    GateType.CONST1: (0,),
}

N_PATTERNS = 77  # deliberately not a multiple of 64

#: The public methods of the ``Backend`` protocol.  Fault simulation has
#: exactly one entry point; growing the surface is a design decision.
BACKEND_PUBLIC_METHODS = {
    "eval_gate_packed",
    "fault_simulate_plan",
    "run",
    "simulate_episode_batch",
    "simulate_packed",
}

BACKEND_NAMES = sorted(available_backends())


def _random_words(k: int, n: int, seed: int) -> list[int]:
    rng = make_rng(seed)
    full = mask(n)
    return [int.from_bytes(rng.bytes((n + 7) // 8), "little") & full
            for _ in range(k)]


class TestEvalGatePacked:
    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    @pytest.mark.parametrize(
        "gtype,arity",
        [(g, a) for g, arities in ARITIES.items() for a in arities],
        ids=lambda v: str(v))
    def test_matches_scalar_reference(self, backend_name, gtype, arity):
        backend = get_backend(backend_name)
        words = _random_words(arity, N_PATTERNS, seed=hash((gtype.value,
                                                            arity)) % 2**32)
        got = backend.eval_gate_packed(gtype, words, N_PATTERNS)
        expected = pack_bits(
            eval_gate(gtype, [bit_at(w, t) for w in words])
            for t in range(N_PATTERNS))
        assert got == expected

    @pytest.mark.parametrize(
        "gtype,arity",
        [(g, a) for g, arities in ARITIES.items() for a in arities],
        ids=lambda v: str(v))
    def test_backends_agree(self, gtype, arity):
        words = _random_words(arity, N_PATTERNS, seed=arity + 17)
        results = {
            name: get_backend(name).eval_gate_packed(
                gtype, words, N_PATTERNS)
            for name in BACKEND_NAMES
        }
        assert len(set(results.values())) == 1, results

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_result_is_masked(self, backend_name):
        backend = get_backend(backend_name)
        # Inverting gates must not leak ones above bit n-1.
        for gtype in (GateType.NOT, GateType.NAND, GateType.NOR,
                      GateType.XNOR, GateType.CONST1):
            arity = ARITIES[gtype][-1]
            words = [0] * arity
            got = backend.eval_gate_packed(gtype, words, 5)
            assert 0 <= got <= mask(5)


class TestRegistry:
    def test_builtin_backends_present(self):
        assert "bigint" in available_backends()
        assert "numpy" in available_backends()

    def test_get_unknown_backend_raises(self):
        with pytest.raises(SimulationError, match="unknown simulation "
                                                  "backend"):
            get_backend("no-such-engine")

    def test_resolve_accepts_name_instance_and_none(self):
        bigint = get_backend("bigint")
        assert resolve_backend("bigint") is bigint
        assert resolve_backend(bigint) is bigint
        assert resolve_backend(None).name in available_backends()

    def test_duplicate_registration_rejected(self):
        class Dup(backends.BigIntBackend):
            name = "bigint"

        with pytest.raises(SimulationError, match="already registered"):
            register_backend(Dup())

    def test_register_and_overwrite_custom_backend(self):
        class Custom(backends.BigIntBackend):
            name = "custom-test"

        try:
            register_backend(Custom())
            assert "custom-test" in available_backends()
            register_backend(Custom(), overwrite=True)
        finally:
            backends._REGISTRY.pop("custom-test", None)

    def test_unnamed_backend_rejected(self):
        class NoName(backends.BigIntBackend):
            name = ""

        with pytest.raises(SimulationError, match="no name"):
            register_backend(NoName())

    def test_set_default_backend(self):
        try:
            set_default_backend("numpy")
            assert resolve_backend(None).name == "numpy"
        finally:
            set_default_backend(None)

    def test_set_default_backend_validates(self):
        with pytest.raises(SimulationError):
            set_default_backend("no-such-engine")
        assert resolve_backend(None).name in available_backends()

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(backends.DEFAULT_BACKEND_ENV, "numpy")
        assert backends.default_backend_name() == "numpy"
        monkeypatch.delenv(backends.DEFAULT_BACKEND_ENV)
        assert backends.default_backend_name() == "bigint"


class TestPopcountFallback:
    """The byte-LUT popcount used on NumPy < 2.0 installs."""

    def test_fallback_matches_primary(self):
        import numpy as np

        from repro.simulation.backends import array_api as nb
        rng = make_rng(9)
        arr = rng.integers(0, 2**63, size=(7, 9)).astype(np.uint64)
        assert (nb._popcount_sum_fallback(arr) ==
                nb._popcount_sum(arr)).all()
        empty = np.zeros((3, 0), dtype=np.uint64)
        assert (nb._popcount_sum_fallback(empty) == 0).all()

    def test_backend_bit_identical_under_fallback(self, s27_mapped,
                                                  library, monkeypatch):
        from repro.simulation.backends import array_api as nb
        from repro.simulation.bitsim import random_input_words
        monkeypatch.setattr(nb, "_popcount_sum", nb._popcount_sum_fallback)
        words = random_input_words(s27_mapped, 100, make_rng(4))
        ref = get_backend("bigint").run(s27_mapped, words, 100)
        got = get_backend("numpy").run(s27_mapped, words, 100)
        assert got.transitions() == ref.transitions()
        assert got.leakage_sum(library) == ref.leakage_sum(library)


class TestSimulatePackedDispatch:
    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_missing_input_raises(self, backend_name, s27_mapped):
        backend = get_backend(backend_name)
        with pytest.raises(SimulationError, match="missing packed input"):
            backend.run(s27_mapped, {}, 8)

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_out_of_range_word_raises(self, backend_name, s27_mapped):
        from repro.simulation.eval2 import comb_input_lines
        backend = get_backend(backend_name)
        words = {line: 0 for line in comb_input_lines(s27_mapped)}
        words[s27_mapped.inputs[0]] = 1 << 8  # above the 8-pattern mask
        with pytest.raises(SimulationError, match="out of range"):
            backend.run(s27_mapped, words, 8)

    def test_backend_kwarg_on_simulate_packed(self, s27_mapped):
        from repro.simulation.bitsim import (
            random_input_words,
            simulate_packed,
        )
        words = random_input_words(s27_mapped, 100, make_rng(3))
        results = [simulate_packed(s27_mapped, words, 100, backend=name)
                   for name in BACKEND_NAMES]
        assert all(r == results[0] for r in results)

    def test_isinstance_backend_protocol(self):
        for name in BACKEND_NAMES:
            assert isinstance(get_backend(name), Backend)


class TestProtocolSurface:
    def test_public_method_names_are_pinned(self):
        names = {name for name in dir(Backend)
                 if not name.startswith("_")
                 and callable(getattr(Backend, name))}
        assert names == BACKEND_PUBLIC_METHODS

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_one_fault_method_per_engine(self, backend_name):
        engine = get_backend(backend_name)
        names = [name for name in dir(engine)
                 if "fault" in name and not name.startswith("_")
                 and callable(getattr(engine, name))]
        assert names == ["fault_simulate_plan"]
