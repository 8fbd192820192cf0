"""Differential test: the incremental PODEM engine vs a from-scratch
oracle.

Random sequences of assign / unassign / backtrack / retarget steps drive
one :class:`PodemEngine`; after every step its good and bad machines,
D-set, D-frontier and detection verdict must equal what
:mod:`podem_oracle` recomputes from the current assignment alone.  A
stale trail entry, mark, cone flag or D-set member shows up here.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.faults import Fault, all_faults
from repro.atpg.podem import PodemEngine
from repro.benchgen.generator import generate_from_stats
from repro.benchgen.iscas89 import Iscas89Stats
from repro.errors import AtpgError
from repro.netlist import builders
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.techmap.mapper import technology_map

import podem_oracle


def _mixed_circuit() -> Circuit:
    """Every opcode the engine knows, incl. MUX2, XOR and constants."""
    c = Circuit("mixed")
    for name in ("a", "b", "s", "d"):
        c.add_input(name)
    c.add_gate("one", GateType.CONST1, ())
    c.add_gate("zero", GateType.CONST0, ())
    c.add_gate("m1", GateType.MUX2, ("s", "a", "b"))
    c.add_gate("m2", GateType.MUX2, ("a", "one", "zero"))
    c.add_gate("x1", GateType.XOR, ("m1", "d", "b"))
    c.add_gate("x2", GateType.XNOR, ("m2", "x1"))
    c.add_gate("n1", GateType.AND, ("x1", "s", "q"))
    c.add_gate("n2", GateType.OR, ("n1", "m1"))
    c.add_gate("n3", GateType.BUFF, ("n2",))
    c.add_gate("n4", GateType.NOT, ("x2",))
    c.add_gate("n5", GateType.NAND, ("n3", "n4", "a"))
    c.add_gate("n6", GateType.NOR, ("n5", "d"))
    c.add_gate("q", GateType.DFF, ("n6",))
    c.add_output("n5")
    c.add_output("x2")
    return c


def _generated(seed: int, mapped: bool) -> Circuit:
    circuit = generate_from_stats(Iscas89Stats("orc", 5, 3, 4, 40), seed)
    return technology_map(circuit) if mapped else circuit


_BUILDERS = {
    "s27": builders.s27,
    "s27_mapped": lambda: technology_map(builders.s27()),
    "mixed": _mixed_circuit,
    "gen3": lambda: _generated(3, mapped=False),
    "gen11": lambda: _generated(11, mapped=False),
    "gen5_mapped": lambda: _generated(5, mapped=True),
    "gen17_mapped": lambda: _generated(17, mapped=True),
}


@functools.cache
def _engine(key: str) -> PodemEngine:
    return PodemEngine(_BUILDERS[key]())


def _assert_matches_oracle(engine: PodemEngine) -> None:
    want = podem_oracle.recompute(engine)
    assert engine.good == want.good
    assert engine.bad == want.bad
    assert engine.dset == want.dset
    assert engine.d_frontier() == want.d_frontier
    assert engine.detected() == want.detected
    assert engine.activated() == (engine.fault_idx in want.dset)


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(sorted(_BUILDERS)), data=st.data())
def test_incremental_state_matches_oracle(key, data):
    engine = _engine(key)
    faults = all_faults(engine.circuit)
    engine._retarget(data.draw(st.sampled_from(faults)))
    _assert_matches_oracle(engine)
    decisions: list[tuple[int, int]] = []
    for _ in range(data.draw(st.integers(1, 30))):
        free = [li for li in engine.input_idx
                if li not in engine.assignment]
        step = data.draw(st.sampled_from(
            ["assign", "assign", "unassign", "backtrack", "retarget"]))
        if step == "assign" and free:
            li = data.draw(st.sampled_from(free))
            value = data.draw(st.integers(0, 1))
            engine.assign(li, value)
            decisions.append((li, value))
        elif step == "unassign" and decisions:
            engine.unassign(decisions.pop()[0])
        elif step == "backtrack" and decisions:
            li, value = decisions.pop()
            engine.unassign(li)
            engine.assign(li, 1 - value)
            decisions.append((li, 1 - value))
        elif step == "retarget":
            engine._retarget(data.draw(st.sampled_from(faults)))
            decisions.clear()
        _assert_matches_oracle(engine)


def test_unassign_must_be_latest_decision():
    engine = PodemEngine(technology_map(builders.s27()))
    engine._retarget(Fault(engine.circuit.inputs[0], 0))
    first, second = engine.input_idx[:2]
    engine.assign(first, 1)
    engine.assign(second, 0)
    with pytest.raises(AtpgError, match="latest decision"):
        engine.unassign(first)
    engine.unassign(second)
    engine.unassign(first)
    _assert_matches_oracle(engine)
