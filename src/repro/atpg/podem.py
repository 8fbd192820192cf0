"""PODEM test generation for single stuck-at faults.

Classic PODEM (Goel 1981): decisions are made only on controllable inputs
(here: primary inputs *and* pseudo-inputs, since scan makes flops fully
controllable), mapped from internal objectives by backtrace, with
three-valued implication after every decision and chronological
backtracking.

Instead of a 5-valued D-calculus we carry **two** three-valued
simulations — the good machine and the faulty machine (with the fault
site forced) — which is equivalent: a line carries ``D`` exactly when the
two machines disagree on binary values.

Implementation note: the inner machine works on an integer-indexed copy
of the netlist (opcode dispatch, flat lists).  PODEM spends its whole
life in implication, so every decision does only incremental work:

* **Undo trail.**  Each time implication changes a line, the engine
  pushes ``(line, old good, old bad)``; :meth:`PodemEngine.assign`
  records a mark and :meth:`PodemEngine.unassign` pops back to it with
  no re-simulation.  Three-valued forward implication on a DAG is a
  function of the input assignment, so the restored state is exactly
  the state before the matching assign.
* **Cone-restricted faulty machine.**  Outside the fault's fanout cone
  the faulty value equals the good value; the bad machine is evaluated
  only where the per-fault ``in_cone`` flag is set.  Retargeting copies
  the (fault-independent) all-X good state and evaluates the cone alone.
* **Level buckets.**  Implication sweeps one pre-allocated list per
  logic level instead of a heap; any level-ordered sweep reaches the
  same fixed point.
* **Live D-set.**  The set of lines carrying ``D`` is updated wherever a
  value changes (implication, undo, retarget).  Detection is "some
  D-line is observable"; the D-frontier is the X-output fanouts of the
  D-lines in topological order, the order a scan of the cone yields.

All public interfaces speak line names.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

from repro.atpg.faults import Fault, observable_lines
from repro.atpg.scoap import compute_scoap
from repro.errors import AtpgError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType, X
from repro.simulation.eval2 import comb_input_lines

__all__ = ["PodemResult", "PodemEngine", "generate_test"]

# integer opcodes for the index machine
_AND, _NAND, _OR, _NOR, _NOT, _BUF, _XOR, _XNOR, _MUX, _C0, _C1 = range(11)

_OPCODE = {
    GateType.AND: _AND, GateType.NAND: _NAND,
    GateType.OR: _OR, GateType.NOR: _NOR,
    GateType.NOT: _NOT, GateType.BUFF: _BUF,
    GateType.XOR: _XOR, GateType.XNOR: _XNOR,
    GateType.MUX2: _MUX,
    GateType.CONST0: _C0, GateType.CONST1: _C1,
}

#: controlling value per opcode (None encoded as -1)
_CV = {_AND: 0, _NAND: 0, _OR: 1, _NOR: 1}
_RESPONSE = {_AND: 0, _NAND: 1, _OR: 1, _NOR: 0}


@dataclasses.dataclass
class PodemResult:
    """Outcome of one PODEM run.

    ``status`` is "detected", "untestable" or "aborted"; on detection
    ``assignment`` holds the (possibly partial) controllable input values.
    """

    status: str
    assignment: dict[str, int]
    backtracks: int

    @property
    def detected(self) -> bool:
        return self.status == "detected"


def _eval_op(op: int, values: list[int], fanin: tuple[int, ...]) -> int:
    """Three-valued evaluation over the index machine's value list."""
    if op == _NAND or op == _AND:
        saw_x = False
        for i in fanin:
            v = values[i]
            if v == 0:
                return 1 if op == _NAND else 0
            if v == X:
                saw_x = True
        if saw_x:
            return X
        return 0 if op == _NAND else 1
    if op == _NOR or op == _OR:
        saw_x = False
        for i in fanin:
            v = values[i]
            if v == 1:
                return 0 if op == _NOR else 1
            if v == X:
                saw_x = True
        if saw_x:
            return X
        return 1 if op == _NOR else 0
    if op == _NOT:
        v = values[fanin[0]]
        return X if v == X else 1 - v
    if op == _BUF:
        return values[fanin[0]]
    if op == _XOR or op == _XNOR:
        parity = 0
        for i in fanin:
            v = values[i]
            if v == X:
                return X
            parity ^= v
        return parity if op == _XOR else 1 - parity
    if op == _MUX:
        sel = values[fanin[0]]
        d0 = values[fanin[1]]
        d1 = values[fanin[2]]
        if sel == 0:
            return d0
        if sel == 1:
            return d1
        if d0 == d1 and d0 != X:
            return d0
        return X
    if op == _C0:
        return 0
    return 1


class PodemEngine:
    """Reusable PODEM engine over an integer-indexed netlist.

    The expensive circuit-wide structures — index maps, opcode/fanin/
    fanout tables, level buckets, SCOAP measures, the all-X good state —
    are built **once**; each fault only re-evaluates its (cached) fanout
    cone.  Use one engine per circuit when generating many tests
    (:func:`repro.atpg.generate.generate_tests` does).

    Decisions are undone in LIFO order: :meth:`unassign` must name the
    most recently assigned input that is still assigned.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit

        names = list(circuit.lines())
        self.index = {name: i for i, name in enumerate(names)}
        self.names = names
        n = len(names)

        # per-line gate description (-1 op for sources / flop outputs)
        self.op: list[int] = [-1] * n
        self.fanin: list[tuple[int, ...]] = [()] * n
        self.level: list[int] = [0] * n
        self.fanout: list[list[int]] = [[] for _ in range(n)]
        self.topo_idx: list[int] = []
        #: position of each gate in ``topo_idx`` (D-frontier order)
        self.topo_pos: list[int] = [0] * n

        for line in circuit.topo_order():
            li = self.index[line]
            gate = circuit.gates[line]
            self.op[li] = _OPCODE[gate.gtype]
            fin = tuple(self.index[s] for s in gate.inputs)
            self.fanin[li] = fin
            self.level[li] = circuit.level_of(line)
            self.topo_pos[li] = len(self.topo_idx)
            self.topo_idx.append(li)
            for si in fin:
                self.fanout[si].append(li)

        self.input_idx = [self.index[s] for s in comb_input_lines(circuit)]
        self.input_set = set(self.input_idx)
        self.obs_idx = [self.index[s] for s in observable_lines(circuit)]
        self.obs_set = set(self.obs_idx)

        # SCOAP testability guides backtrace (easiest/hardest choices)
        # and D-frontier selection (most observable propagation path).
        scoap = compute_scoap(circuit)
        self.cc0 = [scoap.cc0.get(name, 1) for name in names]
        self.cc1 = [scoap.cc1.get(name, 1) for name in names]
        self.co = [scoap.co.get(name, 0) for name in names]

        # Good machine with every input at X: the same for every fault.
        self._x_good: list[int] = [X] * n
        for li in self.topo_idx:
            self._x_good[li] = _eval_op(self.op[li], self._x_good,
                                        self.fanin[li])

        self.good: list[int] = list(self._x_good)
        self.bad: list[int] = list(self._x_good)
        self.assignment: dict[int, int] = {}
        #: lines whose good and bad values are binary and differ
        self.dset: set[int] = set()
        self._cone_cache: dict[int, list[int]] = {}
        #: ``(line, old good, old bad)`` per implied value change
        self._trail: list[tuple[int, int, int]] = []
        #: ``(input, trail length)`` per live :meth:`assign`
        self._marks: list[tuple[int, int]] = []
        # implication work list: one bucket per level, plus queued flags
        self._buckets: list[list[int]] = [
            [] for _ in range(max(self.level, default=0) + 2)]
        self._queued = bytearray(n)

        # fault-specific state, set by _retarget
        self.fault_idx = -1
        self.stuck = 0
        self.cone_idx: list[int] = []
        self.in_cone = bytearray(n)

    def _fanout_cone(self, li: int) -> list[int]:
        """``li`` and its transitive fanout, in topological order."""
        cone = self._cone_cache.get(li)
        if cone is None:
            seen = {li}
            stack = [li]
            while stack:
                for si in self.fanout[stack.pop()]:
                    if si not in seen:
                        seen.add(si)
                        stack.append(si)
            seen.discard(li)
            cone = [li] + sorted(seen, key=self.topo_pos.__getitem__)
            self._cone_cache[li] = cone
        return cone

    def _retarget(self, fault: Fault) -> None:
        """Point the engine at a new fault and reset the machines."""
        try:
            fault_idx = self.index[fault.line]
        except KeyError:
            raise AtpgError(
                f"fault line {fault.line!r} not in circuit") from None
        in_cone = self.in_cone
        for li in self.cone_idx:
            in_cone[li] = 0
        self.fault_idx = fault_idx
        self.stuck = fault.stuck_at
        self.cone_idx = self._fanout_cone(fault_idx)
        for li in self.cone_idx:
            in_cone[li] = 1

        self.assignment = {}
        self._trail.clear()
        self._marks.clear()
        self.good[:] = self._x_good
        self.bad[:] = self._x_good
        self._full_imply()

    # -- implication ---------------------------------------------------- #

    def _full_imply(self) -> None:
        """Evaluate the faulty machine over the fault cone and rebuild
        the D-set (the good machine and the bad machine outside the cone
        are already consistent)."""
        good, bad = self.good, self.bad
        op, fanin = self.op, self.fanin
        fault_idx = self.fault_idx
        dset = self.dset
        dset.clear()
        for li in self.cone_idx:
            if li == fault_idx:
                bad[li] = self.stuck
            else:
                bad[li] = _eval_op(op[li], bad, fanin[li])
            if good[li] ^ bad[li] == 1:
                dset.add(li)

    def _propagate(self, seed: int) -> None:
        """Event-driven implication of a change at ``seed``, swept in
        level order; every value change is pushed on the trail."""
        good, bad, dset, trail = self.good, self.bad, self.dset, self._trail
        op, fanin, fanout, level = self.op, self.fanin, self.fanout, \
            self.level
        in_cone, fault_idx, stuck = self.in_cone, self.fault_idx, \
            self.stuck
        buckets, queued = self._buckets, self._queued
        lv = top = level[seed] + 1
        for si in fanout[seed]:
            if not queued[si]:
                queued[si] = 1
                sl = level[si]
                buckets[sl].append(si)
                if sl > top:
                    top = sl
        while lv <= top:
            bucket = buckets[lv]
            lv += 1
            if not bucket:
                continue
            for li in bucket:
                queued[li] = 0
                g = _eval_op(op[li], good, fanin[li])
                if not in_cone[li]:
                    og = good[li]
                    if g == og:
                        continue
                    trail.append((li, og, og))
                    good[li] = g
                    bad[li] = g
                else:
                    if li == fault_idx:
                        b = stuck
                    else:
                        b = _eval_op(op[li], bad, fanin[li])
                    og, ob = good[li], bad[li]
                    if g == og and b == ob:
                        continue
                    trail.append((li, og, ob))
                    good[li] = g
                    bad[li] = b
                    if g ^ b == 1:
                        dset.add(li)
                    elif og ^ ob == 1:
                        dset.discard(li)
                for si in fanout[li]:
                    if not queued[si]:
                        queued[si] = 1
                        sl = level[si]
                        buckets[sl].append(si)
                        if sl > top:
                            top = sl
            bucket.clear()

    def set_input(self, li: int, value: int) -> None:
        good, bad = self.good, self.bad
        self._trail.append((li, good[li], bad[li]))
        b = self.stuck if li == self.fault_idx else value
        good[li] = value
        bad[li] = b
        if value ^ b == 1:
            self.dset.add(li)
        else:
            self.dset.discard(li)
        self._propagate(li)

    def assign(self, li: int, value: int) -> None:
        self._marks.append((li, len(self._trail)))
        self.assignment[li] = value
        self.set_input(li, value)

    def unassign(self, li: int) -> None:
        """Undo the latest :meth:`assign` (of ``li``) from the trail."""
        if not self._marks or self._marks[-1][0] != li:
            raise AtpgError(
                f"unassign({self.names[li]!r}) is not the latest decision")
        _li, mark = self._marks.pop()
        del self.assignment[li]
        good, bad, dset, trail = self.good, self.bad, self.dset, self._trail
        for line, g, b in reversed(trail[mark:]):
            good[line] = g
            bad[line] = b
            if g ^ b == 1:
                dset.add(line)
            else:
                dset.discard(line)
        del trail[mark:]

    # -- state queries ---------------------------------------------------- #

    def is_d(self, li: int) -> bool:
        # With X == 2, ``g ^ b == 1`` iff one value is 0 and the other 1.
        return self.good[li] ^ self.bad[li] == 1

    def detected(self) -> bool:
        return not self.dset.isdisjoint(self.obs_set)

    def activated(self) -> bool:
        return self.fault_idx in self.dset

    def activation_possible(self) -> bool:
        return self.good[self.fault_idx] != self.stuck

    def d_frontier(self) -> list[int]:
        """Gates with a D input and an undetermined output, in
        topological order (all of them lie inside the fault cone)."""
        good, bad, fanout = self.good, self.bad, self.fanout
        frontier = {si for d in self.dset for si in fanout[d]
                    if good[si] == X or bad[si] == X}
        return sorted(frontier, key=self.topo_pos.__getitem__)

    def has_x_path(self, li: int) -> bool:
        obs = self.obs_set
        seen: set[int] = set()
        stack = [li]
        good, bad = self.good, self.bad
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if cur in obs:
                return True
            for si in self.fanout[cur]:
                if good[si] == X or bad[si] == X:
                    stack.append(si)
        return False


def _backtrace(machine: PodemEngine, li: int, value: int
               ) -> tuple[int, int] | None:
    """Map an internal objective to a controllable-input assignment."""
    good = machine.good
    current, target = li, value
    for _ in range(len(machine.names) + 2):
        if current in machine.input_set:
            return current, target
        op = machine.op[current]
        if op == -1:
            return None  # uncontrollable source (should not occur here)
        fanin = machine.fanin[current]
        x_inputs = [s for s in fanin if good[s] == X]
        if not x_inputs:
            return None
        if op == _NOT:
            current, target = fanin[0], 1 - target
            continue
        if op == _BUF:
            current, target = fanin[0], target
            continue
        if op == _XOR or op == _XNOR:
            known = 0
            for s in fanin:
                if good[s] != X:
                    known ^= good[s]
            parity = target if op == _XOR else 1 - target
            current, target = x_inputs[0], parity ^ known
            continue
        if op == _MUX:
            current, target = x_inputs[0], 0
            continue
        cv = _CV.get(op)
        if cv is None:
            return None
        if target == _RESPONSE[op]:
            # one controlling input suffices: easiest to set to cv
            cc = machine.cc1 if cv else machine.cc0
            current = min(x_inputs, key=cc.__getitem__)
            target = cv
        else:
            # all inputs must be non-controlling: hardest first
            cc = machine.cc0 if cv else machine.cc1
            current = max(x_inputs, key=cc.__getitem__)
            target = 1 - cv
    raise AtpgError("backtrace did not terminate")  # pragma: no cover


def _objective(machine: PodemEngine) -> tuple[int, int] | None:
    """Next (line index, value) objective, or None when hopeless."""
    if not machine.activated():
        if not machine.activation_possible():
            return None
        return machine.fault_idx, 1 - machine.stuck
    good = machine.good
    frontier = machine.d_frontier()
    frontier.sort(key=machine.co.__getitem__)
    for gate_idx in frontier:
        if not machine.has_x_path(gate_idx):
            continue
        op = machine.op[gate_idx]
        cv = _CV.get(op)
        for si in machine.fanin[gate_idx]:
            if good[si] == X:
                return si, (1 - cv) if cv is not None else 0
    return None


def generate_test(circuit: Circuit, fault: Fault,
                  max_backtracks: int = 100,
                  max_decisions: int = 20_000,
                  engine: PodemEngine | None = None) -> PodemResult:
    """Run PODEM for one fault on the combinational test view.

    Returns a :class:`PodemResult`; "untestable" means the whole decision
    tree was exhausted (the fault is provably redundant at this netlist),
    "aborted" means the backtrack or decision budget ran out first.

    Pass a shared :class:`PodemEngine` when generating tests for many
    faults of the same circuit — it amortises the netlist indexing and
    SCOAP computation.
    """
    machine = engine if engine is not None else PodemEngine(circuit)
    if machine.circuit is not circuit:
        raise AtpgError("engine belongs to a different circuit")
    machine._retarget(fault)
    # decision stack entries: (input index, value, both_tried)
    stack: list[tuple[int, int, bool]] = []
    backtracks = 0
    decisions = 0

    def result(status: str) -> PodemResult:
        assignment = {machine.names[i]: v
                      for i, v in machine.assignment.items()}
        return PodemResult(status, assignment if status == "detected"
                           else {}, backtracks)

    while True:
        if machine.detected():
            return result("detected")
        objective = _objective(machine)
        decision = None
        if objective is not None:
            decision = _backtrace(machine, *objective)
        if decision is not None:
            li, value = decision
            decisions += 1
            if decisions > max_decisions:
                return result("aborted")
            machine.assign(li, value)
            stack.append((li, value, False))
            continue
        # No way forward: chronological backtracking.
        while stack:
            li, value, both = stack.pop()
            machine.unassign(li)
            if not both:
                backtracks += 1
                if backtracks > max_backtracks:
                    return result("aborted")
                machine.assign(li, 1 - value)
                stack.append((li, 1 - value, True))
                break
        else:
            return result("untestable")


def fill_dont_cares(circuit: Circuit, assignment: Mapping[str, int],
                    fill_value_fn) -> dict[str, int]:
    """Complete a partial PODEM assignment over all controllable inputs.

    ``fill_value_fn(line)`` supplies the value for unassigned lines
    (random fill, zero fill, or the repeat-last-vector fill ATOM uses).
    """
    values = dict(assignment)
    for line in comb_input_lines(circuit):
        if line not in values:
            values[line] = fill_value_fn(line)
    return values
