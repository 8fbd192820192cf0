"""Reference PODEM state, recomputed from scratch.

These are the routines the PODEM engine used before it became
incremental: generic ``_eval_op`` dispatch, a full topological
re-implication of both machines for the current input assignment, a
D-frontier found by scanning the whole fault cone and detection found by
scanning every observable line.  The engine must agree with them after
every assign, unassign and retarget.
"""

from __future__ import annotations

import dataclasses

from repro.atpg.podem import (
    _AND, _BUF, _C0, _MUX, _NAND, _NOR, _NOT, _OR, _XNOR, _XOR,
    PodemEngine,
)
from repro.netlist.gates import X


def eval_op(op: int, values: list[int], fanin: tuple[int, ...]) -> int:
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


@dataclasses.dataclass
class OracleState:
    good: list[int]
    bad: list[int]
    dset: set[int]
    d_frontier: list[int]
    detected: bool


def _is_d(good: list[int], bad: list[int], li: int) -> bool:
    g = good[li]
    return g != X and bad[li] != X and g != bad[li]


def recompute(engine: PodemEngine) -> OracleState:
    """The state ``engine`` must hold for its fault and assignment."""
    n = len(engine.names)
    fault, stuck = engine.fault_idx, engine.stuck
    good = [X] * n
    bad = [X] * n
    for li, value in engine.assignment.items():
        good[li] = value
        bad[li] = value
    if engine.op[fault] == -1:
        bad[fault] = stuck
    for li in engine.topo_idx:
        good[li] = eval_op(engine.op[li], good, engine.fanin[li])
        if li == fault:
            bad[li] = stuck
        else:
            bad[li] = eval_op(engine.op[li], bad, engine.fanin[li])

    cone_names = engine.circuit.fanout_cone(engine.names[fault])
    frontier = []
    for li in engine.topo_idx:
        if engine.names[li] not in cone_names:
            continue
        if good[li] != X and bad[li] != X:
            continue
        if any(_is_d(good, bad, si) for si in engine.fanin[li]):
            frontier.append(li)

    return OracleState(
        good=good,
        bad=bad,
        dset={li for li in range(n) if _is_d(good, bad, li)},
        d_frontier=frontier,
        detected=any(_is_d(good, bad, o) for o in engine.obs_idx),
    )
