"""Regenerate ``tests/golden_podem_seed1.json`` from the current code.

Run from the repo root::

    PYTHONPATH=src python tests/integration/generate_podem_pins.py

The file pins two things on the synthetic ISCAS89 stand-ins (circuit
seed 1, technology-mapped):

* ``podem`` — per circuit, a digest of every collapsed fault's PODEM
  outcome ``(line, stuck_at, status, sorted assignment, backtracks)``,
  run in collapsed order with ``max_backtracks=100`` on one shared
  :class:`~repro.atpg.podem.PodemEngine`;
* ``test_sets`` — per default Table-I circuit, a digest of the
  ``FlowConfig(seed=1)`` test set: vectors, ``n_detected``,
  ``n_untestable`` and ``n_aborted``.

Only commit the regenerated file for *intentional* behaviour changes —
speedups of PODEM or of the fault engine must leave it untouched.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from repro.atpg.collapse import collapse_faults
from repro.atpg.faults import all_faults
from repro.atpg.generate import TestSet, generate_tests
from repro.atpg.podem import PodemEngine, generate_test
from repro.benchgen.generator import generate_circuit
from repro.core.config import FlowConfig
from repro.experiments.table1 import DEFAULT_CIRCUITS
from repro.netlist.circuit import Circuit
from repro.scan.testview import ScanDesign
from repro.techmap.mapper import technology_map

GOLDEN = Path(__file__).parent.parent / "golden_podem_seed1.json"

#: circuits whose every collapsed fault is pinned through PODEM
PODEM_CIRCUITS = ("s344", "s444", "s641", "s1423")
MAX_BACKTRACKS = 100
SEED = 1


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def mapped_circuit(name: str) -> Circuit:
    """The synthetic stand-in for ``name`` (never a real netlist)."""
    return technology_map(generate_circuit(name, 1))


def podem_pin(circuit: Circuit) -> dict[str, Any]:
    engine = PodemEngine(circuit)
    outcomes = []
    status_counts = {"detected": 0, "untestable": 0, "aborted": 0}
    backtracks = 0
    for fault in collapse_faults(circuit, all_faults(circuit)):
        result = generate_test(circuit, fault, MAX_BACKTRACKS,
                               engine=engine)
        outcomes.append([fault.line, fault.stuck_at, result.status,
                         sorted(result.assignment.items()),
                         result.backtracks])
        status_counts[result.status] += 1
        backtracks += result.backtracks
    return {"n_faults": len(outcomes), **status_counts,
            "backtracks": backtracks, "digest": _digest(outcomes)}


def test_set_pin(test_set: TestSet) -> dict[str, Any]:
    vectors = [[sorted(v.pi_values.items()), list(v.scan_state)]
               for v in test_set.vectors]
    return {"n_vectors": len(vectors),
            "n_detected": test_set.n_detected,
            "n_untestable": test_set.n_untestable,
            "n_aborted": test_set.n_aborted,
            "digest": _digest(vectors)}


def flow_test_set(circuit: Circuit) -> TestSet:
    """The test set ``ProposedFlow(FlowConfig(seed=1))`` generates."""
    config = FlowConfig(seed=SEED)
    return generate_tests(ScanDesign.full_scan(circuit),
                          config.atpg_config(), backend=config.backend)


def build_pins() -> dict[str, Any]:
    return {
        "podem": {name: podem_pin(mapped_circuit(name))
                  for name in PODEM_CIRCUITS},
        "test_sets": {name: test_set_pin(flow_test_set(mapped_circuit(name)))
                      for name in DEFAULT_CIRCUITS},
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(build_pins(), indent=2, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
