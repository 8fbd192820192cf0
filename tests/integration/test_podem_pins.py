"""Pinned PODEM outcomes and default-circuit test sets (seed 1).

``tests/golden_podem_seed1.json`` holds a digest of every collapsed
fault's PODEM outcome on four circuits and of the ``FlowConfig(seed=1)``
test set of every default Table-I circuit.  Speedups of PODEM, the fault
engine or compaction must leave all of them unchanged bit for bit.
Regenerate only for *intentional* behaviour changes::

    PYTHONPATH=src python tests/integration/generate_podem_pins.py

A missing fixture fails the suite instead of skipping it.
"""

import json

import pytest

import generate_podem_pins as pins


@pytest.fixture(scope="module")
def golden():
    if not pins.GOLDEN.exists():
        pytest.fail(
            f"golden fixture {pins.GOLDEN} is missing; regenerate it with "
            f"'PYTHONPATH=src python "
            f"tests/integration/generate_podem_pins.py'")
    return json.loads(pins.GOLDEN.read_text())


@pytest.mark.parametrize("name", pins.PODEM_CIRCUITS)
def test_per_fault_podem_outcomes(golden, name):
    got = pins.podem_pin(pins.mapped_circuit(name))
    assert got == golden["podem"][name]


@pytest.mark.slow
@pytest.mark.parametrize("name", pins.DEFAULT_CIRCUITS)
def test_default_circuit_test_set(golden, name):
    test_set = pins.flow_test_set(pins.mapped_circuit(name))
    assert pins.test_set_pin(test_set) == golden["test_sets"][name]


def test_fixture_covers_every_default_circuit(golden):
    assert sorted(golden["test_sets"]) == sorted(pins.DEFAULT_CIRCUITS)
    assert sorted(golden["podem"]) == sorted(pins.PODEM_CIRCUITS)
