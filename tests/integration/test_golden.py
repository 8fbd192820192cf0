"""Golden regression test: the seed-1 s27 flow must stay bit-stable.

The reference values in ``tests/golden_s27_seed1.json`` were produced by
the shipped code; any algorithmic drift (heuristic tweaks, RNG stream
changes, accounting changes) shows up here first, deliberately.  Update
the golden file only for *intentional* behaviour changes::

    PYTHONPATH=src python tests/integration/generate_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.core.config import FlowConfig
from repro.core.flow import ProposedFlow
from repro.netlist import builders

_GOLDEN = Path(__file__).parent.parent / "golden_s27_seed1.json"


@pytest.fixture(scope="module")
def golden():
    if not _GOLDEN.exists():
        pytest.fail(
            f"golden fixture {_GOLDEN} is missing; regenerate it with "
            f"'PYTHONPATH=src python tests/integration/generate_golden.py'")
    return json.loads(_GOLDEN.read_text())


@pytest.fixture(scope="module")
def result():
    return ProposedFlow(FlowConfig(seed=1)).run(builders.s27())


class TestGoldenS27:
    def test_structural_decisions(self, golden, result):
        assert sorted(result.addmux.muxable) == golden["muxable"]
        assert sorted(result.pattern.blocked_gates) == \
            golden["blocked_gates"]
        assert result.control_values == golden["control_values"]

    def test_test_set_size(self, golden, result):
        assert len(result.test_set.vectors) == golden["n_vectors"]

    @pytest.mark.parametrize("method", ["traditional", "input_control",
                                        "proposed"])
    def test_power_numbers(self, golden, result, method):
        want = golden["reports"][method]
        got = result.reports[method]
        assert got.n_cycles == want["n_cycles"]
        assert got.total_transitions == want["total_transitions"]
        assert got.dynamic_uw_per_hz == pytest.approx(
            want["dynamic_uw_per_hz"], rel=1e-6)
        assert got.static_uw == pytest.approx(
            want["static_uw"], rel=1e-6)
