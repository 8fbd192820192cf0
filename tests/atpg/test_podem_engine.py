"""Tests for the reusable PODEM engine."""

import random

import pytest

from repro.atpg.faults import Fault, all_faults
from repro.atpg.podem import PodemEngine, generate_test
from repro.benchgen.generator import generate_circuit
from repro.errors import AtpgError
from repro.techmap.mapper import technology_map


class TestEngineReuse:
    def test_shared_engine_matches_fresh_runs(self, s27_mapped):
        """Re-targeting one engine must give byte-identical results to
        constructing a fresh engine per fault."""
        engine = PodemEngine(s27_mapped)
        for fault in all_faults(s27_mapped)[:16]:
            shared = generate_test(s27_mapped, fault, engine=engine)
            fresh = generate_test(s27_mapped, fault)
            assert shared.status == fresh.status, str(fault)
            assert shared.assignment == fresh.assignment, str(fault)

    def test_engine_state_reset_between_faults(self, s27_mapped):
        """One engine fed every fault of s27 and s344 in a shuffled
        order returns exactly what a fresh engine returns per fault, so
        no trail entry, mark, cone flag or D-set member outlives its
        fault."""
        s344 = technology_map(generate_circuit("s344", 1))
        for circuit in (s27_mapped, s344):
            faults = all_faults(circuit)
            random.Random(7).shuffle(faults)
            engine = PodemEngine(circuit)
            for fault in faults:
                shared = generate_test(circuit, fault, engine=engine)
                fresh = generate_test(circuit, fault)
                assert (shared.status, shared.assignment,
                        shared.backtracks) == \
                    (fresh.status, fresh.assignment,
                     fresh.backtracks), str(fault)

    def test_wrong_circuit_rejected(self, s27_mapped, toy_mapped):
        engine = PodemEngine(s27_mapped)
        with pytest.raises(AtpgError, match="different circuit"):
            generate_test(toy_mapped, Fault("n1", 0), engine=engine)

    def test_unknown_fault_line(self, s27_mapped):
        engine = PodemEngine(s27_mapped)
        with pytest.raises(AtpgError, match="not in circuit"):
            generate_test(s27_mapped, Fault("ghost", 0), engine=engine)

    def test_cone_cache_grows_once(self, s27_mapped):
        engine = PodemEngine(s27_mapped)
        generate_test(s27_mapped, Fault("G17", 0), engine=engine)
        size_after_first = len(engine._cone_cache)
        generate_test(s27_mapped, Fault("G17", 1), engine=engine)
        assert len(engine._cone_cache) == size_after_first


class TestScoapIntegration:
    def test_engine_carries_scoap(self, s27_mapped):
        engine = PodemEngine(s27_mapped)
        assert len(engine.cc0) == len(engine.names)
        assert len(engine.co) == len(engine.names)
        # inputs are the cheapest lines
        for li in engine.input_idx:
            assert engine.cc0[li] == 1
            assert engine.cc1[li] == 1
