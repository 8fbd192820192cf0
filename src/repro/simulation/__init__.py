"""Logic simulation: 2-valued, 3-valued and bit-parallel."""

from repro.simulation.backends import (
    Backend,
    SimState,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    set_default_backend,
)
from repro.simulation.bitsim import (
    eval_gate_packed,
    pack_input_vectors,
    random_input_words,
    simulate_packed,
)
from repro.simulation.cyclesim import CycleSimResult, simulate_cycles
from repro.simulation.episode import (
    EpisodeBatchResult,
    EpisodePlan,
    compile_episode_plan,
)
from repro.simulation.eval2 import comb_input_lines, simulate_comb
from repro.simulation.fault_episode import (
    FaultEpisodePlan,
    FaultSimSession,
    compile_fault_episode_plan,
)
from repro.simulation.eval3 import imply_from, simulate_comb3
from repro.simulation.schedule import (
    GateBatch,
    LevelizedSchedule,
    build_schedule,
    cached_schedule,
)
from repro.simulation.values import (
    bit_at,
    count_transitions,
    mask,
    pack_bits,
    pattern_count,
    unpack_bits,
    unpack_bool_array,
)

__all__ = [
    "simulate_comb",
    "comb_input_lines",
    "simulate_comb3",
    "imply_from",
    "simulate_packed",
    "pack_input_vectors",
    "random_input_words",
    "eval_gate_packed",
    "CycleSimResult",
    "simulate_cycles",
    "EpisodePlan",
    "EpisodeBatchResult",
    "compile_episode_plan",
    "FaultEpisodePlan",
    "FaultSimSession",
    "compile_fault_episode_plan",
    "mask",
    "pack_bits",
    "unpack_bits",
    "unpack_bool_array",
    "bit_at",
    "count_transitions",
    "pattern_count",
    # backends / scheduling
    "Backend",
    "SimState",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
    "GateBatch",
    "LevelizedSchedule",
    "build_schedule",
    "cached_schedule",
]
