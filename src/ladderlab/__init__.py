"""ladderlab: interleaved ladders, fault-attack simulation, constant analysis."""

from .errors import (
    Coincidence,
    DomainTooLarge,
    InvalidCoefficient,
    LadderError,
    NoConstantExists,
    NotCoprime,
    NotOnCurve,
)
from .faults import FaultPlan, RegisterFault
from .ladders import (
    Affine1,
    KeyBits,
    LadderSpec,
    OpCounts,
    Quad2,
    Trace,
    check_fully_equations,
    check_semi_equations,
    lift_semi_to_fully,
    run_branching,
    run_fully_ladder,
    run_semi_ladder,
    spec_from_json,
    spec_to_json,
)
from .modarith import Ring, eea, modpow_reference
from .modexp import (
    LadderConstants,
    MaskPolicy,
    cost_per_bit,
    find_ladder_constant,
    fully_interleaved_exp,
    ladder_constants,
    montgomery_ladder,
    semi_interleaved_exp,
    square_and_multiply,
    square_and_multiply_always,
)

__version__ = "0.1.0"
