"""Exact sum-over-paths simulation of Toffoli-Hadamard circuits.

Circuits over {H, X, C^(m)Z, SWAP} become symbolic path sums; a
variable-eliminating rewrite system reduces them, and dense evaluation
of the (hopefully small) normal form yields exact amplitudes and
measurement probabilities.  Hidden-shift instances reduce all the way to
a basis state, which makes their classical simulation polynomial time.
"""

from .boolpoly import BoolPoly
from .circuit import (Circuit, CircuitParseError, Gate, HiddenShiftSpec,
                      hidden_shift_circuit, parse, random_circuit, serialize)
from .exact import Amplitude, ParityError
from .oracle import marginal_one, statevector_oracle
from .rewrite import (DETERMINISTIC_FIRST, RewriteStep, Rule, StaleStepError,
                      Strategy, VarCapError, apply, find_rewrites, normalize,
                      reduce, seeded_random, simply_equivalent)
from .sim import (NonDeterministicOutcomeError, ShiftResult,
                  SimulationConsistencyError, measure_sim, projector_one,
                  recover_shift, strong_sim)
from .sums import (DEFAULT_MAX_EVAL_VARS, EvalGuardError, PathSum, adjoint,
                   bra, compose, evaluate, from_dict, from_json, identity,
                   interpret, ket, tensor, to_dict, to_json, zero_op)

__all__ = [
    "Amplitude", "BoolPoly", "Circuit", "CircuitParseError",
    "DEFAULT_MAX_EVAL_VARS", "DETERMINISTIC_FIRST", "EvalGuardError", "Gate",
    "HiddenShiftSpec", "NonDeterministicOutcomeError", "ParityError",
    "PathSum", "RewriteStep", "Rule", "ShiftResult",
    "SimulationConsistencyError", "StaleStepError", "Strategy", "VarCapError",
    "adjoint", "apply", "bra", "compose", "evaluate", "find_rewrites",
    "from_dict", "from_json", "hidden_shift_circuit", "identity", "interpret",
    "ket", "marginal_one", "measure_sim", "normalize", "parse",
    "projector_one", "random_circuit", "recover_shift", "reduce",
    "seeded_random", "serialize", "simply_equivalent", "statevector_oracle",
    "strong_sim", "tensor", "to_dict", "to_json", "zero_op",
]
