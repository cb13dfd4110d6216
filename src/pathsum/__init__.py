"""Exact sum-over-paths simulation of Toffoli-Hadamard circuits.

Circuits over {H, X, C^(m)Z, SWAP} become symbolic path sums; a
variable-eliminating rewrite system reduces them, and dense evaluation
of the (hopefully small) normal form yields exact amplitudes and
measurement probabilities.  Hidden-shift instances reduce all the way to
a basis state, which makes their classical simulation polynomial time.
"""

from .boolpoly import BoolPoly
from .circuit import (Circuit, CircuitParseError, Gate, HiddenShiftSpec,
                      Volume, hidden_shift_circuit, parse, random_circuit,
                      random_hidden_shift_spec, serialize, volume)
from .exact import Amplitude, ParityError, Scalar
from .oracle import marginal_one, statevector_oracle
from .rewrite import (DETERMINISTIC_FIRST, RewriteStep, Rule, StaleStepError,
                      Strategy, VarCapError, apply, find_rewrites, normalize,
                      reduce, seeded_random, simply_equivalent, trace_lines)
from .sim import (NonDeterministicOutcomeError, Probability, ShiftResult,
                  SimulationConsistencyError, measure_sim, projector_one,
                  recover_shift, strong_sim)
from .sums import (DEFAULT_MAX_EVAL_VARS, EvalGuardError, Matrix, PathSum,
                   adjoint, apply_simple_transform, bra, compose, evaluate,
                   from_dict, from_json, gate_sem, identity, interpret, ket,
                   tensor, to_dict, to_json, zero_op)

__all__ = [
    "Amplitude", "BoolPoly", "Circuit", "CircuitParseError",
    "DEFAULT_MAX_EVAL_VARS", "DETERMINISTIC_FIRST", "EvalGuardError", "Gate",
    "HiddenShiftSpec", "Matrix", "NonDeterministicOutcomeError", "ParityError",
    "PathSum", "Probability", "RewriteStep", "Rule", "Scalar", "ShiftResult",
    "SimulationConsistencyError", "StaleStepError", "Strategy", "VarCapError",
    "Volume", "adjoint", "apply", "apply_simple_transform", "bra", "compose",
    "evaluate", "find_rewrites", "from_dict", "from_json", "gate_sem",
    "hidden_shift_circuit", "identity", "interpret", "ket", "marginal_one",
    "measure_sim", "normalize", "parse", "projector_one", "random_circuit",
    "random_hidden_shift_spec", "recover_shift", "reduce", "seeded_random",
    "serialize", "simply_equivalent", "statevector_oracle", "strong_sim",
    "tensor", "to_dict", "to_json", "trace_lines", "volume", "zero_op",
]
