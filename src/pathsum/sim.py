"""Simulation drivers: exact amplitudes, one-qubit measurement, shift recovery.

Every driver interprets the circuit on its basis input, so the state
sum [circuit]|in> has one variable per Hadamard and no input wires.
Amplitude queries close it with <out| into the 0 -> 0 path sum
<out| [circuit] |in>, rewrite that to a normal form, shrink it by affine
elimination (``reduce``) and evaluate what is left densely.  Measurement
projects the normalized state in place and closes it with its own
adjoint.  A guard refuses evaluation when the residual keeps too many
variables, since dense evaluation is the only exponential step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolpoly import BoolPoly
from .circuit import Circuit
from .exact import Amplitude
from .rewrite import DETERMINISTIC_FIRST, normalize, reduce
from .sums import (DEFAULT_MAX_EVAL_VARS, PathSum, _mediate, adjoint, as_bits,
                   bra, compose, evaluate, interpret)


class NonDeterministicOutcomeError(RuntimeError):
    """A per-qubit probability was not exactly 0 or 1 during shift recovery."""

    def __init__(self, qubit: int, probability: Amplitude):
        super().__init__(
            f"qubit {qubit} measures 1 with probability "
            f"{probability.render()}, not 0 or 1: the circuit is not "
            f"deterministic on |0...0>"
        )
        self.qubit = qubit
        self.probability = probability


class SimulationConsistencyError(RuntimeError):
    """An exact probability fell outside [0, 1]; this indicates a bug."""


@dataclass(frozen=True)
class ShiftResult:
    shift: tuple[int, ...]
    per_qubit_probability: tuple[Amplitude, ...]
    rewrite_steps_total: int

    def shift_string(self) -> str:
        return "".join(map(str, self.shift))


def projector_one(n: int, qubit: int) -> PathSum:
    """|1><1| on one wire, identity on the other n - 1 (one variable each).

    The drivers project states in place (``_project_one``); this operator
    is the reference that construction is tested against.
    """
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} wires")
    wires = [BoolPoly.var(i) for i in range(n - 1)]
    wires.insert(qubit, BoolPoly.one())
    return PathSum(Amplitude(1), n - 1, BoolPoly.zero(), tuple(wires), tuple(wires))


def _project_one(g: PathSum, qubit: int) -> PathSum:
    """P1 on one output of g, in place: one mediator y (``_mediate``), with
    phase term y*(O_qubit + 1) and scalar 2^-1, forces O_qubit = 1, the new
    constant output.  Equal in value to compose(projector_one(n, qubit), g) with 1
    variable added instead of 2n - 1."""
    phase = set(g.phase.monomials)
    _mediate(phase, g.num_vars, (g.outputs[qubit].monomials,), ({0},), 0)
    outputs = list(g.outputs)
    outputs[qubit] = BoolPoly.one()
    return PathSum(g.scalar * Amplitude(1, -2), g.num_vars + 1,
                   BoolPoly(frozenset(phase)), tuple(outputs), g.inputs)


def _closed_value(f: PathSum, max_eval_vars: int) -> tuple[Amplitude, int]:
    """The value of a closed (0, 0) sum, and the rewrite steps taken.

    ``normalize`` rewrites f, ``reduce`` shrinks the normal form, and
    dense evaluation sums the residual; the guard bounds that residual.
    """
    nf, trace = normalize(f, DETERMINISTIC_FIRST)
    return evaluate(reduce(nf), max_eval_vars)[0][0], len(trace)


def _probability_one(gn: PathSum, qubit: int,
                     max_eval_vars: int) -> tuple[Amplitude, int]:
    """Pr[qubit = 1] in the normalized state sum gn, and the steps taken.

    A state with no variables left is scalar*|b>, so the probability is
    the amplitude b_qubit * scalar^2: 0 or a power of 2, as the scalar is
    0 or a power of sqrt(2).  Otherwise gn is projected in place to P gn
    and the sandwich <P gn|P gn> = <gn|P|gn> gets its value from
    ``_closed_value``, under the guard: 2k + n + 2 variables for k in gn.
    """
    if gn.num_vars == 0:  # each output is the constant 0 or 1
        bit = len(gn.outputs[qubit].monomials)
        amp, steps = Amplitude(bit) * gn.scalar * gn.scalar, 0
    else:
        pg = _project_one(gn, qubit)
        f = compose(adjoint(pg), pg)
        amp, steps = _closed_value(f, max_eval_vars)
    if amp.num < 0 or Amplitude(1) < amp:
        raise SimulationConsistencyError(
            f"probability {amp.render()} outside [0, 1]")
    return amp, steps


def strong_sim(circuit: Circuit, in_bits, out_bits,
               max_eval_vars: int = DEFAULT_MAX_EVAL_VARS) -> Amplitude:
    """Exact amplitude <out_bits| U |in_bits> of the circuit.

    The guard ``max_eval_vars`` bounds the variables left after
    normalization and affine elimination, not those of the normal form.
    """
    x = as_bits(in_bits)
    y = as_bits(out_bits)
    n = circuit.num_qubits
    if len(x) != n or len(y) != n:
        raise ValueError(f"bit strings must have width {n}")
    f = compose(bra(y), interpret(circuit, x))
    return _closed_value(f, max_eval_vars)[0]


def measure_sim(circuit: Circuit, in_bits, qubit: int,
                max_eval_vars: int = DEFAULT_MAX_EVAL_VARS) -> Amplitude:
    """Exact probability, as an ``Amplitude``, that the given qubit
    measures 1 on this input.

    The guard bounds the projector sandwich's variables after
    normalization and affine elimination, as in ``strong_sim``.
    """
    n = circuit.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    gn, _ = normalize(interpret(circuit, in_bits), DETERMINISTIC_FIRST)
    return _probability_one(gn, qubit, max_eval_vars)[0]


def recover_shift(circuit: Circuit,
                  max_eval_vars: int = DEFAULT_MAX_EVAL_VARS) -> ShiftResult:
    """Read off the hidden shift: bit i is 1 iff qubit i measures 1 surely.

    The state sum [circuit]|0...0>, interpreted on that input with one
    variable per Hadamard, is normalized once.  On a hidden-shift instance
    it collapses to |s> with no variables left, after exactly #H steps, and
    the shift is read off its outputs; a state that keeps variables falls
    back to one projector sandwich per qubit.
    """
    n = circuit.num_qubits
    gn, gtrace = normalize(interpret(circuit, (0,) * n), DETERMINISTIC_FIRST)
    steps = len(gtrace)
    probs = []
    for i in range(n):
        prob, taken = _probability_one(gn, i, max_eval_vars)
        if not (prob.is_one() or prob.is_zero()):
            raise NonDeterministicOutcomeError(i, prob)
        steps += taken
        probs.append(prob)
    return ShiftResult(tuple(int(p.is_one()) for p in probs), tuple(probs), steps)
