"""Simulation drivers: exact amplitudes, one-qubit measurement, shift recovery.

Amplitude queries build the 0 -> 0 path sum <out| [circuit] |in>, rewrite
it to a normal form, shrink that by affine elimination (``reduce``) and
evaluate what is left densely.  A guard refuses evaluation when that
residual keeps too many variables, since dense evaluation is the only
exponential step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolpoly import BoolPoly
from .circuit import Circuit
from .exact import Amplitude, Scalar
from .rewrite import DETERMINISTIC_FIRST, normalize, reduce
from .sums import (DEFAULT_MAX_EVAL_VARS, PathSum, adjoint, as_bits, bra,
                   compose, evaluate, interpret, ket)


class NonDeterministicOutcomeError(RuntimeError):
    """A per-qubit probability was not exactly 0 or 1 during shift recovery."""

    def __init__(self, qubit: int, probability: "Probability"):
        super().__init__(
            f"qubit {qubit} measures 1 with probability "
            f"{probability.exact.render()}, not 0 or 1: the circuit is not "
            f"deterministic on |0...0>"
        )
        self.qubit = qubit
        self.probability = probability


class SimulationConsistencyError(RuntimeError):
    """An exact probability fell outside [0, 1]; this indicates a bug."""


@dataclass(frozen=True)
class Probability:
    exact: Amplitude

    @property
    def decimal(self) -> float:
        return float(self.exact)

    def is_zero(self) -> bool:
        return self.exact.is_zero()

    def is_one(self) -> bool:
        return self.exact.is_one()

    def __str__(self):
        return self.exact.render()


@dataclass(frozen=True)
class ShiftResult:
    shift: tuple[int, ...]
    per_qubit_probability: tuple[Probability, ...]
    rewrite_steps_total: int

    def shift_string(self) -> str:
        return "".join(map(str, self.shift))


def projector_one(n: int, qubit: int) -> PathSum:
    """|1><1| on one wire, identity on the other n - 1 (one variable each)."""
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} wires")
    wires = [BoolPoly.var(i) for i in range(n - 1)]
    wires.insert(qubit, BoolPoly.one())
    return PathSum(Scalar.ONE, n - 1, BoolPoly.zero(), tuple(wires), tuple(wires))


def _closed_value(f: PathSum, max_eval_vars: int) -> tuple[Amplitude, int]:
    """The value of a closed (0, 0) sum, and the rewrite steps taken.

    ``normalize`` rewrites f, ``reduce`` shrinks the normal form, and
    dense evaluation sums the residual; the guard bounds that residual.
    """
    nf, trace = normalize(f, DETERMINISTIC_FIRST)
    return evaluate(reduce(nf), max_eval_vars)[0, 0], len(trace)


def _probability_one(gn: PathSum, qubit: int,
                     max_eval_vars: int) -> tuple[Probability, int]:
    """Pr[qubit = 1] in the normalized state sum gn, and the steps taken.

    A state with no variables left is scalar*|b>, so the probability is
    scalar^2 * b_qubit; otherwise the projector sandwich <gn|P|gn> gets
    its value from ``_closed_value``, under the guard.
    """
    if gn.num_vars == 0:  # each output is the constant 0 or 1
        bit = len(gn.outputs[qubit].monomials)
        amp, steps = Amplitude.from_count(bit, gn.scalar * gn.scalar), 0
    else:
        f = compose(adjoint(gn),
                    compose(projector_one(len(gn.outputs), qubit), gn))
        amp, steps = _closed_value(f, max_eval_vars)
    if amp.num < 0 or Amplitude(1) < amp:
        raise SimulationConsistencyError(
            f"probability {amp.render()} outside [0, 1]")
    return Probability(amp), steps


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
    f = compose(bra(y), compose(interpret(circuit), ket(x)))
    return _closed_value(f, max_eval_vars)[0]


def measure_sim(circuit: Circuit, in_bits, qubit: int,
                max_eval_vars: int = DEFAULT_MAX_EVAL_VARS) -> Probability:
    """Exact probability that the given qubit measures 1 on this input.

    The guard bounds the projector sandwich's variables after
    normalization and affine elimination, as in ``strong_sim``.
    """
    x = as_bits(in_bits)
    n = circuit.num_qubits
    if len(x) != n:
        raise ValueError(f"input must have width {n}")
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    g = compose(interpret(circuit), ket(x))
    gn, _ = normalize(g, DETERMINISTIC_FIRST)
    return _probability_one(gn, qubit, max_eval_vars)[0]


def recover_shift(circuit: Circuit,
                  max_eval_vars: int = DEFAULT_MAX_EVAL_VARS) -> ShiftResult:
    """Read off the hidden shift: bit i is 1 iff qubit i measures 1 surely.

    The state sum [circuit]|0...0> is normalized once.  On a hidden-shift
    instance it collapses to |s> with no variables left, and the shift is
    read off its outputs; a state that keeps variables falls back to one
    projector sandwich per qubit.
    """
    n = circuit.num_qubits
    g = compose(interpret(circuit), ket((0,) * n))
    gn, gtrace = normalize(g, DETERMINISTIC_FIRST)
    steps = len(gtrace)
    probs = []
    for i in range(n):
        prob, taken = _probability_one(gn, i, max_eval_vars)
        if not (prob.is_one() or prob.is_zero()):
            raise NonDeterministicOutcomeError(i, prob)
        steps += taken
        probs.append(prob)
    return ShiftResult(tuple(int(p.is_one()) for p in probs), tuple(probs), steps)
