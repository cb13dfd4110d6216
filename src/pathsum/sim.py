"""Simulation drivers: exact amplitudes, one-qubit measurement, shift recovery.

Every driver interprets the circuit on its basis input, so the state
sum [circuit]|in> has one variable per Hadamard and no input wires.
Amplitude queries close it with <out| into the 0 -> 0 path sum
<out| [circuit] |in>.  Measurement interprets only the measured qubit's
light cone (``_light_cone``), the gates that do not commute with the
conjugated projector, and closes the normalized state around the
projector in one sandwich whose two copies share each wire that is a
bare variable.  One pass takes a closed sum to its normal form and
shrinks that by affine elimination (``reduce``); what is left is
evaluated densely.  A guard refuses evaluation when the residual keeps
too many variables, since dense evaluation is the only exponential step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolpoly import BoolPoly, mask_renamed
from .circuit import CMZ, H, SWAP, X, Circuit, _circuit
from .exact import Amplitude
from .rewrite import DETERMINISTIC_FIRST, _run, normalize, reduce
from .sums import (DEFAULT_MAX_EVAL_VARS, PathSum, _mediate, as_bits, bra,
                   compose, evaluate, interpret)


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

    The drivers build the projector into the sandwich (``_sandwich_one``);
    this operator is the reference that construction is tested against.
    """
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} wires")
    wires = [BoolPoly.var(i) for i in range(n - 1)]
    wires.insert(qubit, BoolPoly.one())
    return PathSum(Amplitude(1), n - 1, BoolPoly.zero(), tuple(wires), tuple(wires))


def _sandwich_one(gn: PathSum, qubit: int) -> PathSum:
    """The closed sum <gn|P1|gn>, P1 = ``projector_one`` on one wire.

    Two copies of the state meet wire by wire.  A wire whose output is
    x_v or x_v + 1, v not taken by an earlier such wire, shares x_v
    between the copies; a constant wire needs nothing; each of the m
    other wires gets one mediator (``_mediate``).  One more mediator,
    with phase term y*(O_qubit + 1), forces the wire to 1.  Copy a's
    unshared variables come first (``mask_renamed``), then copy b (all of
    gn's k, shifted above them, the s shared ones included), then the
    mediators and y: 2k - s + m + 1 variables and scalar
    gn.scalar^2 * 2^-(m+1).  The XOR of the two phases cancels each term
    in shared variables only.

    The numbering is the order in which the variables of the composed
    sandwich compose(adjoint(P gn), P gn) survive ``normalize``; with it
    ``reduce`` leaves residuals of the same size on the benchmark's
    queries, where numbering copy a first left 29 variables instead of 13
    on one of them.
    """
    k = gn.num_vars
    shared = 0
    mediated = []
    for o in gn.outputs:
        v = o.vars_mask
        if v & (v - 1) or v & shared:  # not one variable, or one taken
            mediated.append(o.monomials)
        else:  # a constant adds nothing to shared
            shared |= v
    shift = k - shared.bit_count()
    bits, low = [], 1  # copy a: variable v becomes bits[v]
    for v in range(k):
        if shared >> v & 1:
            bits.append(1 << v + shift)
        else:
            bits.append(low)
            low <<= 1
    phase = set(mask_renamed(gn.phase.monomials, bits))
    phase ^= {mm << shift for mm in gn.phase.monomials}
    med = shift + k
    m = len(mediated)
    _mediate(phase, med, mediated, [set(mask_renamed(o, bits)) for o in mediated],
             shift)
    _mediate(phase, med + m, (gn.outputs[qubit].monomials,), ({0},), shift)
    return PathSum(gn.scalar * gn.scalar * Amplitude(1, -2 * (m + 1)),
                   med + m + 1, BoolPoly(frozenset(phase)), (), ())


def _closed_value(f: PathSum, max_eval_vars: int) -> tuple[Amplitude, int]:
    """The value of a closed (0, 0) sum, and the rewrite steps taken.

    One pass of ``reduce``'s loop takes f to its normal form and on to
    the residual, which dense evaluation sums under the guard.  The steps
    are those ``normalize`` would take: the rewrites before the first
    affine step.
    """
    residual, rewrites = _run(f, None, True)
    return evaluate(residual, max_eval_vars)[0][0], len(rewrites)


_ZERO, _ONE = Amplitude(0), Amplitude(1)


def _probability_one(gn: PathSum, qubit: int,
                     max_eval_vars: int) -> tuple[Amplitude, int]:
    """Pr[qubit = 1] in the normalized state sum gn, and the steps taken.

    A state with no variables left is scalar*|b>, so the probability is
    the amplitude b_qubit * scalar^2: 0 or a power of 2, as the scalar is
    0 or a power of sqrt(2).  Otherwise the sandwich <gn|P|gn>
    (``_sandwich_one``) gets its value from ``_closed_value``, under the
    guard: at most 2k + n + 1 variables for k in gn, fewer for each wire
    that is a bare variable or a constant.
    """
    if gn.num_vars == 0:  # each output is the constant 0 or 1
        amp = gn.scalar * gn.scalar if gn.outputs[qubit].monomials else _ZERO
        steps = 0
    else:
        amp, steps = _closed_value(_sandwich_one(gn, qubit), max_eval_vars)
    if amp.num < 0 or _ONE < amp:
        raise SimulationConsistencyError(
            f"probability {amp.render()} outside [0, 1]")
    return amp, steps


def _light_cone(circuit: Circuit, qubit: int) -> Circuit:
    """The gates of ``circuit`` that can reach the measured wire, in order.

    Walking from the last gate to the first, each wire has a state for
    the observable O, P1 on ``qubit`` conjugated by the gates kept so far:
    0 if O acts trivially on it, 1 if O commutes with Z there, 2 if
    unknown.  A gate that commutes with O is dropped, so
    C^dagger P1 C equals the kept circuit's sandwich:

    - C^(m)Z, diagonal, commutes with Z on each of its wires: dropped when
      all are at most 1, else kept, its wires at 0 moving to 1;
    - X is dropped on a wire at 0 and leaves the state alone, since
      X Z X = -Z still commutes with Z;
    - SWAP is dropped when both wires are at 0, else exchanges their states;
    - H is dropped on a wire at 0, else moves it to 2.

    ``strong_sim`` and ``recover_shift`` interpret the whole circuit: an
    amplitude has no cone, and ``recover_shift`` reads every qubit off one
    state.
    """
    state = [0] * circuit.num_qubits
    state[qubit] = 1
    kept = []
    for gate in reversed(circuit.gates):
        kind, qs = gate.kind, gate.qubits
        if kind == CMZ:
            for q in qs:
                if state[q] == 2:
                    break
            else:  # every wire at most 1: the gate commutes with O
                continue
            for q in qs:
                if not state[q]:
                    state[q] = 1
        elif kind == SWAP:
            a, b = qs
            if not (state[a] or state[b]):
                continue
            state[a], state[b] = state[b], state[a]
        elif not state[qs[0]]:  # H or X on a wire O does not touch
            continue
        elif kind == H:
            state[qs[0]] = 2
        kept.append(gate)
    kept.reverse()  # a subsequence of a valid circuit's gates
    return _circuit(circuit.num_qubits, kept)


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

    Only the qubit's light cone (``_light_cone``) is interpreted: the
    dropped gates cancel in <in| C^dagger P1 C |in>.  The guard bounds the
    projector sandwich's variables after normalization and affine
    elimination, as in ``strong_sim``.
    """
    n = circuit.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    gn, _ = normalize(interpret(_light_cone(circuit, qubit), in_bits),
                      DETERMINISTIC_FIRST)
    return _probability_one(gn, qubit, max_eval_vars)[0]


def recover_shift(circuit: Circuit,
                  max_eval_vars: int = DEFAULT_MAX_EVAL_VARS) -> ShiftResult:
    """Read off the hidden shift: bit i is 1 iff qubit i measures 1 surely.

    The state sum [circuit]|0...0>, interpreted on that input with one
    variable per Hadamard, is normalized once.  On a hidden-shift instance
    it collapses to |s> with no variables left, after exactly #H steps, and
    the shift is read off its outputs.  Otherwise it is read off the state
    after affine elimination (``reduce``), if that leaves no variables, or
    else off one projector sandwich of the normal form per qubit.
    """
    n = circuit.num_qubits
    gn, gtrace = normalize(interpret(circuit, (0,) * n), DETERMINISTIC_FIRST)
    steps = len(gtrace)
    reduced = reduce(gn)
    if reduced.num_vars == 0:
        gn = reduced
    probs = []
    for i in range(n):
        prob, taken = _probability_one(gn, i, max_eval_vars)
        if not (prob.is_one() or prob.is_zero()):
            raise NonDeterministicOutcomeError(i, prob)
        steps += taken
        probs.append(prob)
    return ShiftResult(tuple(int(p.is_one()) for p in probs), tuple(probs), steps)
