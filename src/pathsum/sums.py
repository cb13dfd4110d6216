"""Path sums: symbolic linear operators over GF(2)-valued variables.

A path sum holds a scalar (an ``Amplitude`` that is 0 or a power of
sqrt(2)), a count of summation variables, a phase polynomial and tuples
of output/input polynomials; it denotes the operator
scalar * sum over assignments of (-1)^phase |outputs><inputs|.
This module provides the categorical structure (compose, tensor,
adjoint, identities, kets/bras), circuit interpretation, and dense
exact evaluation to rows of amplitudes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .boolpoly import BoolPoly, mask_bits, mask_product
from .circuit import CMZ, Circuit, H, X
from .exact import Amplitude

#: dense evaluation refuses sums with more variables than this by default;
#: the cost is exponential in the count, so larger runs are opt-in
DEFAULT_MAX_EVAL_VARS = 24

Bits = Union[str, Sequence[int]]


class EvalGuardError(RuntimeError):
    """The sum has too many variables, or too many wires, to evaluate densely.

    Besides the size that tripped the guard, it names the structure it
    refused: w wire variables (in an output or input polynomial), r
    phase-only variables, and the phase's degree and terms, if any.
    """

    def __init__(self, num_vars: int, max_vars: int, wires: int = 0, *,
                 wire_vars: int = 0, phase_vars: int = 0, degree: int = 0,
                 phase_terms: int = 0):
        size = (f"{wires} wires (inputs plus outputs)" if wires
                else f"{num_vars} summation variables")
        shape = (f"degree {degree}, {phase_terms} phase terms" if phase_terms
                 else "empty phase")  # the zero polynomial's degree is -1
        super().__init__(
            f"evaluation guard: {size} exceed the limit of {max_vars}; "
            f"dense evaluation would take 2^{wires or num_vars} steps; "
            f"refused sum: w = {wire_vars} wire variables, r = {phase_vars} "
            f"phase-only variables, {shape}")
        self.num_vars = num_vars
        self.max_vars = max_vars
        self.wires = wires
        self.wire_vars = wire_vars
        self.phase_vars = phase_vars
        self.degree = degree
        self.phase_terms = phase_terms


def as_bits(bits: Bits) -> tuple[int, ...]:
    """Normalize a '0101' string or 0/1 sequence to a bit tuple."""
    if isinstance(bits, str):
        if any(c not in "01" for c in bits):
            raise ValueError(f"bit string must contain only 0/1: {bits!r}")
        return tuple(int(c) for c in bits)
    out = tuple(bits)
    if any(b not in (0, 1) for b in out):
        raise ValueError(f"bits must be 0 or 1: {out}")
    return out


@dataclass(frozen=True)
class PathSum:
    scalar: Amplitude  # 0 or 2^(half_exp/2): num is 0 or 1
    num_vars: int
    phase: BoolPoly
    outputs: tuple[BoolPoly, ...]
    inputs: tuple[BoolPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.num_vars < 0:
            raise ValueError("negative variable count")
        if self.scalar.num not in (0, 1):
            raise ValueError(
                f"scalar must be 0 or a power of sqrt(2), got {self.scalar!r}")
        used = self.phase.vars_mask
        for p in self.outputs:
            used |= p.vars_mask
        for p in self.inputs:
            used |= p.vars_mask
        if used >> self.num_vars:
            bad = [v for v in mask_bits(used) if v >= self.num_vars]
            raise ValueError(
                f"variable index {bad[0]} out of range for {self.num_vars} variables"
            )

    @property
    def signature(self) -> tuple[int, int]:
        """(inputs, outputs) wire counts."""
        return (len(self.inputs), len(self.outputs))

    def __repr__(self):
        s = "0" if not self.scalar else f"2^({self.scalar.half_exp}/2)"
        outs = ",".join(str(p) for p in self.outputs)
        ins = ",".join(str(p) for p in self.inputs)
        return (f"PathSum({s} sum[{self.num_vars}] "
                f"(-1)^({self.phase}) |{outs}><{ins}|)")


def identity(n: int) -> PathSum:
    if n < 0:
        raise ValueError("negative wire count")
    wires = tuple(BoolPoly.var(i) for i in range(n))
    return PathSum(Amplitude(1), n, BoolPoly.zero(), wires, wires)


def zero_op(n_in: int, n_out: int) -> PathSum:
    """The zero operator with the given signature (all-zero constants)."""
    if n_in < 0 or n_out < 0:
        raise ValueError("negative wire count")
    return PathSum(Amplitude(0), 0, BoolPoly.zero(),
                   (BoolPoly.zero(),) * n_out, (BoolPoly.zero(),) * n_in)


def ket(bits: Bits) -> PathSum:
    b = as_bits(bits)
    return PathSum(Amplitude(1), 0, BoolPoly.zero(),
                   tuple(BoolPoly.constant(v) for v in b), ())


def bra(bits: Bits) -> PathSum:
    b = as_bits(bits)
    return PathSum(Amplitude(1), 0, BoolPoly.zero(), (),
                   tuple(BoolPoly.constant(v) for v in b))


def compose(a: PathSum, b: PathSum) -> PathSum:
    """Sequential composition a . b (b acts first).

    b's variables are renumbered above a's and one fresh mediator
    variable per shared wire adds the phase term y_i*(O_b_i + I_a_i)
    (``_mediate``), which interferes destructively unless the wires
    agree; the scalar picks up 2^-m for the m mediators.
    """
    m = len(a.inputs)
    if len(b.outputs) != m:
        raise ValueError(
            f"signature mismatch: composing {len(b.outputs)} outputs "
            f"into {m} inputs"
        )
    shift = a.num_vars
    med = shift + b.num_vars
    phase_masks = set(a.phase.monomials)
    phase_masks ^= {mm << shift for mm in b.phase.monomials}
    _mediate(phase_masks, med, [p.monomials for p in b.outputs],
             [p.monomials for p in a.inputs], shift)
    inputs = tuple(p.shifted(shift) for p in b.inputs)
    scalar = a.scalar * b.scalar * Amplitude(1, -2 * m)
    return PathSum(scalar, med + m, BoolPoly(frozenset(phase_masks)),
                   a.outputs, inputs)


def _mediate(phase: set[int], med: int, outputs, inputs, shift: int) -> None:
    """Add y_(med+i) * (O_i << shift + I_i) to the phase for each wire i,
    given as monomial masks: the mediator term, which forces O_i = I_i,
    of ``compose`` and of the measurement sandwich."""
    ybit = 1 << med
    for o, i in zip(outputs, inputs):
        term = {mm << shift for mm in o}
        term ^= i
        phase ^= {ybit | mm for mm in term}
        ybit <<= 1


def tensor(a: PathSum, b: PathSum) -> PathSum:
    """Parallel composition; b's variables renumbered above a's."""
    shift = a.num_vars
    phase = a.phase + b.phase.shifted(shift)
    outputs = a.outputs + tuple(p.shifted(shift) for p in b.outputs)
    inputs = a.inputs + tuple(p.shifted(shift) for p in b.inputs)
    return PathSum(a.scalar * b.scalar, a.num_vars + b.num_vars,
                   phase, outputs, inputs)


def adjoint(a: PathSum) -> PathSum:
    """Inputs and outputs exchanged; every value in the fragment is real,
    so the scalar and the phase stay as they are."""
    return PathSum(a.scalar, a.num_vars, a.phase, a.inputs, a.outputs)


# ---------------------------------------------------------------------------
# evaluation

def evaluate(a: PathSum,
             max_vars: int = DEFAULT_MAX_EVAL_VARS) -> list[list[Amplitude]]:
    """Dense exact evaluation, bit-parallel over the wire-free variables.

    Returns the operator's matrix as rows: entry [r][c] is <r|a|c>, with
    wire 0 the most significant bit of r and c, and each row a new list.

    The w variables that occur in an output or input polynomial are
    enumerated one assignment at a time.  Each of the r variables that
    occur only in the phase becomes a 2^r-bit truth table: a monomial is
    the AND of its variables' tables, the phase the XOR of its monomials,
    and the cell gains 2^r - 2*popcount(phase).  A variable that occurs
    nowhere doubles every count.  Cost: 2^w assignments x
    O(terms * 2^r / 64) word operations, plus r * 2^r bits of tables
    (48 MiB at r = 24).  The guard bounds num_vars, and the wire count,
    which sizes the 2^outputs x 2^inputs table; a refusal names w, r and
    the phase's degree and terms.  It bounds the sum as given: its one
    caller in the package, ``sim._value``, passes it a residual.
    """
    k = a.num_vars
    m, n = len(a.outputs), len(a.inputs)
    wires = a.outputs + a.inputs
    wire_mask = 0
    for p in wires:
        wire_mask |= p.vars_mask
    free_vars = mask_bits(a.phase.vars_mask & ~wire_mask)
    if k > max_vars or m + n > max_vars:
        raise EvalGuardError(
            k, max_vars, 0 if k > max_vars else m + n,
            wire_vars=wire_mask.bit_count(), phase_vars=len(free_vars),
            degree=a.phase.degree(), phase_terms=len(a.phase.monomials))
    rows, cols = 1 << m, 1 << n
    if not a.scalar:
        return [[Amplitude(0)] * cols for _ in range(rows)]
    size = 1 << len(free_vars)
    full = (1 << size) - 1
    table = {}
    for j, v in enumerate(free_vars):
        # bit t of x_v's table is bit j of t: shift-double one period
        t, width = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
        while width < size:
            t |= t << width
            width <<= 1
        table[v] = t
    phase_terms = [(mm & wire_mask, [table[v] for v in mask_bits(mm & ~wire_mask)])
                   for mm in a.phase.monomials]
    wire_polys = [tuple(p.monomials) for p in wires]
    counts = [0] * (rows * cols)
    point = 0  # runs over the submasks of wire_mask
    while True:
        parity = 0
        for mm, tables in phase_terms:
            if mm & point == mm:
                t = full
                for f in tables:
                    t &= f
                parity ^= t
        cell = 0  # outputs then inputs, so cell = row * cols + col
        for masks in wire_polys:
            bit = 0
            for mm in masks:
                if mm & point == mm:
                    bit ^= 1
            cell = (cell << 1) | bit
        counts[cell] += size - 2 * parity.bit_count()
        point = (point - wire_mask) & wire_mask
        if not point:
            break
    unused = k - wire_mask.bit_count() - len(free_vars)
    amps = {c: Amplitude(c << unused) * a.scalar for c in set(counts)}
    return [[amps[c] for c in counts[r * cols:(r + 1) * cols]]
            for r in range(rows)]


# ---------------------------------------------------------------------------
# gates and circuits

_ONE = frozenset((0,))  # the constant 1 that X adds to a wire


def interpret(circuit: Circuit, in_bits: Bits | None = None) -> PathSum:
    """Direct per-wire interpretation (Amy, QPL 2018).

    Wire q starts as input variable x_q.  H adds one fresh variable y
    with phase term y*out[q] and makes y the wire's output; X adds 1 to
    out[q]; C^(m)Z adds the product of its wires' outputs to the phase;
    SWAP exchanges two outputs.  The result has exactly n + #H variables
    and scalar 2^(-#H/2).  Outputs and phase are kept as plain sets of
    monomial masks, updated in place gate by gate, and become
    polynomials once, at the end.  An H's terms y*m are added to the
    phase, not toggled: y is new, so no term of the phase holds it yet.

    Given a basis input ``in_bits`` (width n), wire q starts as the
    constant b_q instead, and the result is the state [circuit]|x>: #H
    variables, no inputs, scalar 2^(-#H/2), equal in value to
    ``compose(interpret(circuit), ket(in_bits))`` without its n input
    variables and n mediators.
    """
    n = circuit.num_qubits
    if in_bits is None:
        out = [{1 << q} for q in range(n)]
        inputs = tuple(BoolPoly.var(q) for q in range(n))
    else:
        bits = as_bits(in_bits)
        if len(bits) != n:
            raise ValueError(f"input must have width {n}, got {len(bits)}")
        out = [{0} if b else set() for b in bits]
        inputs = ()
    k0 = k = len(inputs)
    phase: set[int] = set()
    for gate in circuit.gates:
        qs = gate.qubits
        if gate.kind == H:
            y = 1 << k
            for mm in out[qs[0]]:
                phase.add(y | mm)
            out[qs[0]] = {y}
            k += 1
        elif gate.kind == X:
            out[qs[0]] ^= _ONE
        elif gate.kind == CMZ:
            prod = out[qs[0]]
            for q in qs[1:]:
                prod = mask_product(prod, out[q])
            phase ^= prod
        else:  # SWAP
            out[qs[0]], out[qs[1]] = out[qs[1]], out[qs[0]]
    return PathSum(Amplitude(1, k0 - k), k, BoolPoly(frozenset(phase)),
                   tuple(BoolPoly(frozenset(o)) for o in out), inputs)


# ---------------------------------------------------------------------------
# interchange form

def to_dict(a: PathSum) -> dict:
    """JSON-ready dict with deterministic key order."""
    return {
        "scalar": {"zero": not a.scalar, "half_exp": a.scalar.half_exp},
        "num_vars": a.num_vars,
        "phase": a.phase.to_lists(),
        "outputs": [p.to_lists() for p in a.outputs],
        "inputs": [p.to_lists() for p in a.inputs],
    }


def _typed(value, kind: type, what: str):
    """The value itself if its type is exactly ``kind`` (so True is no int)."""
    if type(value) is not kind:
        raise TypeError(f"{what} must be {kind.__name__}, got {value!r}")
    return value


def from_dict(data: Mapping) -> PathSum:
    try:
        sc = data["scalar"]
        scalar = Amplitude(0 if _typed(sc["zero"], bool, "zero") else 1,
                           _typed(sc["half_exp"], int, "half_exp"))
        num_vars = _typed(data["num_vars"], int, "num_vars")
        phase = BoolPoly.from_lists(data["phase"], num_vars)
        outputs = tuple(BoolPoly.from_lists(p, num_vars) for p in data["outputs"])
        inputs = tuple(BoolPoly.from_lists(p, num_vars) for p in data["inputs"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed path-sum dict: {exc}") from None
    return PathSum(scalar, num_vars, phase, outputs, inputs)


def to_json(a: PathSum) -> str:
    return json.dumps(to_dict(a))


def from_json(text: str) -> PathSum:
    return from_dict(json.loads(text))
