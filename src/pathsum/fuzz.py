"""Random path sums for the confluence fuzz.

``random_path_sum_from_circuit`` folds a random circuit one gate at a
time: each gate's own sum, as ``interpret`` gives it for the one-gate
circuit, is composed after the sum so far, exactly as
``compose(interpret(Circuit(n, (gate,))), s)`` would.  It keeps the
phase, outputs and inputs as plain sets of monomial masks and shifts
them as ``compose`` does, with the same numbering, mediators and
scalar, and builds one ``PathSum`` at the end.  The tests keep that
compose fold as the reference and check that the two are equal.
"""

from __future__ import annotations

import random

from .boolpoly import BoolPoly
from .circuit import CMZ, H, X, random_circuit
from .exact import Scalar
# interpret is not called here, but stays a module global next to compose:
# the benchmark's tracer (perfbench/tracer.py) wraps both names in this module
from .sums import PathSum, bra, compose, interpret, ket  # noqa: F401


def random_path_sum_from_circuit(rng: random.Random, max_qubits: int = 3,
                                 max_gates: int = 6) -> PathSum:
    """A random circuit as a compose fold of one-gate interpretations
    (redex-rich, unlike ``interpret``), optionally capped with kets/bras."""
    n = rng.randint(1, max_qubits)
    depth = rng.randint(1, max_gates)
    circ = random_circuit(n, depth, max_controls=min(2, n - 1) if n > 1 else 0,
                          seed=rng.getrandbits(32))
    k = 0  # variables of the sum so far; none before the first gate
    half_exp = 0
    phase: set[int] = set()
    outputs: list[set[int]] = []
    inputs = [{1 << q} for q in range(n)]
    for gate in circ.gates:
        # the gate's sum: input wire q is x_q, and H adds x_n
        qs = gate.qubits
        g_outputs = [{1 << q} for q in range(n)]
        g_phase: set[int] = set()
        ka = n
        if gate.kind == H:
            g_phase.add(1 << n | 1 << qs[0])
            g_outputs[qs[0]] = {1 << n}
            ka += 1
            half_exp -= 1
        elif gate.kind == X:
            g_outputs[qs[0]].add(0)
        elif gate.kind == CMZ:
            m = 0
            for q in qs:
                m |= 1 << q
            g_phase.add(m)
        else:  # SWAP
            g_outputs[qs[0]], g_outputs[qs[1]] = g_outputs[qs[1]], g_outputs[qs[0]]
        if not k:  # the first gate's sum is the fold so far
            k, phase, outputs = ka, g_phase, g_outputs
            continue
        # compose(gate, sum): the sum's variables move up by ka, and
        # mediator y_i = x_(ka + k + i) adds y_i * (O_i + x_i)
        med = ka + k
        g_phase ^= {m << ka for m in phase}
        for i in range(n):
            ybit = 1 << (med + i)
            term = {m << ka for m in outputs[i]}
            term ^= {1 << i}
            g_phase ^= {ybit | m for m in term}
        phase = g_phase
        outputs = g_outputs
        inputs = [{m << ka for m in p} for p in inputs]
        k = med + n
        half_exp -= 2 * n
    s = PathSum(Scalar.pow2(half_exp), k, BoolPoly(frozenset(phase)),
                tuple(BoolPoly(frozenset(p)) for p in outputs),
                tuple(BoolPoly(frozenset(p)) for p in inputs))
    if rng.randrange(2):
        s = compose(s, ket(tuple(rng.randrange(2) for _ in range(n))))
    if rng.randrange(2):
        s = compose(bra(tuple(rng.randrange(2) for _ in range(n))), s)
    return s
