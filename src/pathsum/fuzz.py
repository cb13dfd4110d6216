"""Random path sums for the confluence fuzz.

``random_path_sum_from_circuit`` folds a random circuit one gate at a
time: each gate's own sum, as ``interpret`` gives it for the one-gate
circuit, is composed after the sum so far, exactly as
``compose(interpret(Circuit(n, (gate,))), s)`` would.  It keeps the
phase, outputs and inputs as plain sets of monomial masks, takes each
gate's sum from ``interpret``'s gate loop (``sums._fold_gates``) and
the mediators from ``compose``'s (``sums._mediate``), with the same
numbering and scalar, and builds one ``PathSum`` at the end.  The tests
check it against that compose fold, and against one ``interpret`` of
the circuit with H;H between its gates, renamed.
"""

from __future__ import annotations

import random

from .boolpoly import BoolPoly
from .circuit import random_circuit
from .exact import Amplitude
# interpret is not called here, but stays a module global next to compose:
# the benchmark's tracer (perfbench/tracer.py) wraps both names in this module
from .sums import (PathSum, _fold_gates, _mediate, bra, compose,  # noqa: F401
                   interpret, ket)


def random_path_sum_from_circuit(rng: random.Random, max_qubits: int = 3,
                                 max_gates: int = 6) -> PathSum:
    """A random circuit as a compose fold of one-gate interpretations
    (redex-rich, unlike ``interpret``), optionally capped with kets/bras."""
    n = rng.randint(1, max_qubits)
    depth = rng.randint(1, max_gates)
    circ = random_circuit(n, depth, max_controls=min(2, n - 1) if n > 1 else 0,
                          seed=rng.getrandbits(32))
    wires = [{1 << q} for q in range(n)]  # a gate's inputs: wire q is x_q
    k = 0  # variables of the sum so far; none before the first gate
    half_exp = 0
    phase: set[int] = set()
    outputs: list[set[int]] = []
    inputs = wires
    for gate in circ.gates:
        # the gate's sum on inputs x_0..x_(n-1); its H takes x_n
        g_phase: set[int] = set()
        g_outputs = [{1 << q} for q in range(n)]
        ka = _fold_gates((gate,), g_outputs, g_phase, n)
        half_exp += n - ka
        if not k:  # the first gate's sum is the fold so far
            k, phase, outputs = ka, g_phase, g_outputs
            continue
        # compose(gate, sum): the sum's variables move up by ka, and
        # mediator y_i = x_(ka + k + i) adds y_i * (O_i + x_i)
        med = ka + k
        g_phase ^= {m << ka for m in phase}
        _mediate(g_phase, med, outputs, wires, ka)
        phase = g_phase
        outputs = g_outputs
        inputs = [{m << ka for m in p} for p in inputs]
        k = med + n
        half_exp -= 2 * n
    s = PathSum(Amplitude(1, half_exp), k, BoolPoly(frozenset(phase)),
                tuple(BoolPoly(frozenset(p)) for p in outputs),
                tuple(BoolPoly(frozenset(p)) for p in inputs))
    if rng.randrange(2):
        s = compose(s, ket(tuple(rng.randrange(2) for _ in range(n))))
    if rng.randrange(2):
        s = compose(bra(tuple(rng.randrange(2) for _ in range(n))), s)
    return s
