"""Random path sums for the confluence fuzz.

``random_path_sum_from_circuit`` interprets a random circuit with
``h q; h q`` spliced on every wire between consecutive gates.  On a
wire, ``h; h`` is the identity whose two variables are the mediator and
the next gate's input variable of ``compose(interpret(g2),
interpret(g1))``, so the sum is the compose fold of the one-gate
interpretations up to a renaming of its variables, and keeps their
redexes, which one ``interpret`` of the circuit alone would not.  The
tests check it against that fold, renamed.
"""

from __future__ import annotations

import random

from .circuit import H, Circuit, Gate, random_circuit
from .sums import PathSum, bra, compose, interpret, ket


def random_path_sum_from_circuit(rng: random.Random, max_qubits: int = 3,
                                 max_gates: int = 6) -> PathSum:
    """A random circuit, h;h-spliced between its gates (redex-rich, unlike
    the circuit's own interpretation), optionally capped with kets/bras."""
    n = rng.randint(1, max_qubits)
    depth = rng.randint(1, max_gates)
    circ = random_circuit(n, depth, max_controls=min(2, n - 1) if n > 1 else 0,
                          seed=rng.getrandbits(32))
    splice: list[Gate] = []  # h q; h q on each wire q, one Gate per wire
    for q in range(n):
        h = Gate(H, (q,))
        splice += (h, h)
    gates: list[Gate] = []
    for gate in circ.gates:
        if gates:
            gates += splice
        gates.append(gate)
    s = interpret(Circuit(n, gates))
    if rng.randrange(2):
        s = compose(s, ket(tuple(rng.randrange(2) for _ in range(n))))
    if rng.randrange(2):
        s = compose(bra(tuple(rng.randrange(2) for _ in range(n))), s)
    return s
