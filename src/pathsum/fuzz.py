"""Random path sums for the confluence fuzz."""

from __future__ import annotations

import random

from .circuit import Circuit, random_circuit
from .sums import PathSum, bra, compose, interpret, ket


def random_path_sum_from_circuit(rng: random.Random, max_qubits: int = 3,
                                 max_gates: int = 6) -> PathSum:
    """A random circuit as a compose fold of one-gate interpretations
    (redex-rich, unlike ``interpret``), optionally capped with kets/bras."""
    n = rng.randint(1, max_qubits)
    depth = rng.randint(1, max_gates)
    circ = random_circuit(n, depth, max_controls=min(2, n - 1) if n > 1 else 0,
                          seed=rng.getrandbits(32))
    s = interpret(Circuit(n, circ.gates[:1]))
    for gate in circ.gates[1:]:
        s = compose(interpret(Circuit(n, (gate,))), s)
    if rng.randrange(2):
        s = compose(s, ket(tuple(rng.randrange(2) for _ in range(n))))
    if rng.randrange(2):
        s = compose(bra(tuple(rng.randrange(2) for _ in range(n))), s)
    return s
