"""Random path-sum generators for equivalence fuzzing."""

from __future__ import annotations

import random

from .boolpoly import BoolPoly
from .circuit import Circuit, random_circuit
from .exact import Scalar
from .sums import PathSum, bra, compose, interpret, ket


def _random_poly(rng: random.Random, num_vars: int, terms: int,
                 max_degree: int = 3) -> BoolPoly:
    masks = []
    for _ in range(terms):
        degree = min(rng.choice((0, 1, 1, 1, 2, 2, 3)), max_degree, num_vars)
        m = 0
        for v in rng.sample(range(num_vars), degree) if degree else ():
            m |= 1 << v
        masks.append(m)
    return BoolPoly(masks)


def random_path_sum(rng: random.Random, max_vars: int = 8,
                    max_wires: int = 3, n_in: int | None = None,
                    n_out: int | None = None) -> PathSum:
    """Directly sampled sum: arbitrary phase/wire polynomials, small."""
    k = rng.randint(0, max_vars)
    if n_out is None:
        n_out = rng.randint(0, max_wires)
    if n_in is None:
        n_in = rng.randint(0, max_wires)
    phase = _random_poly(rng, k, rng.randint(0, k + 2))
    outputs = tuple(_random_poly(rng, k, rng.randint(0, 2), max_degree=2)
                    for _ in range(n_out))
    inputs = tuple(_random_poly(rng, k, rng.randint(0, 2), max_degree=2)
                   for _ in range(n_in))
    scalar = Scalar.pow2(rng.randint(-6, 6))
    return PathSum(scalar, k, phase, outputs, inputs)


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
