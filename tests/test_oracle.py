"""The brute-force statevector oracle itself."""

import random

import pytest

from pathsum.circuit import Circuit, Gate, random_circuit
from pathsum.exact import Amplitude
from pathsum.oracle import marginal_one, statevector_oracle
from pathsum.sums import evaluate, interpret


class TestBasics:
    def test_x_flips(self):
        vec = statevector_oracle(Circuit(1, (Gate("x", (0,)),)), (0,))
        assert vec == [Amplitude(0), Amplitude(1)]

    def test_h_splits(self):
        vec = statevector_oracle(Circuit(1, (Gate("h", (0,)),)), (0,))
        assert vec == [Amplitude(1, -1), Amplitude(1, -1)]

    def test_h_interferes(self):
        vec = statevector_oracle(Circuit(1, (Gate("h", (0,)),)), (1,))
        assert vec == [Amplitude(1, -1), Amplitude(-1, -1)]

    def test_ccz_phases_only_111(self):
        c = Circuit(3, (Gate("z", (0, 1, 2)),))
        for x in range(8):
            bits = tuple(x >> (2 - j) & 1 for j in range(3))
            vec = statevector_oracle(c, bits)
            expected = Amplitude(-1) if x == 7 else Amplitude(1)
            assert vec[x] == expected

    def test_swap_exchanges(self):
        c = Circuit(2, (Gate("swap", (0, 1)),))
        vec = statevector_oracle(c, (0, 1))
        assert vec[2].is_one()  # |01> -> |10>

    def test_qubit_zero_is_msb(self):
        c = Circuit(2, (Gate("x", (0,)),))
        vec = statevector_oracle(c, (0, 0))
        assert vec[2].is_one()  # index 10 in binary

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            statevector_oracle(Circuit(15, ()), (0,) * 15)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            statevector_oracle(Circuit(2, ()), (0,))


class TestUnitarity:
    def test_norm_is_exactly_one(self):
        rng = random.Random(2)
        for i in range(40):
            n = rng.randint(1, 6)
            c = random_circuit(n, rng.randint(0, 30),
                               max_controls=min(2, n - 1), seed=i)
            bits = tuple(rng.randrange(2) for _ in range(n))
            vec = statevector_oracle(c, bits)
            norm = Amplitude(0)
            for a in vec:
                norm = norm + a * a
            assert norm.is_one()


class TestSharedValues:
    def test_one_object_per_value_and_values_unchanged(self):
        # each entry equals dense evaluation of the unnormalized state sum,
        # and equal entries are one object
        rng = random.Random(4)
        for i in range(60):
            n = rng.randint(1, 6)
            c = random_circuit(n, rng.randint(0, 18),
                               max_controls=min(2, n - 1), seed=i + 400)
            bits = tuple(rng.randrange(2) for _ in range(n))
            vec = statevector_oracle(c, bits)
            assert vec == [row[0] for row in evaluate(interpret(c, bits))], i
            assert len({id(a) for a in vec}) == len(set(vec)), i


class TestMarginal:
    def test_marginal_matches_definition(self):
        c = Circuit(2, (Gate("h", (0,)),))
        vec = statevector_oracle(c, (0, 0))
        assert marginal_one(vec, 2, 0) == Amplitude(1, -2)
        assert marginal_one(vec, 2, 1) == Amplitude(0)
