"""Simulation drivers against the dense oracle."""

import random

import pytest

from pathsum.circuit import (Circuit, Gate, HiddenShiftSpec,
                             hidden_shift_circuit, random_circuit,
                             random_hidden_shift_spec)
from pathsum.boolpoly import BoolPoly
from pathsum.exact import Amplitude, Scalar
from pathsum.oracle import marginal_one, statevector_oracle
from pathsum.rewrite import find_rewrites, normalize, reduce
from pathsum.sim import (NonDeterministicOutcomeError, Probability,
                         measure_sim, projector_one, recover_shift,
                         strong_sim)
from pathsum.sums import (EvalGuardError, PathSum, adjoint, compose, evaluate,
                          identity, interpret, ket, tensor)


def bits_to_index(bits):
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


class TestStrongSim:
    def test_hadamard_entry(self):
        c = Circuit(1, (Gate("h", (0,)),))
        assert strong_sim(c, "0", "1") == Amplitude(1, -1)

    def test_ccz_sign(self):
        c = Circuit(3, (Gate("z", (0, 1, 2)),))
        assert strong_sim(c, "111", "111") == Amplitude(-1)

    def test_x_orthogonal(self):
        c = Circuit(1, (Gate("x", (0,)),))
        assert strong_sim(c, "0", "0") == Amplitude(0)

    def test_matches_oracle_exhaustively(self):
        rng = random.Random(90)
        for i in range(12):
            n = rng.randint(1, 4)
            c = random_circuit(n, rng.randint(1, 12),
                               max_controls=min(2, n - 1), seed=i + 40)
            for xv in range(1 << n):
                xb = tuple(xv >> (n - 1 - j) & 1 for j in range(n))
                vec = statevector_oracle(c, xb)
                for yv in range(1 << n):
                    yb = tuple(yv >> (n - 1 - j) & 1 for j in range(n))
                    assert strong_sim(c, xb, yb) == vec[yv], (i, xv, yv)

    def test_width_validation(self):
        c = Circuit(2, ())
        with pytest.raises(ValueError):
            strong_sim(c, "0", "00")

    def test_guard_propagates(self):
        # interleaved H/CCZ layers keep genuine summation variables alive
        gates = []
        for _ in range(2):
            gates += [Gate("h", (q,)) for q in range(3)]
            gates.append(Gate("z", (0, 1, 2)))
        gates += [Gate("h", (q,)) for q in range(3)]
        c = Circuit(3, tuple(gates))
        with pytest.raises(EvalGuardError) as err:
            strong_sim(c, (0,) * 3, (0,) * 3, max_eval_vars=3)
        assert err.value.num_vars > 3
        # and the value is still available when the guard allows it
        vec = statevector_oracle(c, (0, 0, 0))
        assert strong_sim(c, (0,) * 3, (0,) * 3, max_eval_vars=8) == vec[0]


class TestMeasureSim:
    def test_x_is_certain(self):
        c = Circuit(1, (Gate("x", (0,)),))
        assert measure_sim(c, "0", 0).is_one()

    def test_h_is_even(self):
        c = Circuit(1, (Gate("h", (0,)),))
        p = measure_sim(c, "0", 0)
        assert p.exact == Amplitude(1, -2)
        assert p.decimal == 0.5

    def test_matches_oracle_marginals(self):
        rng = random.Random(91)
        for i in range(15):
            n = rng.randint(1, 5)
            c = random_circuit(n, rng.randint(1, 14),
                               max_controls=min(2, n - 1), seed=i + 60)
            xb = tuple(rng.randrange(2) for _ in range(n))
            vec = statevector_oracle(c, xb)
            for q in range(n):
                assert measure_sim(c, xb, q).exact == marginal_one(vec, n, q)

    def test_qubit_range(self):
        with pytest.raises(ValueError):
            measure_sim(Circuit(1, ()), "0", 1)

    @staticmethod
    def sandwich_normal_form(c, bits, qubit):
        gn, _ = normalize(compose(interpret(c), ket(bits)))
        n = c.num_qubits
        return normalize(compose(adjoint(gn),
                                 compose(projector_one(n, qubit), gn)))[0]

    def test_affine_elimination_answers_the_refused_pin(self):
        # the benchmark's pinned refusal: its normal form keeps 56
        # variables and 162 cubic phase terms, and admits no rewrite
        c, bits = random_circuit(16, 300, seed=9), "0" * 16
        nf = self.sandwich_normal_form(c, bits, 0)
        assert (nf.num_vars, len(nf.phase.monomials)) == (56, 162)
        assert find_rewrites(nf) == []
        assert reduce(nf).num_vars == 13
        expect = marginal_one(statevector_oracle(c, bits, max_qubits=16), 16, 0)
        assert expect == Amplitude(1, -2)
        assert measure_sim(c, bits, 0, max_eval_vars=20).exact == expect

    def test_guard_bounds_the_residual_after_reduction(self):
        c, bits = random_circuit(16, 600, seed=2002), "0010011011100101"
        nf = self.sandwich_normal_form(c, bits, 15)
        assert nf.num_vars == 33
        with pytest.raises(EvalGuardError):
            evaluate(nf, 20)
        assert reduce(nf).num_vars == 12
        expect = marginal_one(statevector_oracle(c, bits, max_qubits=16), 16, 15)
        assert expect == Amplitude(9, -8)
        assert measure_sim(c, bits, 15, max_eval_vars=20).exact == expect

    def test_projector_shape(self):
        p = projector_one(3, 1)
        m = evaluate(p)
        for i in range(8):
            expect = Amplitude(1) if i >> 1 & 1 else Amplitude(0)
            assert m[i, i] == expect

    def test_projector_matches_tensor_construction(self):
        ketbra_one = PathSum(Scalar.ONE, 0, BoolPoly.zero(),
                             (BoolPoly.one(),), (BoolPoly.one(),))
        for n in range(1, 6):
            for q in range(n):
                built = tensor(tensor(identity(q), ketbra_one),
                               identity(n - q - 1))
                assert projector_one(n, q) == built, (n, q)


class TestRecoverShift:
    def test_two_qubit_instance(self):
        c = hidden_shift_circuit(HiddenShiftSpec(n=2, shift=(1, 0)))
        res = recover_shift(c)
        assert res.shift == (1, 0)
        assert res.shift_string() == "10"
        assert all(p.is_one() or p.is_zero() for p in res.per_qubit_probability)

    def test_four_qubit_instance_with_cz_term(self):
        spec = HiddenShiftSpec(n=4, shift=(0, 1, 1, 0),
                               g_monomials=frozenset({(0, 1)}))
        c = hidden_shift_circuit(spec)
        assert recover_shift(c).shift == (0, 1, 1, 0)
        vec = statevector_oracle(c, (0,) * 4)
        assert vec[bits_to_index((0, 1, 1, 0))].is_one()

    def test_eight_qubit_instance(self):
        spec = HiddenShiftSpec(n=8, shift=(1, 0, 1, 1, 0, 0, 0, 1),
                               g_monomials=frozenset({(0, 1, 2), (3,)}))
        c = hidden_shift_circuit(spec)
        res = recover_shift(c)
        assert res.shift == spec.shift
        vec = statevector_oracle(c, (0,) * 8)
        assert vec[bits_to_index(spec.shift)].is_one()

    def test_nondeterministic_circuit_rejected(self):
        c = Circuit(1, (Gate("h", (0,)),))
        with pytest.raises(NonDeterministicOutcomeError) as err:
            recover_shift(c)
        assert err.value.qubit == 0
        assert err.value.probability.exact == Amplitude(1, -2)

    def test_agrees_with_standalone_measure(self):
        rng = random.Random(92)
        spec = random_hidden_shift_spec(6, rng)
        c = hidden_shift_circuit(spec)
        res = recover_shift(c)
        for i in range(6):
            assert measure_sim(c, (0,) * 6, i).exact == \
                res.per_qubit_probability[i].exact

    def test_step_budget(self):
        rng = random.Random(93)
        for n in (2, 4, 8):
            spec = random_hidden_shift_spec(n, rng)
            c = hidden_shift_circuit(spec)
            g = compose(interpret(c), ket((0,) * n))
            res = recover_shift(c)
            # the state collapses, so no per-qubit sandwich adds steps
            assert res.rewrite_steps_total <= g.num_vars

    def test_readout_matches_explicit_sandwich(self):
        rng = random.Random(95)
        for n in (2, 4, 6, 8):
            spec = random_hidden_shift_spec(n, rng)
            c = hidden_shift_circuit(spec)
            gn, _ = normalize(compose(interpret(c), ket((0,) * n)))
            assert gn.num_vars == 0
            res = recover_shift(c)
            vec = statevector_oracle(c, (0,) * n)
            for i in range(n):
                f = compose(adjoint(gn), compose(projector_one(n, i), gn))
                nf, _ = normalize(f)
                sandwich = evaluate(nf)[0, 0]
                assert res.per_qubit_probability[i].exact == sandwich, (n, i)
                assert sandwich == marginal_one(vec, n, i), (n, i)

    def test_full_reduction_of_state_sum(self):
        rng = random.Random(94)
        for n in (2, 4, 6):
            spec = random_hidden_shift_spec(n, rng)
            c = hidden_shift_circuit(spec)
            g = compose(interpret(c), ket((0,) * n))
            nf, trace = normalize(g)
            assert nf.num_vars == 0
            assert not nf.scalar.zero and nf.scalar.half_exp == 0
            got = tuple(1 if p.monomials else 0 for p in nf.outputs)
            assert got == spec.shift
            assert len(trace) <= g.num_vars


class TestProbability:
    def test_exact_and_decimal(self):
        p = Probability(Amplitude(1, -2))
        assert p.decimal == 0.5
        assert str(p) == "1 * 2^(-1)"
        assert not p.is_one() and not p.is_zero()
