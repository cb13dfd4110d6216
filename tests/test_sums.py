"""Path-sum structure, categorical operations, evaluation, interpretation.

The homomorphism laws (composition to matrix product, tensor to
Kronecker, adjoint to transpose) are checked exactly on random sums;
circuit interpretation is checked against the dense oracle.
"""

import hashlib
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsum.boolpoly import BoolPoly
from pathsum.circuit import Circuit, Gate, random_circuit
from pathsum.exact import Amplitude
from pathsum.fuzz import random_path_sum_from_circuit
from pathsum.oracle import statevector_oracle
from pathsum.rewrite import DETERMINISTIC_FIRST, normalize
from pathsum.sums import (DEFAULT_MAX_EVAL_VARS, EvalGuardError, PathSum,
                          adjoint, bra, compose, evaluate, from_dict, from_json,
                          identity, interpret, ket, tensor, to_dict, to_json,
                          zero_op)
from support import (apply_simple_transform, bits_to_index, circuits, column,
                     dagger, eval_mask, fold_renaming, fuzz_caps, fuzz_circuit,
                     gate_sem, identity_matrix, kron, matmul, path_sums,
                     poly_of, random_path_sum, reference_path_sum_from_circuit,
                     spliced)

x0, x1 = BoolPoly.var(0), BoolPoly.var(1)


def per_point_evaluate(a):
    """The one-assignment-at-a-time loop ``evaluate`` used to run: the
    reference its bit-parallel form must equal exactly."""
    rows, cols = 1 << len(a.outputs), 1 << len(a.inputs)
    if not a.scalar:
        return [[Amplitude(0)] * cols for _ in range(rows)]
    counts = [[0] * cols for _ in range(rows)]
    for point in range(1 << a.num_vars):
        r = bits_to_index(eval_mask(p, point) for p in a.outputs)
        c = bits_to_index(eval_mask(p, point) for p in a.inputs)
        counts[r][c] += -1 if eval_mask(a.phase, point) else 1
    return [[Amplitude(c) * a.scalar for c in row] for row in counts]


class TestMake:
    def test_constant_ket_one(self):
        s = PathSum(Amplitude(1), 0, BoolPoly.zero(), [BoolPoly.one()], [])
        assert column(evaluate(s), 0) == [Amplitude(0), Amplitude(1)]

    def test_hadamard_tuple(self):
        s = PathSum(Amplitude(1, -1), 2, x0 * x1, [x1], [x0])
        assert s == gate_sem(Gate("h", (0,)))

    def test_out_of_range_variable(self):
        with pytest.raises(ValueError, match="out of range"):
            PathSum(Amplitude(1), 2, BoolPoly.var(5), [], [])

    def test_scalar_is_zero_or_power_of_sqrt2(self):
        for bad in (Amplitude(3), Amplitude(-1), Amplitude(3, -1)):
            with pytest.raises(ValueError, match="power of sqrt"):
                PathSum(bad, 0, BoolPoly.zero(), [], [])
        assert PathSum(Amplitude(2), 0, BoolPoly.zero(), [], []).scalar == \
            Amplitude(1, 2)
        s = from_dict({"scalar": {"zero": True, "half_exp": 5}, "num_vars": 0,
                       "phase": [], "outputs": [], "inputs": []})
        assert s.scalar == Amplitude(0) and s == zero_op(0, 0)


class TestIdentityZero:
    def test_identity_zero_wires(self):
        s = identity(0)
        m = evaluate(s)
        assert len(m) == len(m[0]) == 1 and m[0][0].is_one()

    def test_identity_two_wires(self):
        assert evaluate(identity(2)) == identity_matrix(4)

    def test_identity_is_compose_unit(self):
        rng = random.Random(1)
        for _ in range(10):
            a = random_path_sum(rng, max_vars=5, n_in=2, n_out=2)
            left = evaluate(compose(identity(2), a), 16)
            right = evaluate(compose(a, identity(2)), 16)
            assert left == evaluate(a, 16) == right

    def test_zero_op_eval(self):
        assert evaluate(zero_op(1, 1)) == [[Amplitude(0)] * 2] * 2
        m = evaluate(zero_op(0, 0))
        assert m[0][0] == Amplitude(0)

    def test_zero_absorbs_under_tensor(self):
        assert evaluate(tensor(zero_op(1, 1), identity(1))) == [[Amplitude(0)] * 4] * 4


class TestKetBra:
    def test_ket_column(self):
        m = evaluate(ket("10"))
        assert len(m[0]) == 1 and m[bits_to_index((1, 0))][0].is_one()
        assert sum(1 for r in range(4) if not m[r][0].is_zero()) == 1

    def test_orthonormality(self):
        assert evaluate(compose(bra("1"), ket("1")))[0][0].is_one()
        assert evaluate(compose(bra("0"), ket("1")))[0][0].is_zero()

    def test_bit_validation(self):
        with pytest.raises(ValueError):
            ket("021")


class TestCompose:
    def test_hh_is_identity(self):
        h = gate_sem(Gate("h", (0,)))
        assert evaluate(compose(h, h)) == identity_matrix(2)

    def test_xx_is_identity(self):
        xg = gate_sem(Gate("x", (0,)))
        assert evaluate(compose(xg, xg)) == identity_matrix(2)

    def test_hadamard_amplitude(self):
        h = gate_sem(Gate("h", (0,)))
        m = evaluate(compose(bra("0"), compose(h, ket("0"))))
        assert m[0][0] == Amplitude(1, -1)

    def test_signature_mismatch(self):
        with pytest.raises(ValueError, match="signature"):
            compose(identity(2), identity(3))


class TestTensor:
    def test_identity_tensor(self):
        assert evaluate(tensor(identity(1), identity(1))) == identity_matrix(4)

    def test_hh_on_00(self):
        h = gate_sem(Gate("h", (0,)))
        m = evaluate(compose(tensor(h, h), ket("00")))
        assert all(m[r][0] == Amplitude(1, -2) for r in range(4))


class TestAdjoint:
    def test_h_self_adjoint(self):
        h = gate_sem(Gate("h", (0,)))
        assert evaluate(adjoint(h)) == dagger(evaluate(h))

    def test_ket_bra_duality(self):
        assert adjoint(ket("01")) == bra("01")

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(20):
            a = random_path_sum(rng, max_vars=6)
            assert adjoint(adjoint(a)) == a


class TestEvaluate:
    def test_ccz_diagonal(self):
        m = evaluate(gate_sem(Gate("z", (0, 1, 2))))
        for r in range(8):
            for c in range(8):
                if r != c:
                    assert m[r][c].is_zero()
                else:
                    assert m[r][c] == (Amplitude(-1) if r == 7 else Amplitude(1))

    def test_swap_permutation(self):
        m = evaluate(gate_sem(Gate("swap", (0, 1))))
        assert m[1][2].is_one() and m[2][1].is_one()
        assert m[1][1].is_zero() and m[2][2].is_zero()

    def test_total_interference(self):
        s = PathSum(Amplitude(1), 1, BoolPoly.var(0), (), ())
        assert evaluate(s)[0][0] == Amplitude(0)  # (+1) + (-1)

    def test_guard(self):
        s = identity(3)
        with pytest.raises(EvalGuardError) as err:
            evaluate(s, max_vars=2)
        assert err.value.num_vars == 3 and err.value.max_vars == 2

    def test_wire_guard(self):
        # 40 wires would need a 2^40-entry table; refused before allocating
        with pytest.raises(EvalGuardError) as err:
            evaluate(ket((0,) * 40))
        assert err.value.wires == 40 and err.value.num_vars == 0
        assert "40 wires" in str(err.value)

    def test_guard_names_refused_structure(self):
        # x0 on the output, x1..x3 only in the phase, of degree 3
        s = PathSum(Amplitude(1), 4, poly_of((0, 1, 2), (3,), (1, 3)),
                    (BoolPoly.var(0),), ())
        with pytest.raises(EvalGuardError) as err:
            evaluate(s, max_vars=3)
        e = err.value
        assert (e.num_vars, e.max_vars, e.wires) == (4, 3, 0)
        assert (e.wire_vars, e.phase_vars, e.degree, e.phase_terms) == (1, 3, 3, 3)
        assert str(e) == (
            "evaluation guard: 4 summation variables exceed the limit of 3; "
            "dense evaluation would take 2^4 steps; refused sum: w = 1 wire "
            "variables, r = 3 phase-only variables, degree 3, 3 phase terms")

    def test_guard_default(self):
        assert DEFAULT_MAX_EVAL_VARS == 24

    def test_matches_per_point_loop_on_fuzz_sums(self):
        rng = random.Random(2024)
        for _ in range(2000):
            a = random_path_sum(rng, max_vars=8, max_wires=3)
            assert evaluate(a) == per_point_evaluate(a), a

    def test_matches_per_point_loop_on_circuit_sums(self):
        rng = random.Random(99)
        done = 0
        while done < 150:
            a = random_path_sum_from_circuit(rng)
            if a.num_vars > 12:
                continue
            nf, _ = normalize(a)
            assert evaluate(a) == per_point_evaluate(a), a
            assert evaluate(nf) == per_point_evaluate(nf), nf
            done += 1

    def test_matches_per_point_loop_on_interpreted_circuits(self):
        rng = random.Random(31)
        for seed in range(60):
            n = rng.randint(1, 5)
            a = interpret(random_circuit(n, rng.randint(1, 10),
                                         max_controls=min(2, n - 1), seed=seed))
            if a.num_vars <= 14:
                assert evaluate(a) == per_point_evaluate(a), a

    @settings(max_examples=300, deadline=None)
    @given(path_sums())
    def test_matches_per_point_loop_property(self, a):
        assert evaluate(a) == per_point_evaluate(a)

    def test_inner_product_bent_closed_form(self):
        # sum over x, y in F_2^10 of (-1)^(x.y): only x = 0 survives, 2^10;
        # adding x_0 + y_0 moves the survivor to x = e_0 with sign -1
        ip = poly_of(*((i, 10 + i) for i in range(10)))
        closed = PathSum(Amplitude(1), 20, ip, (), ())
        assert evaluate(closed)[0][0] == Amplitude(2 ** 10)
        tilted = PathSum(Amplitude(1), 20, ip + poly_of((0,), (10,)), (), ())
        assert evaluate(tilted)[0][0] == Amplitude(-2 ** 10)


class TestGateSem:
    def test_h_matrix(self):
        m = evaluate(gate_sem(Gate("h", (0,))))
        r = Amplitude(1, -1)
        assert [m[0][0], m[0][1], m[1][0], m[1][1]] == [r, r, r, -r]

    def test_x_matrix(self):
        m = evaluate(gate_sem(Gate("x", (0,))))
        assert m[0][1].is_one() and m[1][0].is_one()
        assert m[0][0].is_zero() and m[1][1].is_zero()

    def test_cz_matrix(self):
        m = evaluate(gate_sem(Gate("z", (0, 1))))
        for i in range(4):
            assert m[i][i] == (Amplitude(-1) if i == 3 else Amplitude(1))

    def test_plain_z(self):
        m = evaluate(gate_sem(Gate("z", (0,))))
        assert m[0][0].is_one() and m[1][1] == Amplitude(-1)

    def test_every_gate_unitary(self):
        for gate in (Gate("h", (0,)), Gate("x", (0,)), Gate("z", (0,)),
                     Gate("z", (0, 1)), Gate("z", (0, 1, 2)),
                     Gate("swap", (0, 1))):
            u = evaluate(gate_sem(gate))
            assert matmul(dagger(u), u) == identity_matrix(len(u[0])), gate.kind


def reference_interpret(circuit: Circuit) -> PathSum:
    """The per-gate BoolPoly form ``interpret`` used to take: the output
    of its mask-set form must equal this byte for byte."""
    n = circuit.num_qubits
    inputs = tuple(BoolPoly.var(q) for q in range(n))
    out = list(inputs)
    phase: set[int] = set()
    k = n
    for gate in circuit.gates:
        qs = gate.qubits
        if gate.kind == "h":
            phase ^= {(1 << k) | mm for mm in out[qs[0]].monomials}
            out[qs[0]] = BoolPoly.var(k)
            k += 1
        elif gate.kind == "x":
            out[qs[0]] += BoolPoly.one()
        elif gate.kind == "z":
            phase ^= math.prod((out[q] for q in qs), start=BoolPoly.one()).monomials
        else:  # swap
            out[qs[0]], out[qs[1]] = out[qs[1]], out[qs[0]]
    return PathSum(Amplitude(1, n - k), k, BoolPoly(frozenset(phase)),
                   tuple(out), inputs)


class TestInterpret:
    def test_matches_reference_form(self):
        rng = random.Random(57)
        kinds = set()
        for seed in range(600):
            n = rng.randint(1, 16)
            c = random_circuit(n, rng.randint(0, 300),
                               max_controls=min(3, n - 1), seed=seed)
            kinds.update((g.kind, len(g.qubits)) for g in c.gates)
            assert to_json(interpret(c)) == to_json(reference_interpret(c)), seed
        assert {("h", 1), ("x", 1), ("z", 1), ("z", 3), ("z", 4), ("swap", 2)} <= kinds

    def test_empty_circuit(self):
        assert evaluate(interpret(Circuit(2, ()))) == identity_matrix(4)

    def test_double_hadamard(self):
        c = Circuit(1, (Gate("h", (0,)), Gate("h", (0,))))
        assert evaluate(interpret(c), 16) == identity_matrix(2)

    def test_matches_oracle_on_random_circuits(self):
        rng = random.Random(23)
        for i in range(30):
            n = rng.randint(1, 5)
            c = random_circuit(n, rng.randint(1, 12),
                               max_controls=min(2, n - 1), seed=i + 100)
            s = interpret(c)
            if s.num_vars > 20:
                continue
            m = evaluate(s, 20)
            for xv in range(1 << n):
                bits = tuple(xv >> (n - 1 - j) & 1 for j in range(n))
                assert column(m, xv) == statevector_oracle(c, bits), (i, xv)

    @settings(max_examples=200, deadline=None)
    @given(circuits(max_qubits=5, max_gates=12))
    def test_matches_oracle_property(self, c):
        n = c.num_qubits
        m = evaluate(interpret(c))
        for xv in range(1 << n):
            bits = tuple(xv >> (n - 1 - j) & 1 for j in range(n))
            assert column(m, xv) == statevector_oracle(c, bits), xv

    def test_gate_on_lower_wire(self):
        c = Circuit(2, (Gate("x", (1,)),))
        m = evaluate(interpret(c))
        assert m[1][0].is_one() and m[0][1].is_one()

    def test_matches_one_gate_fold(self):
        # the layer-by-layer composition interpret used to perform
        rng = random.Random(31)
        for i in range(40):
            n = rng.randint(1, 5)
            c = random_circuit(n, rng.randint(1, 12),
                               max_controls=min(2, n - 1), seed=i + 300)
            fold = identity(n)
            for g in c.gates:
                fold = compose(interpret(Circuit(n, (g,))), fold)
            direct, _ = normalize(interpret(c), DETERMINISTIC_FIRST)
            folded, _ = normalize(fold, DETERMINISTIC_FIRST)
            assert evaluate(direct, 20) == evaluate(folded, 20), i

    def test_single_gate_matches_gate_sem(self):
        for gate in (Gate("h", (0,)), Gate("x", (0,)), Gate("z", (0,)),
                     Gate("z", (0, 1)), Gate("z", (0, 1, 2)),
                     Gate("swap", (0, 1))):
            c = Circuit(len(gate.qubits), (gate,))
            assert evaluate(interpret(c)) == evaluate(gate_sem(gate)), gate

    def test_variable_count_bound(self):
        # exactly one variable per wire and one per H, scalar 2^(-#H/2)
        rng = random.Random(29)
        for i in range(40):
            n = rng.randint(1, 6)
            k = rng.randint(1, 25)
            c = random_circuit(n, k, max_controls=min(2, n - 1), seed=i)
            hs = sum(1 for g in c.gates if g.kind == "h")
            s = interpret(c)
            assert s.num_vars == n + hs
            assert s.scalar == Amplitude(1, -hs)


class TestInterpretOnInput:
    """``interpret(c, x)``: wires start as the constants of x."""

    @staticmethod
    def inputs(n):
        return [tuple(xv >> (n - 1 - j) & 1 for j in range(n))
                for xv in range(1 << n)]

    def test_equals_ket_composition_on_every_input(self):
        rng = random.Random(41)
        for i in range(40):
            n = rng.randint(1, 6)
            c = random_circuit(n, rng.randint(0, 14),
                               max_controls=min(2, n - 1), seed=i + 500)
            hs = sum(1 for g in c.gates if g.kind == "h")
            for bits in self.inputs(n):
                s = interpret(c, bits)
                assert (s.num_vars, s.signature) == (hs, (0, n))
                assert s.scalar == Amplitude(1, -hs)
                assert evaluate(s) == evaluate(
                    compose(interpret(c), ket(bits))), (i, bits)

    @settings(max_examples=200, deadline=None)
    @given(circuits(max_qubits=5, max_gates=12), st.data())
    def test_matches_oracle_property(self, c, data):
        n = c.num_qubits
        bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                        max_size=n)))
        assert column(evaluate(interpret(c, bits)), 0) == \
            statevector_oracle(c, bits)

    def test_rejects_wrong_width(self):
        c = Circuit(3, (Gate("h", (0,)),))
        for bits in ("01", "0101", (0, 1), ()):
            with pytest.raises(ValueError, match="width 3"):
                interpret(c, bits)

    def test_rejects_non_bits(self):
        c = Circuit(2, ())
        for bits in ("0a", "12", "0 1", (0, 2), (1, -1)):
            with pytest.raises(ValueError, match="0/1|0 or 1"):
                interpret(c, bits)

    def test_accepts_bool_and_int_sequences(self):
        c = random_circuit(3, 12, seed=8)
        want = interpret(c, "101")
        for bits in ((1, 0, 1), [1, 0, 1], (True, False, True)):
            assert to_json(interpret(c, bits)) == to_json(want)

    def test_no_argument_form_is_unchanged(self):
        c = random_circuit(5, 40, seed=9)
        assert to_json(interpret(c, None)) == to_json(interpret(c)) \
            == to_json(reference_interpret(c))


FOLD_SIZES = [(3, 6)] * 2000 + [(1, 1), (2, 12), (5, 20), (8, 40)] * 100


class TestFoldGenerator:
    def test_output_is_pinned(self):
        # the confluence fuzz interprets h;h-spliced circuits, then caps
        # them with compose, ket and bra; their output is pinned so the
        # fuzz keeps the same redexes
        digest = hashlib.sha256()
        for seed in range(1000):
            a = random_path_sum_from_circuit(random.Random(seed))
            digest.update(to_json(a).encode() + b"\n")
        assert digest.hexdigest() == (
            "166d7a18456d39dab50244eec52e81e70e387865937bc939ca4a7ae18ea11cd6")

    def test_is_an_interpretation(self):
        # the fuzz sum is one interpret of the circuit with h;h on every
        # wire between its gates, capped, rebuilt here from the same draws,
        # on the default sizes and on wider and deeper circuits; both must
        # leave the caller's generator in the same state
        for seed, (qubits, gates) in enumerate(FOLD_SIZES):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            a = random_path_sum_from_circuit(rng, qubits, gates)
            circ = fuzz_circuit(ref_rng, qubits, gates)
            assert a == fuzz_caps(ref_rng, interpret(spliced(circ)),
                                  circ.num_qubits), seed
            assert rng.getstate() == ref_rng.getstate()

    def test_matches_compose_fold(self):
        # renamed, the fuzz sum is the compose fold of the circuit's
        # one-gate interpretations, capped alike: it keeps the fold's
        # redexes, on the same sizes and generator states
        for seed, (qubits, gates) in enumerate(FOLD_SIZES):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            a = random_path_sum_from_circuit(rng, qubits, gates)
            circ = fuzz_circuit(random.Random(seed), qubits, gates)
            renamed = apply_simple_transform(a, fold_renaming(circ, a.num_vars))
            assert renamed == reference_path_sum_from_circuit(
                ref_rng, qubits, gates), seed
            assert rng.getstate() == ref_rng.getstate()


class TestSimpleTransform:
    def test_identity_map(self):
        rng = random.Random(4)
        a = random_path_sum(rng, max_vars=6)
        phi = {v: (v, 0) for v in range(a.num_vars)}
        assert apply_simple_transform(a, phi) == a

    def test_preserves_evaluation(self):
        rng = random.Random(5)
        for _ in range(40):
            a = random_path_sum(rng, max_vars=8)
            k = a.num_vars
            perm = list(range(k))
            rng.shuffle(perm)
            phi = {v: (perm[v], rng.randrange(2)) for v in range(k)}
            assert evaluate(apply_simple_transform(a, phi), 12) == evaluate(a, 12)

    def test_double_swap_is_involution(self):
        rng = random.Random(6)
        a = random_path_sum(rng, max_vars=6)
        if a.num_vars >= 2:
            phi = {v: (v, 0) for v in range(a.num_vars)}
            phi[0], phi[1] = (1, 0), (0, 0)
            assert apply_simple_transform(apply_simple_transform(a, phi), phi) == a

    def test_rejects_non_bijection(self):
        a = identity(2)
        with pytest.raises(ValueError):
            apply_simple_transform(a, {0: (0, 0), 1: (0, 0)})


class TestSoundness:
    """eval is a homomorphism: exact equality, no tolerance."""

    def test_compose_tensor_adjoint(self):
        rng = random.Random(77)
        done = 0
        while done < 60:
            m = rng.randint(0, 2)
            b = random_path_sum(rng, max_vars=5, n_out=m)
            a = random_path_sum(rng, max_vars=5, n_in=m)
            if a.num_vars + b.num_vars > 10:
                continue
            ea, eb = evaluate(a, 16), evaluate(b, 16)
            assert evaluate(compose(a, b), 16) == matmul(ea, eb)
            assert evaluate(tensor(a, b), 16) == kron(ea, eb)
            assert evaluate(adjoint(a), 16) == dagger(ea)
            done += 1


class TestJson:
    def test_round_trip(self):
        rng = random.Random(8)
        for _ in range(25):
            a = random_path_sum(rng, max_vars=6)
            assert from_json(to_json(a)) == a
            assert from_dict(to_dict(a)) == a

    def test_key_order_is_deterministic(self):
        h = gate_sem(Gate("h", (0,)))
        text = to_json(h)
        assert text == ('{"scalar": {"zero": false, "half_exp": -1}, '
                        '"num_vars": 2, "phase": [[0, 1]], '
                        '"outputs": [[[1]]], "inputs": [[[0]]]}')
        assert list(json.loads(text)) == \
            ["scalar", "num_vars", "phase", "outputs", "inputs"]

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            from_dict({"num_vars": 1})
        with pytest.raises(ValueError):
            from_dict({"scalar": {"zero": False, "half_exp": 0},
                       "num_vars": 0, "phase": [[0, 0]],
                       "outputs": [], "inputs": []})

    @pytest.mark.parametrize("scalar, num_vars", [
        ({"zero": False, "half_exp": 1.5}, 0),
        ({"zero": False, "half_exp": True}, 0),
        ({"zero": False, "half_exp": "1"}, 0),
        ({"zero": 0, "half_exp": 0}, 0),
        ({"zero": False, "half_exp": 0}, True),
        ({"zero": False, "half_exp": 0}, 1.0),
    ])
    def test_rejects_mistyped_numbers(self, scalar, num_vars):
        with pytest.raises(ValueError, match="must be"):
            from_dict({"scalar": scalar, "num_vars": num_vars, "phase": [],
                       "outputs": [], "inputs": []})

    def test_rejects_bool_index(self):
        with pytest.raises(ValueError, match="bad variable index"):
            from_dict({"scalar": {"zero": False, "half_exp": 0},
                       "num_vars": 2, "phase": [[True]],
                       "outputs": [], "inputs": []})

    @pytest.mark.parametrize("where", ["phase", "outputs", "inputs"])
    def test_rejects_huge_index_before_allocating(self, where):
        for index in (10 ** 8, 10 ** 10):  # a regression fails at 10**8 first
            data = {"scalar": {"zero": False, "half_exp": 0}, "num_vars": 1,
                    "phase": [], "outputs": [], "inputs": []}
            data[where] = [[index]] if where == "phase" else [[[index]]]
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="out of range"):
                    from_dict(data)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20  # 1 << 10**8 alone would take 12.5 MB
