"""Simulation drivers against the dense oracle."""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsum.circuit import (Circuit, Gate, HiddenShiftSpec,
                             hidden_shift_circuit, random_circuit)
from pathsum.boolpoly import BoolPoly, mask_bits
from pathsum.exact import Amplitude
from pathsum.fuzz import random_path_sum_from_circuit
from pathsum.oracle import marginal_one, statevector_oracle
from pathsum.rewrite import find_rewrites, normalize, reduce, simply_equivalent
from pathsum.sim import (NonDeterministicOutcomeError, ShiftResult,
                         SimulationConsistencyError, _light_cone,
                         _normal_state, _probability_one, _read_shift,
                         _sandwich_one, _value, measure_sim, projector_one,
                         recover_shift, strong_sim)
from pathsum.sums import (DEFAULT_MAX_EVAL_VARS, EvalGuardError, PathSum,
                          adjoint, as_bits, bra, compose, evaluate, identity,
                          interpret, ket, tensor, to_json)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import (EVAL_PIN, GUARD_PIN, POOL12,  # noqa: E402
                                 POOL16)
from support import (bits_to_index, circuits, eval_mask,  # noqa: E402
                     nonlinear_shift_circuit, path_sums,
                     random_hidden_shift_spec, random_network)


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
        assert p == Amplitude(1, -2)
        assert float(p) == 0.5

    def test_matches_oracle_marginals(self):
        rng = random.Random(91)
        for i in range(15):
            n = rng.randint(1, 5)
            c = random_circuit(n, rng.randint(1, 14),
                               max_controls=min(2, n - 1), seed=i + 60)
            xb = tuple(rng.randrange(2) for _ in range(n))
            vec = statevector_oracle(c, xb)
            for q in range(n):
                assert measure_sim(c, xb, q) == marginal_one(vec, n, q)

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
        assert measure_sim(c, bits, 0, max_eval_vars=20) == expect

    def test_guard_bounds_the_residual_after_reduction(self):
        c, bits = random_circuit(16, 600, seed=2002), "0010011011100101"
        nf = self.sandwich_normal_form(c, bits, 15)
        assert nf.num_vars == 33
        with pytest.raises(EvalGuardError):
            evaluate(nf, 20)
        assert reduce(nf).num_vars == 12
        expect = marginal_one(statevector_oracle(c, bits, max_qubits=16), 16, 15)
        assert expect == Amplitude(9, -8)
        assert measure_sim(c, bits, 15, max_eval_vars=20) == expect

    def test_projector_shape(self):
        p = projector_one(3, 1)
        m = evaluate(p)
        for i in range(8):
            expect = Amplitude(1) if i >> 1 & 1 else Amplitude(0)
            assert m[i][i] == expect

    def test_projector_matches_tensor_construction(self):
        ketbra_one = PathSum(Amplitude(1), 0, BoolPoly.zero(),
                             (BoolPoly.one(),), (BoolPoly.one(),))
        for n in range(1, 6):
            for q in range(n):
                built = tensor(tensor(identity(q), ketbra_one),
                               identity(n - q - 1))
                assert projector_one(n, q) == built, (n, q)


def reference_sandwich(gn, qubit):
    """<gn| projector_one |gn> by composition: 2k + 3n - 1 variables."""
    n = len(gn.outputs)
    ref = compose(adjoint(gn), compose(projector_one(n, qubit), gn))
    assert ref.num_vars == 2 * gn.num_vars + 3 * n - 1
    return ref


#: every query the random-measure workload can draw
BENCHMARK_QUERIES = ([(12, 200, *q) for q in POOL12]
                     + [(16, 300, *q) for q in POOL16] + [GUARD_PIN, EVAL_PIN])


@pytest.fixture(scope="module")
def pool_states():
    """(n, circuit seed, input, normalized state) of each pool query."""
    pools = [(12, 200, q) for q in POOL12] + [(16, 300, q) for q in POOL16]
    states = []
    for n, depth, (cseed, bits, _) in pools:
        c = random_circuit(n, depth, seed=cseed)
        states.append((n, cseed, bits, normalize(interpret(c, bits))[0]))
    return states


class TestSandwichOne:
    """The drivers' sandwich against <g| projector_one |g>."""

    def test_shape(self):
        # outputs x0, x0 + 1, x1*x2, 1, x1 + 1: x0 and x1 are shared,
        # wires 1 and 2 mediated, wire 3 constant
        x = [BoolPoly.var(i) for i in range(3)]
        one = BoolPoly.one()
        g = PathSum(Amplitude(1, -3), 3, x[0] * x[1] + x[2],
                    (x[0], x[0] + one, x[1] * x[2], one, x[1] + one), ())
        for q in range(5):
            f = _sandwich_one(g, q)
            # 2k - s + m + 1 and scalar^2 * 2^-(m+1), for s = m = 2
            assert f.num_vars == 7 and f.scalar == Amplitude(1, -12)
            assert f.signature == (0, 0)
            assert evaluate(f) == evaluate(reference_sandwich(g, q)), q
        # copy a's x2 is 0, copy b is 1..3, mediators 4 and 5, projector 6:
        # x0*x1 cancels between the copies, wire 1's mediator term vanishes
        assert sorted(_sandwich_one(g, 2).phase.to_lists()) == sorted(
            [[0], [3], [6], [0, 2, 5], [2, 3, 5], [2, 3, 6]])
        # a circuit state, its shared and mediated wires counted here:
        # outputs x2 + 1, x0, x2, x1
        c = random_circuit(4, 30, seed=29)
        gn, _ = normalize(interpret(c, "0110"))
        shared, m = set(), 0
        for o in gn.outputs:
            vs = mask_bits(o.vars_mask)
            if len(vs) == 1 and vs[0] not in shared:
                shared.add(vs[0])
            elif vs:
                m += 1
        assert (gn.num_vars, len(shared), m) == (3, 3, 1)
        for q in range(4):
            f = _sandwich_one(gn, q)
            assert f.num_vars == 2 * gn.num_vars - len(shared) + m + 1
            assert f.scalar == (gn.scalar * gn.scalar
                                * Amplitude(1, -2 * (m + 1)))
            assert evaluate(f) == evaluate(reference_sandwich(gn, q)), q

    def test_same_value_as_projector_sandwich_on_benchmark_pools(
            self, pool_states):
        # every qubit of the random-measure workload's pool states
        compared = refused = 0
        for n, cseed, bits, gn in pool_states:
            for q in range(n):
                values = []
                for f in (_sandwich_one(gn, q), reference_sandwich(gn, q)):
                    try:
                        values.append(_value(f, 22)[0])
                    except EvalGuardError:  # 4 residuals of 25 variables
                        values.append(None)
                new, ref = values
                if ref is None:
                    refused += 1
                    continue
                # the new sandwich answers wherever the reference does
                assert new == ref, (n, cseed, bits, q)
                compared += 1
        # 412 of the 416 sandwiches are answered; every state keeps variables
        assert compared >= 400 and refused <= 4, (compared, refused)

    def test_matches_oracle_on_small_states(self):
        rng = random.Random(97)
        for i in range(30):
            n = rng.randint(1, 6)
            c = random_circuit(n, rng.randint(1, 20),
                               max_controls=min(2, n - 1), seed=i + 700)
            bits = tuple(rng.randrange(2) for _ in range(n))
            gn, _ = normalize(interpret(c, bits))
            vec = statevector_oracle(c, bits)
            for q in range(n):
                new = evaluate(_sandwich_one(gn, q))[0][0]
                ref = evaluate(reference_sandwich(gn, q))[0][0]
                assert new == ref == marginal_one(vec, n, q), (i, q)

    def test_normal_forms_agree_with_the_reference(self, pool_states):
        # confluence across the two constructions: the normal forms have
        # as many variables, and small ones are simply equivalent
        rng = random.Random(98)
        states = [gn for *_, gn in pool_states]
        for i in range(300):
            n = rng.randint(1, 10)
            c = random_circuit(n, rng.randint(1, 4 * n),
                               max_controls=min(2, n - 1), seed=i + 5000)
            bits = tuple(rng.randrange(2) for _ in range(n))
            states.append(normalize(interpret(c, bits))[0])
        cases = small = 0
        for gn in states:
            for q in range(len(gn.outputs)):
                new = normalize(_sandwich_one(gn, q))[0]
                ref = normalize(reference_sandwich(gn, q))[0]
                assert new.num_vars == ref.num_vars, (gn, q)
                if new.num_vars <= 8:
                    assert simply_equivalent(new, ref), (gn, q)
                    small += 1
                cases += 1
        assert cases >= 2100 and small >= 2000, (cases, small)

    def test_benchmark_queries_keep_their_residual(self):
        # reduce leaves as many variables as on the reference, on every
        # query the random-measure workload can draw
        assert len(BENCHMARK_QUERIES) == 34
        for n, depth, cseed, bits, q in BENCHMARK_QUERIES:
            c = random_circuit(n, depth, seed=cseed)
            gn, _ = normalize(interpret(c, bits))
            new = reduce(normalize(_sandwich_one(gn, q))[0])
            ref = reduce(normalize(reference_sandwich(gn, q))[0])
            assert new.num_vars == ref.num_vars, (n, cseed, bits, q)


def unpruned_probability(c, bits, qubit, guard=DEFAULT_MAX_EVAL_VARS):
    """``measure_sim`` without the light cone: the whole circuit's state."""
    return _probability_one(normalize(interpret(c, bits))[0], qubit, guard)[0]


class TestLightCone:
    """``_light_cone`` keeps the gates that can reach the measured wire."""

    def test_matches_whole_circuit_and_oracle(self):
        rng = random.Random(230)
        for i in range(600):
            n = rng.randint(1, 8)
            c = random_circuit(n, rng.randint(0, 3 * n + 6),
                               max_controls=min(2, n - 1), seed=i + 23000)
            bits = tuple(rng.randrange(2) for _ in range(n))
            vec = statevector_oracle(c, bits)
            for q in range(n):
                got = measure_sim(c, bits, q)
                assert got == unpruned_probability(c, bits, q), (i, q)
                assert got == marginal_one(vec, n, q), (i, q)

    @settings(max_examples=150, deadline=None)
    @given(circuits(max_qubits=6, max_gates=24), st.data())
    def test_matches_oracle_property(self, c, data):
        n = c.num_qubits
        bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                        max_size=n)))
        q = data.draw(st.integers(0, n - 1))
        got = measure_sim(c, bits, q)
        assert got == unpruned_probability(c, bits, q)
        assert got == marginal_one(statevector_oracle(c, bits), n, q)

    def test_kept_gates_are_an_ordered_subsequence_and_stable(self):
        rng = random.Random(231)
        for i in range(200):
            n = rng.randint(1, 8)
            c = random_circuit(n, rng.randint(0, 40),
                               max_controls=min(2, n - 1), seed=i + 23100)
            for q in range(n):
                cone = _light_cone(c, q)
                assert cone.num_qubits == n
                rest = iter(c.gates)
                assert all(any(g is h for h in rest) for g in cone.gates)
                assert _light_cone(cone, q) == cone, (i, q)

    def test_hand_cases(self):
        h, x, z, swap = (lambda *qs, k=k: Gate(k, qs)
                         for k in ("h", "x", "z", "swap"))

        def kept(gates, qubit, n=3):
            return _light_cone(Circuit(n, gates), qubit).gates

        # a trailing CZ on the measured wire is diagonal: dropped, and with
        # it the H on the other wire
        assert kept((h(0), h(1), z(0, 1)), 0) == (h(0),)
        # an X between two diagonal gates leaves the wire commuting with
        # Z, so the earlier CZ is dropped too
        assert kept((h(0), h(1), z(0, 1), x(0), z(0, 1)), 0) == (h(0), x(0))
        # an H after a CZ: the wire is unknown, so the CZ stays and pulls
        # in its other wire's H
        gates = (h(0), h(1), z(0, 1), h(0))
        assert kept(gates, 0) == gates
        # a SWAP moves the measured wire; gates on wires outside the cone go
        assert kept((h(1), x(2), swap(0, 1)), 0) == (h(1), swap(0, 1))
        assert kept((h(1), swap(1, 2), z(0, 1, 2)), 0) == ()
        for gates, qubit in (((h(0), h(1), z(0, 1), h(0)), 0),
                             ((h(1), x(2), swap(0, 1)), 0),
                             ((h(0), h(1), z(0, 1), x(0), z(0, 1)), 0)):
            c = Circuit(3, gates)
            vec = statevector_oracle(c, (0, 0, 0))
            assert measure_sim(c, (0, 0, 0), qubit) == marginal_one(vec, 3, qubit)

    def test_gate_counts_on_the_benchmark_pools(self):
        total = kept = 0
        for n, depth, cseed, _, q in BENCHMARK_QUERIES[:32]:
            c = random_circuit(n, depth, seed=cseed)
            total += len(c.gates)
            kept += len(_light_cone(c, q).gates)
        assert (total, kept) == (7200, 3377)
        pins = [len(_light_cone(random_circuit(n, depth, seed=cseed), q).gates)
                for n, depth, cseed, _, q in BENCHMARK_QUERIES[32:]]
        assert pins == [231, 191]  # of 300 gates each

    def test_refusals_unchanged(self, pool_states):
        # reduce leaves the pruned state's sandwich no more variables than
        # the whole state's, on every pool qubit and on deep circuits that
        # the guard refuses; they are equal on all 452
        cases = [(random_circuit(n, 300 if n == 16 else 200, seed=cseed),
                  bits, gn, q)
                 for n, cseed, bits, gn in pool_states for q in range(n)]
        bits = "0010011011100101"
        for cseed in range(2000, 2012):
            c = random_circuit(16, 600, seed=cseed)
            gn = normalize(interpret(c, bits))[0]
            cases += [(c, bits, gn, q) for q in (0, 7, 15)]
        assert len(cases) == 452
        equal = 0
        for c, bits, gn, q in cases:
            cone = normalize(interpret(_light_cone(c, q), bits))[0]
            new = reduce(_sandwich_one(cone, q)).num_vars
            old = reduce(_sandwich_one(gn, q)).num_vars
            assert new <= old, (c.num_qubits, bits, q)
            equal += new == old
        assert equal == 452

    def test_benchmark_answers_unchanged(self):
        for n, depth, cseed, bits, q in BENCHMARK_QUERIES:
            c = random_circuit(n, depth, seed=cseed)
            assert measure_sim(c, bits, q, 20) == unpruned_probability(
                c, bits, q, 20), (n, cseed, bits, q)


def assert_one_pass(f, guard):
    """``_value``'s one pass against the two passes it replaces,
    ``evaluate(reduce(normalize(f)[0]))``: the same step count (the
    normal form's trace), the same value or the same refusal, and the
    same residual.  Returns whether the guard refused."""
    nf, trace = normalize(f)
    residual = reduce(nf)
    assert to_json(reduce(f)) == to_json(residual)
    try:
        want = evaluate(residual, guard)
    except EvalGuardError as err:
        with pytest.raises(EvalGuardError) as got:
            _value(f, guard)
        assert str(got.value) == str(err)
        return True
    assert _value(f, guard) == (want, len(trace))
    return False


class TestClosedValueInOnePass:
    def test_pool_sandwiches(self, pool_states):
        refused = sum(assert_one_pass(_sandwich_one(gn, q), 22)
                      for n, _, _, gn in pool_states for q in range(n))
        assert refused == 4

    def test_benchmark_queries(self):
        assert len(BENCHMARK_QUERIES) == 34
        for n, depth, cseed, bits, q in BENCHMARK_QUERIES:
            gn, _ = normalize(interpret(random_circuit(n, depth, seed=cseed), bits))
            assert not assert_one_pass(_sandwich_one(gn, q), 20)

    def test_amplitude_sums(self):
        # <y| [c] |x>, y an output of the normal form at a random point
        rng = random.Random(111)
        refused = affine = 0
        for cseed in range(100, 160):
            n, depth = (12, 200) if cseed % 2 else (16, 300)
            x = [rng.randrange(2) for _ in range(n)]
            g = interpret(random_circuit(n, depth, seed=cseed), x)
            gn, _ = normalize(g)
            for _ in range(3):
                point = rng.getrandbits(gn.num_vars)
                f = compose(bra([eval_mask(o, point) for o in gn.outputs]), g)
                refused += assert_one_pass(f, 8)
                affine += reduce(f).num_vars < normalize(f)[0].num_vars
        assert refused >= 10 and affine >= 12, (refused, affine)  # 14, 16


def value_outcome(a, guard):
    """``_value`` against ``evaluate`` on the sum as given.  Where
    ``evaluate`` answers, ``_value`` returns the same rows and the steps
    of ``normalize``; it refuses only where ``evaluate`` refuses, with
    ``evaluate(reduce(a))``'s message.  A sum only ``_value`` answers
    is checked against ``evaluate`` past the guard, when that is small.
    Returns "both", "refused" or "value only"."""
    try:
        want = evaluate(a, guard)
    except EvalGuardError as err:
        try:
            got = _value(a, guard)
        except EvalGuardError as mine:
            with pytest.raises(EvalGuardError) as residual:
                evaluate(reduce(a), guard)
            assert str(mine) == str(residual.value), (a, err)
            return "refused"
        if a.num_vars <= 16:
            assert got[0] == evaluate(a, 16), a
        return "value only"
    assert _value(a, guard) == (want, len(normalize(a)[1])), a
    return "both"


class TestValue:
    """``_value`` values sums of every signature, as ``evaluate`` does."""

    @settings(max_examples=300, deadline=None)
    @given(path_sums(), st.integers(0, 8))
    def test_random_sums(self, a, guard):
        value_outcome(a, guard)

    def test_fuzz_sums_and_normal_forms(self):
        rng = random.Random(26)
        seen = {"both": 0, "refused": 0, "value only": 0}
        for _ in range(300):
            a = random_path_sum_from_circuit(rng)
            for s in (a, normalize(a)[0]):
                seen[value_outcome(s, rng.randint(0, 8))] += 1
        # 277, 128 and 195 of the 600
        assert min(seen.values()) >= 100, seen


class TestNormalState:
    """``_normal_state`` against ``normalize(interpret(c, bits))``."""

    @staticmethod
    def assert_same(c, bits):
        nf, steps = _normal_state(c, bits)
        want, trace = normalize(interpret(c, bits))
        assert (nf, steps) == (want, len(trace)), (c, bits)
        if not nf.num_vars:  # constant wires, not renumbered copies
            assert all(p is BoolPoly.zero() or p is BoolPoly.one()
                       for p in (nf.phase, *nf.outputs)), nf
        return nf

    @settings(max_examples=300, deadline=None)
    @given(circuits(max_qubits=6, max_gates=24), st.data())
    def test_random_circuits(self, c, data):
        n = c.num_qubits
        bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                        max_size=n)))
        self.assert_same(c, bits)

    @settings(max_examples=100, deadline=None)
    @given(circuits(max_qubits=6, max_gates=24), st.data())
    def test_circuits_without_hadamard(self, c, data):
        # k = 0: a basis state with no variables and no steps
        c = Circuit(c.num_qubits, tuple(g for g in c.gates if g.kind != "h"))
        n = c.num_qubits
        bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                        max_size=n)))
        nf = self.assert_same(c, bits)
        assert nf.num_vars == 0 and nf.scalar.is_one()

    def test_benchmark_pool_states(self):
        kept = 0
        for n, depth, (cseed, bits, _) in (
                [(12, 200, q) for q in POOL12] + [(16, 300, q) for q in POOL16]):
            c = random_circuit(n, depth, seed=cseed)
            kept += self.assert_same(c, bits).num_vars > 0
        assert kept == len(POOL12) + len(POOL16)

    def test_hidden_shift_states_and_input_width(self):
        rng = random.Random(290)
        for n in (2, 8, 32):
            c = hidden_shift_circuit(random_hidden_shift_spec(n, rng))
            assert self.assert_same(c, (0,) * n).num_vars == 0
        with pytest.raises(ValueError, match="width 4"):
            _normal_state(Circuit(4, ()), "000")


def per_qubit_readout(gn, steps, guard=DEFAULT_MAX_EVAL_VARS):
    """``_read_shift`` as one ``_probability_one`` call per qubit, on
    every state, with or without variables."""
    probs = []
    for i in range(len(gn.outputs)):
        prob, taken = _probability_one(gn, i, guard)
        if not (prob.is_one() or prob.is_zero()):
            raise NonDeterministicOutcomeError(i, prob)
        steps += taken
        probs.append(prob)
    return ShiftResult(tuple(int(p.is_one()) for p in probs), tuple(probs), steps)


def per_qubit_shift(c, guard=DEFAULT_MAX_EVAL_VARS):
    """``recover_shift`` through ``normalize(interpret(...))`` and the
    per-qubit readout."""
    n = c.num_qubits
    gn, trace = normalize(interpret(c, (0,) * n))
    reduced = reduce(gn)
    if reduced.num_vars == 0:
        gn = reduced
    return per_qubit_readout(gn, len(trace), guard)


def readout_outcome(read, gn, steps):
    """The ``ShiftResult``, or the error's type, message and fields."""
    try:
        return read(gn, steps, DEFAULT_MAX_EVAL_VARS)
    except (NonDeterministicOutcomeError, SimulationConsistencyError) as exc:
        return (type(exc), str(exc), getattr(exc, "qubit", None),
                getattr(exc, "probability", None))


class TestOnePassReadout:
    """A state with no variables is read in one pass, as the per-qubit
    loop reads it."""

    def test_random_hidden_shift_instances(self):
        rng = random.Random(291)
        for n in range(2, 65, 2):
            c = hidden_shift_circuit(random_hidden_shift_spec(n, rng))
            res = recover_shift(c)
            assert res == per_qubit_shift(c), n
            assert res.rewrite_steps_total == sum(g.kind == "h" for g in c.gates)

    def test_nonlinear_pi_instances_that_collapse_under_reduce(self):
        rng = random.Random(5)
        for n in (8, 12, 16, 32, 64):
            network = random_network(rng, n // 2, n // 2)
            shift = tuple(rng.randrange(2) for _ in range(n))
            c = nonlinear_shift_circuit(n, shift, network, [(0,)])
            res = recover_shift(c)
            assert res.shift == shift
            assert res == per_qubit_shift(c), n

    def test_checks_and_their_qubit_order(self):
        # hand-made states scalar*|b>, some with scalar^2 outside [0, 1] or
        # strictly inside it: the same result, or the same error naming the
        # same qubit and probability
        errors = 0
        for width in range(5):
            for b in range(1 << width):
                outs = tuple(BoolPoly.constant(b >> (width - 1 - q) & 1)
                             for q in range(width))
                for scalar in [Amplitude(0)] + [Amplitude(1, e)
                                                for e in range(-3, 4)]:
                    for phase in (BoolPoly.zero(), BoolPoly.one()):
                        gn = PathSum(scalar, 0, phase, outs, ())
                        got = readout_outcome(_read_shift, gn, 7)
                        assert got == readout_outcome(per_qubit_readout, gn, 7)
                        errors += isinstance(got, tuple)
        assert errors == 2 * 6 * sum((1 << w) - 1 for w in range(5))


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
        assert err.value.probability == Amplitude(1, -2)

    def test_agrees_with_standalone_measure(self):
        rng = random.Random(92)
        spec = random_hidden_shift_spec(6, rng)
        c = hidden_shift_circuit(spec)
        res = recover_shift(c)
        for i in range(6):
            assert measure_sim(c, (0,) * 6, i) == res.per_qubit_probability[i]

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
                sandwich = evaluate(nf)[0][0]
                assert res.per_qubit_probability[i] == sandwich, (n, i)
                assert sandwich == marginal_one(vec, n, i), (n, i)

    def test_state_on_input_collapses_in_one_step_per_hadamard(self):
        rng = random.Random(96)
        for n in (16, 32, 64, 128):
            spec = random_hidden_shift_spec(n, rng)
            c = hidden_shift_circuit(spec)
            hs = sum(1 for g in c.gates if g.kind == "h")
            g = interpret(c, (0,) * n)
            assert g.num_vars == hs == 3 * n
            nf, trace = normalize(g)
            assert nf.num_vars == 0 and len(trace) == hs
            assert tuple(len(p.monomials) for p in nf.outputs) == spec.shift
            assert recover_shift(c).rewrite_steps_total == hs

    def test_steps_of_states_that_keep_variables(self):
        # a nonlinear pi leaves state variables.  Where affine elimination
        # removes them all (n = 6), the shift is read off the reduced state
        # and only normalize's steps count; otherwise (n = 8) each qubit's
        # sandwich adds the rewrites normalize takes on it, and not the
        # steps that affine elimination takes after them
        for n, network, shift, steps in (
                (6, [((2,), 0), ((1, 2), 0), ((0, 1), 2)], "101101", 24),
                (8, [((2,), 1), ((2,), 3), ((1, 2), 0), ((2, 3), 1)],
                 "10001000", 208)):
            c = nonlinear_shift_circuit(n, as_bits(shift), network, [(0,)])
            assert statevector_oracle(c, (0,) * n)[int(shift, 2)].is_one()
            gn, trace = normalize(interpret(c, (0,) * n))
            assert gn.num_vars > 0
            res = recover_shift(c)
            assert res.shift_string() == shift
            sandwiches = range(n) if reduce(gn).num_vars else ()
            assert res.rewrite_steps_total == steps == len(trace) + sum(
                len(normalize(_sandwich_one(gn, q))[1]) for q in sandwiches)

    def test_states_that_collapse_under_affine_elimination(self):
        # a random Toffoli/CNOT pi of depth n/2: normalize leaves state
        # variables on all but the first instance, and reduce removes them
        # all, so the shift is read off the reduced state with no sandwich
        rng = random.Random(5)
        kept = []
        for n in (8, 12, 16, 32, 64):
            network = random_network(rng, n // 2, n // 2)
            shift = tuple(rng.randrange(2) for _ in range(n))
            c = nonlinear_shift_circuit(n, shift, network, [(0,)])
            if n <= 12:
                vec = statevector_oracle(c, (0,) * n)
                assert vec[bits_to_index(shift)].is_one()
            gn, trace = normalize(interpret(c, (0,) * n))
            kept.append(gn.num_vars)
            assert reduce(gn).num_vars == 0
            res = recover_shift(c)
            assert res.shift == shift
            assert res.rewrite_steps_total == len(trace)
            assert all(p.is_one() or p.is_zero()
                       for p in res.per_qubit_probability)
        assert [k > 0 for k in kept] == [False, True, True, True, True]

    def test_full_reduction_of_state_sum(self):
        rng = random.Random(94)
        for n in (2, 4, 6):
            spec = random_hidden_shift_spec(n, rng)
            c = hidden_shift_circuit(spec)
            g = compose(interpret(c), ket((0,) * n))
            nf, trace = normalize(g)
            assert nf.num_vars == 0
            assert nf.scalar and nf.scalar.half_exp == 0
            got = tuple(1 if p.monomials else 0 for p in nf.outputs)
            assert got == spec.shift
            assert len(trace) <= g.num_vars

