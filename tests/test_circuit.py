"""Circuit IR, text format, and the hidden-shift generator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsum.circuit import (MAX_QUBITS, Circuit, CircuitParseError, Gate,
                             HiddenShiftSpec, hidden_shift_circuit, parse,
                             random_circuit,
                             random_hidden_shift_spec, serialize, volume)
from pathsum.oracle import statevector_oracle


@st.composite
def circuits(draw, max_qubits=6, max_gates=20):
    """Random circuits over the whole gate set, at most two controls."""
    n = draw(st.integers(1, max_qubits))
    arities = [("h", 1), ("x", 1), ("z", 1)]
    arities += [("z", m) for m in (2, 3) if m <= n]
    if n >= 2:
        arities.append(("swap", 2))
    gate = st.sampled_from(arities).flatmap(lambda ka: st.lists(
        st.integers(0, n - 1), min_size=ka[1], max_size=ka[1], unique=True
    ).map(lambda qs: Gate(ka[0], tuple(qs))))
    return Circuit(n, tuple(draw(st.lists(gate, max_size=max_gates))))


def bits_to_index(bits):
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


class TestGate:
    def test_validation(self):
        Gate("h", (0,))
        Gate("z", (0, 1, 2))
        with pytest.raises(ValueError):
            Gate("h", (0, 1))
        with pytest.raises(ValueError):
            Gate("swap", (1, 1))
        with pytest.raises(ValueError):
            Gate("z", ())
        with pytest.raises(ValueError):
            Gate("cnot", (0, 1))

    def test_circuit_range_check(self):
        with pytest.raises(ValueError, match="touches qubit 2"):
            Circuit(2, (Gate("h", (2,)),))


class TestParse:
    def test_basic(self):
        c = parse("qubits 2\nh 0\ncz 0 1\n")
        assert c == Circuit(2, (Gate("h", (0,)), Gate("z", (0, 1))))

    def test_comments_and_whitespace(self):
        c = parse("  qubits   3 # three wires\n\n# nothing\n  z  0   2\n")
        assert c == Circuit(3, (Gate("z", (0, 2)),))

    def test_repeated_qubit(self):
        with pytest.raises(CircuitParseError, match="repeated qubit"):
            parse("qubits 1\nz 0 0\n")

    def test_out_of_range(self):
        with pytest.raises(CircuitParseError, match="out of range"):
            parse("qubits 2\nh 5\n")

    def test_missing_header(self):
        with pytest.raises(CircuitParseError, match="header"):
            parse("h 0\n")

    def test_unknown_mnemonic(self):
        with pytest.raises(CircuitParseError, match="mnemonic"):
            parse("qubits 1\nt 0\n")

    def test_error_carries_position(self):
        try:
            parse("qubits 2\nh zero\n")
        except CircuitParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected a parse error")

    def test_control_budget(self):
        with pytest.raises(CircuitParseError, match="maximum"):
            parse("qubits 4\nz 0 1 2 3\n")
        c = parse("qubits 4\nz 0 1 2 3\n", max_controls=3)
        assert c.gates[0].controls() == 3

    def test_qubit_cap(self):
        assert parse(f"qubits {MAX_QUBITS}\n").num_qubits == MAX_QUBITS
        with pytest.raises(CircuitParseError, match="maximum"):
            parse(f"qubits {MAX_QUBITS + 1}\n")
        with pytest.raises(CircuitParseError, match="maximum"):
            parse("qubits 3000000000\nh 0\n")

    def test_totality_on_junk(self):
        rng = random.Random(31)
        for _ in range(300):
            blob = "".join(chr(rng.randrange(1, 0x2FF)) for _ in range(rng.randrange(40)))
            try:
                parse(blob)
            except CircuitParseError:
                pass  # structured failure is the only acceptable outcome

    def test_round_trip_random(self):
        rng = random.Random(5)
        for i in range(100):
            n = rng.randint(1, 6)
            c = random_circuit(n, rng.randint(0, 20),
                               max_controls=min(2, n - 1), seed=i)
            assert parse(serialize(c)) == c

    @settings(max_examples=300, deadline=None)
    @given(circuits())
    def test_round_trip_property(self, c):
        assert parse(serialize(c)) == c

    def test_serialize_is_canonical(self):
        text = "qubits 2 # comment\n  CZ  0   1\n"
        c = parse(text)
        assert serialize(c) == "qubits 2\nz 0 1\n"
        assert serialize(parse(serialize(c))) == serialize(c)


class TestRandomCircuit:
    def test_reproducible(self):
        a = random_circuit(4, 30, seed=7)
        b = random_circuit(4, 30, seed=7)
        assert a == b
        assert a != random_circuit(4, 30, seed=8)

    def test_single_qubit_pool(self):
        c = random_circuit(1, 50, max_controls=0, seed=1)
        assert {g.kind for g in c.gates} <= {"h", "x", "z"}
        assert all(len(g.qubits) == 1 for g in c.gates)

    def test_validates_args(self):
        with pytest.raises(ValueError):
            random_circuit(0, 5)
        with pytest.raises(ValueError):
            random_circuit(2, 5, max_controls=2)


class TestVolume:
    def test_empty(self):
        v = volume(Circuit(3, ()))
        assert (v.gate_count, v.qubit_count, v.volume) == (0, 3, 0)

    def test_product(self):
        c = random_circuit(2, 5, max_controls=1, seed=0)
        assert volume(c).volume == 10


class TestHiddenShiftSpec:
    def test_validation(self):
        HiddenShiftSpec(n=4, shift=(0, 1, 1, 0))
        with pytest.raises(ValueError, match="even"):
            HiddenShiftSpec(n=3, shift=(0, 1, 1))
        with pytest.raises(ValueError, match="bit vector"):
            HiddenShiftSpec(n=4, shift=(0, 1))
        with pytest.raises(ValueError, match="1..3"):
            HiddenShiftSpec(n=12, shift=(0,) * 12,
                            g_monomials=frozenset({(0, 1, 2, 3)}))
        with pytest.raises(ValueError, match="out of range"):
            HiddenShiftSpec(n=4, shift=(0,) * 4, g_monomials=frozenset({(2,)}))
        with pytest.raises(ValueError, match="permutation"):
            HiddenShiftSpec(n=4, shift=(0,) * 4, pi=(0, 0))


class TestHiddenShiftCircuit:
    def test_two_qubit_instance(self):
        spec = HiddenShiftSpec(n=2, shift=(1, 0))
        c = hidden_shift_circuit(spec)
        vec = statevector_oracle(c, (0, 0))
        assert vec[bits_to_index((1, 0))].is_one()
        assert sum(1 for a in vec if not a.is_zero()) == 1

    def test_zero_shift_fixes_origin(self):
        c = hidden_shift_circuit(HiddenShiftSpec(n=2, shift=(0, 0)))
        vec = statevector_oracle(c, (0, 0))
        assert vec[0].is_one()

    def test_gate_count_bare_instance(self):
        # n=4, no g, zero shift: three H layers plus two coupling layers
        c = hidden_shift_circuit(HiddenShiftSpec(n=4, shift=(0,) * 4))
        assert len(c.gates) == 3 * 4 + 2 * 2

    def test_ccz_count_tracks_g(self):
        spec = HiddenShiftSpec(n=6, shift=(0,) * 6,
                               g_monomials=frozenset({(0, 1, 2)}))
        c = hidden_shift_circuit(spec)
        assert sum(1 for g in c.gates
                   if g.kind == "z" and len(g.qubits) == 3) == 2

    def test_oracle_confirms_output_state(self):
        # the generated circuit maps |0..0> to exactly |shift|, amplitude one
        rng = random.Random(17)
        for _ in range(40):
            n = rng.choice((2, 4, 6, 8, 10))
            spec = random_hidden_shift_spec(n, rng)
            c = hidden_shift_circuit(spec)
            vec = statevector_oracle(c, (0,) * n)
            idx = bits_to_index(spec.shift)
            assert vec[idx].is_one(), spec
            assert all(a.is_zero() for i, a in enumerate(vec) if i != idx), spec

    def test_nonidentity_permutation_wiring(self):
        spec = HiddenShiftSpec(n=6, shift=(1, 0, 1, 1, 0, 0),
                               g_monomials=frozenset({(0, 2), (1,)}),
                               pi=(2, 0, 1))
        c = hidden_shift_circuit(spec)
        vec = statevector_oracle(c, (0,) * 6)
        assert vec[bits_to_index(spec.shift)].is_one()
