"""Circuit IR, text format, and the hidden-shift generator."""

import inspect
import random

import pytest
from hypothesis import given, settings

from pathsum import fuzz
from pathsum.circuit import (MAX_QUBITS, Circuit, CircuitParseError, Gate,
                             HiddenShiftSpec, hidden_shift_circuit, parse,
                             random_circuit, serialize)
from pathsum.oracle import statevector_oracle
from pathsum.sim import _light_cone
from support import (assert_checked_build, bits_to_index, circuit_texts,
                     circuits, parse_outcome, random_hidden_shift_spec,
                     reference_parse)


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

    @pytest.mark.parametrize("gate", [("h", (0,)), "h 0", None])
    def test_circuit_elements_are_gates(self, gate):
        # the element itself is checked, not only the qubits it holds
        with pytest.raises(ValueError, match="is not a Gate"):
            Circuit(2, [gate])

    @pytest.mark.parametrize("qubits", [(1.0,), (True,), (0, 1.0), (0, False)])
    def test_indices_are_ints(self, qubits):
        # 1.0 or True would pass every range check and serialize as
        # 'h 1.0' or 'h True', which parse refuses
        with pytest.raises(ValueError, match="qubit index .* is not an int"):
            Gate("z", qubits)

    def test_count_is_an_int(self):
        with pytest.raises(ValueError, match="qubit count 2.0 is not an int"):
            Circuit(2.0, ())


class TestParse:
    def test_basic(self):
        c = parse("qubits 2\nh 0\ncz 0 1\n")
        assert c == Circuit(2, (Gate("h", (0,)), Gate("z", (0, 1))))

    def test_comments_and_whitespace(self):
        c = parse("  qubits   3 # three wires\n\n# nothing\n  z  0   2\n")
        assert c == Circuit(3, (Gate("z", (0, 2)),))

    def test_comments_may_hold_any_character(self):
        # '+', '_' and non-ASCII text outside the integers change nothing
        c = parse("qubits 2 # n_2, \u00e9\nh 1\ncz 0 1 # +1\nh -0\n")
        assert c == Circuit(2, (Gate("h", (1,)), Gate("z", (0, 1)),
                                Gate("h", (0,))))

    @pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"])
    def test_only_newlines_end_lines(self, brk):
        # str.splitlines also ends a line at these characters, open() does
        # not: in a comment they are comment text, elsewhere whitespace
        want = Circuit(2, (Gate("h", (0,)), Gate("h", (1,))))
        assert parse(f"qubits 2\nh 0 # a{brk}b\nh 1\n") == want
        assert parse(f"qubits 2\n{brk}h{brk}0{brk}\nh 1\n") == want

    def test_carriage_returns_end_lines(self):
        # as open()'s universal newlines end them, so file and API agree
        want = parse("qubits 2\nh 0\n\nh 1\n")
        assert parse("qubits 2\r\nh 0\r\n\r\nh 1\r\n") == want
        assert parse("qubits 2\rh 0\r\rh 1\r") == want
        assert parse("qubits 2\r\nh 0\r\rh 1\n") == want

    def test_byte_order_mark_is_skipped(self):
        # one leading U+FEFF, as the CLI's utf-8-sig reading drops it
        assert parse("\ufeffqubits 1\nh 0\n") == parse("qubits 1\nh 0\n")
        with pytest.raises(CircuitParseError) as err:
            parse("\ufeffqubits 2\n  h 2\n")
        assert str(err.value) == "line 2, column 3: qubit 2 out of range for 2 qubits"
        with pytest.raises(CircuitParseError) as err:  # a second is text
            parse("\ufeff\ufeffqubits 1\n")
        assert str(err.value) == "line 1, column 1: expected 'qubits N' header"

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

    @pytest.mark.parametrize("text, message", [
        ("\n  h 0\n", "line 2, column 3: expected 'qubits N' header"),
        ("# c\n qubits\n", "line 2, column 2: 'qubits' takes one count"),
        ("qubits 2 3\n", "line 1, column 1: 'qubits' takes one count"),
        ("qubits  -1\n", "line 1, column 1: negative qubit count"),
        ("  qubits 4097\n",
         "line 1, column 3: 4097 qubits exceed the maximum of 4096"),
        ("qubits x2\n", "line 1, column 8: expected an integer, got 'x2'"),
        ("qubits 3\n\n   cz 0\n", "line 3, column 4: cz takes 2 qubits, got 1"),
        ("qubits 3\n CCZ 0 1\n", "line 2, column 2: ccz takes 3 qubits, got 2"),
        ("qubits 3\n  t 0\n", "line 2, column 3: unknown gate mnemonic 't'"),
        ("qubits 3\nh  0x1\n", "line 2, column 4: expected an integer, got '0x1'"),
        ("qubits 3\n z 0 1 bad # note\n",
         "line 2, column 8: expected an integer, got 'bad'"),
        ("qubits 4\n\tz 0 1 2 3\n", "line 2, column 2: z on 4 qubits exceeds "
         "the maximum of 2 controls"),
        ("qubits 3\nswap 1\n", "line 2, column 1: swap takes two qubits, got 1"),
        ("qubits 3\n  z 2 2\n", "line 2, column 3: repeated qubit in z (2, 2)"),
        ("qubits 3\nx -1\n", "line 2, column 1: negative qubit index"),
        ("qubits 3\nh 0\n   swap 0 7\n",
         "line 3, column 4: qubit 7 out of range for 3 qubits"),
        ("qubits 3\n  z 1 5 9\n",
         "line 2, column 3: qubit 5 out of range for 3 qubits"),
        ("", "line 1, column 1: empty input: missing 'qubits N' header"),
        # integers are an optional '-' and ASCII digits, nothing else
        ("qubits 12\nh 1_0\n", "line 2, column 3: expected an integer, got '1_0'"),
        ("qubits 3\n cz 0 +1\n", "line 2, column 7: expected an integer, got '+1'"),
        ("qubits \u0663\n", "line 1, column 8: expected an integer, got '\u0663'"),
        ("qubits 3\nh \uff11 # wide\n",
         "line 2, column 3: expected an integer, got '\uff11'"),
        ("qubits 3 # \u00e9\nx -1\n", "line 2, column 1: negative qubit index"),
        ("qubits 3\nh 0 # a_b\nz 0 - 1\n",
         "line 3, column 5: expected an integer, got '-'"),
        # a bad integer is placed at its own token, not at an earlier match
        ("qubits 3\nswap 0 s\n", "line 2, column 8: expected an integer, got 's'"),
        ("qubits 3\nz 0 z\n", "line 2, column 5: expected an integer, got 'z'"),
        # only newlines end lines: a form feed or U+2028 separates tokens
        ("qubits 2\nh 0\fh 1\n", "line 2, column 5: expected an integer, got 'h'"),
        ("qubits 2\nh 0\u2028h 1\n",
         "line 2, column 5: expected an integer, got 'h'"),
        ("qubits 2\nh 0 # a\fb\nt 1\n",
         "line 3, column 1: unknown gate mnemonic 't'"),
        ("qubits 2\nh 0 # a\u2028b\nt 1\n",
         "line 3, column 1: unknown gate mnemonic 't'"),
        ("qubits 2\r\nh 0\rt 1\n", "line 3, column 1: unknown gate mnemonic 't'"),
    ])
    def test_error_messages_and_positions(self, text, message):
        # every check keeps its message, line and column; the column is
        # the line's first token, or the token that is not an integer
        with pytest.raises(CircuitParseError) as err:
            parse(text)
        assert str(err.value) == message
        line, column = message.split(":")[0].split(", ")
        assert err.value.line == int(line.split()[1])
        assert err.value.column == int(column.split()[1])

    def test_control_budget(self):
        # file input takes at most two controls, and no argument lifts that
        assert list(inspect.signature(parse).parameters) == ["text"]
        with pytest.raises(CircuitParseError, match="maximum of 2 controls"):
            parse("qubits 4\nz 0 1 2 3\n")
        assert parse("qubits 4\nz 0 1 2\n").gates == (Gate("z", (0, 1, 2)),)

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

    def test_repeated_header_is_not_a_gate(self):
        # the header line is never stored as a parsed gate line
        with pytest.raises(CircuitParseError) as err:
            parse("qubits 2\nqubits 2\n")
        assert str(err.value) == "line 2, column 1: unknown gate mnemonic 'qubits'"

    @pytest.mark.parametrize("text, message", [
        ("qubits 3\n  t 0\nh 0\n  t 0\n",
         "line 2, column 3: unknown gate mnemonic 't'"),
        ("qubits 3\nh 1\n swap 0 7\nh 1\n swap 0 7\n",
         "line 3, column 2: qubit 7 out of range for 3 qubits"),
        ("qubits 3\nz 0 1\n\tz 0 x\nz 0 1\n\tz 0 x\n",
         "line 3, column 6: expected an integer, got 'x'"),
    ])
    def test_bad_repeated_line_reports_first(self, text, message):
        with pytest.raises(CircuitParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_repeated_lines_share_gates(self):
        # a repeat of a line shares its Gate; the same gate written with a
        # comment or other whitespace is parsed on its own, to an equal one
        text = ("qubits 3\nh 0\ncz 0 2\nh 0\nh 0 # again\n  h\t0\ncz 0 2\n"
                "cz  0 2  \nh 0\n")
        c = parse(text)
        assert c == parse("qubits 3\nh 0\ncz 0 2\nh 0\nh 0\nh 0\ncz 0 2\n"
                          "cz 0 2\nh 0\n")
        g = c.gates
        assert g[0] is g[2] is g[7] and g[1] is g[5]
        assert g[3] == g[4] == g[0] and g[6] == g[1]


class TestParseAgainstReference:
    """``parse`` reads a canonical line by lookup and every other line
    with each check in turn; the reference takes every check on every
    line.  Both give an equal circuit or the same error."""

    @staticmethod
    def agree(text):
        got = parse_outcome(parse, text)
        assert got == parse_outcome(reference_parse, text), text
        assert parse_outcome(parse, "\ufeff" + text) == got
        if isinstance(got, Circuit):
            assert_checked_build(got)

    @settings(max_examples=400, deadline=None)
    @given(circuit_texts())
    def test_mutated_serializations(self, text):
        self.agree(text)

    @pytest.mark.parametrize("text", [
        "qubits 3\nH 0\nCz 0 1\nCCZ 0 1 2\nSWAP 1 2\nX 2\nZ 1\n",
        "qubits 3\ncz 0 1\nccz 2 0 1\ncz 0 1 2\nccz 0 1\n",
        "qubits 8\nh 007\nz -0 1\nx 1\n",
        "qubits 3\nx +1\n",
        "qubits 12\nh 1_0\n",
        "qubits 3\nh 3\n",
        "qubits 3\nswap 0 0\n",
        "qubits 3\nccz 0 1 0\n",
        "qubits 3\nz 0 -1\n",
        "qubits 3\n\tz\t0\t1 # CZ\r\nh 2\r\n# done\r\n",
        "qubits 4\nz 0 1 2 3\n",
        "qubits 3\nh \u0661\n",
        "qubits 3\nh 1\nh\n",
        "qubits 3\nh 0 1\n",
        "qubits 007\nh 6\n",
        "QUBITS 2\nh 1\nh 1\n",
        "qubits 0\nh 0\n",
        "h 0\nqubits 1\n",
        "qubits 2\nqubits 2\n",
        "qubits 2\nh 0#\nh 0 #\nh  0\nh 0\n",
    ])
    def test_fixed_cases(self, text):
        self.agree(text)


class TestUncheckedBuilders:
    """The builders that skip the constructors' checks build what the
    constructors accept, with int qubits in tuples."""

    def test_parse_benchmark_style_files(self):
        rng = random.Random(3)
        texts = [serialize(random_circuit(n, depth, seed=seed))
                 for n, depth, seeds in ((12, 200, (101, 102)), (16, 300, (9,)))
                 for seed in seeds]
        texts += [serialize(hidden_shift_circuit(random_hidden_shift_spec(n, rng)))
                  for n in (32, 16)]
        for text in texts:
            assert_checked_build(parse(text))

    def test_light_cone(self):
        for n, depth, seed in ((12, 200, 101), (16, 300, 9), (3, 20, 4)):
            c = random_circuit(n, depth, seed=seed)
            for q in range(n):
                assert_checked_build(_light_cone(c, q))

    def test_random_circuit(self):
        for seed in range(30):
            n = 1 + seed % 6
            assert_checked_build(random_circuit(n, 40, max_controls=min(2, n - 1),
                                                seed=seed))

    def test_hidden_shift_circuit(self):
        rng = random.Random(8)
        for n in (2, 4, 6, 10, 16, 32):
            assert_checked_build(hidden_shift_circuit(random_hidden_shift_spec(n, rng)))

    def test_fuzz_circuit(self, monkeypatch):
        built = []

        def interpret(circuit):
            built.append(circuit)
            return real(circuit)

        real = fuzz.interpret
        monkeypatch.setattr(fuzz, "interpret", interpret)
        rng = random.Random(5)
        for _ in range(50):
            fuzz.random_path_sum_from_circuit(rng, 4, 8)
        assert len(built) == 50
        for circuit in built:
            assert_checked_build(circuit)


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
        with pytest.raises(ValueError, match="qubit count True is not an int"):
            random_circuit(True, 5, max_controls=0)

    def test_qubit_cap(self):
        # parse refuses a header above MAX_QUBITS, so the generator does too
        with pytest.raises(ValueError,
                           match=f"{MAX_QUBITS + 1} qubits exceed the maximum"):
            random_circuit(MAX_QUBITS + 1, 2)
        c = random_circuit(MAX_QUBITS, 2, seed=3)
        assert parse(serialize(c)) == c


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
        HiddenShiftSpec(n=MAX_QUBITS, shift=(0,) * MAX_QUBITS)
        with pytest.raises(ValueError, match="4098 qubits exceed the maximum"):
            HiddenShiftSpec(n=MAX_QUBITS + 2, shift=(0,) * (MAX_QUBITS + 2))

    def test_indices_are_ints(self):
        # a float index would fail inside hidden_shift_circuit, and a bool
        # would be written into the circuit as True
        shift = (1, 0, 0, 1)
        with pytest.raises(ValueError, match="pi index 1.0 is not an int"):
            HiddenShiftSpec(n=4, shift=shift, pi=(1.0, 0))
        with pytest.raises(ValueError, match="pi index True is not an int"):
            HiddenShiftSpec(n=4, shift=shift, pi=(True, False))
        with pytest.raises(ValueError, match="monomial index 1.0 is not an int"):
            HiddenShiftSpec(n=4, shift=shift, g_monomials=frozenset({(0, 1.0)}))
        with pytest.raises(ValueError, match="monomial index True is not an int"):
            HiddenShiftSpec(n=4, shift=shift, g_monomials=frozenset({(True,)}))
        with pytest.raises(ValueError, match="qubit count 4.0 is not an int"):
            HiddenShiftSpec(n=4.0, shift=shift)


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
