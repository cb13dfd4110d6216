"""Command-line surface: subcommands, exit codes, output formats."""

import hashlib
import inspect
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pathsum
from pathsum.boolpoly import BoolPoly
from pathsum.circuit import parse, random_circuit, serialize
from pathsum.fuzz import random_path_sum_from_circuit
from pathsum.rewrite import (RewriteStep, Rule, apply, normalize, reduce,
                             seeded_random)
from pathsum.sums import EvalGuardError, as_bits, evaluate, interpret, to_dict

PYTHON = sys.executable
#: the child imports the same package as the tests, installed or not
SRC = os.path.dirname(os.path.dirname(pathsum.__file__))


def run(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([PYTHON, "-m", "pathsum", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture
def h_circuit(tmp_path):
    path = tmp_path / "h.pathsum"
    path.write_text("qubits 1\nh 0\n")
    return str(path)


@pytest.fixture
def deep_circuit(tmp_path):
    """Three qubits, (H on each, CCZ) twice, H on each: its amplitude at
    000 needs more than 2 summation variables after elimination."""
    lines = ["qubits 3"]
    for _ in range(2):
        lines += [f"h {q}" for q in range(3)] + ["z 0 1 2"]
    lines += [f"h {q}" for q in range(3)]
    path = tmp_path / "deep.pathsum"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def x_circuit(tmp_path):
    path = tmp_path / "x.pathsum"
    path.write_text("qubits 1\nx 0\n")
    return str(path)


class TestAmp:
    def test_hadamard(self, h_circuit):
        r = run("amp", "--circuit", h_circuit, "--in", "0", "--out", "0")
        assert r.returncode == 0
        assert "amplitude: 1 * 2^(-1/2)" in r.stdout
        assert "decimal: 0.707106781186548" in r.stdout

    def test_x_zero_amplitude(self, x_circuit):
        r = run("amp", "--circuit", x_circuit, "--in", "0", "--out", "0")
        assert r.returncode == 0
        assert "amplitude: 0" in r.stdout

    def test_json_matches_human(self, h_circuit):
        human = run("amp", "--circuit", h_circuit, "--in", "0", "--out", "1")
        machine = run("amp", "--circuit", h_circuit, "--in", "0", "--out", "1",
                      "--json")
        data = json.loads(machine.stdout)
        assert data["amplitude"] == {"num": 1, "half_exp": -1}
        assert f"decimal: {data['decimal']}" in human.stdout
        assert f"amplitude: {data['render']}" in human.stdout

    def test_malformed_file_exits_2(self, tmp_path):
        path = tmp_path / "bad.pathsum"
        path.write_text("qubits 1\nz 0 0\n")
        r = run("amp", "--circuit", str(path), "--in", "0", "--out", "0")
        assert r.returncode == 2
        assert "line 2" in r.stderr

    def test_width_mismatch_exits_2(self, h_circuit):
        r = run("amp", "--circuit", h_circuit, "--in", "00", "--out", "0")
        assert r.returncode == 2

    def test_guard_exits_3(self, deep_circuit):
        r = run("amp", "--circuit", deep_circuit, "--in", "000", "--out", "000",
                "--max-eval-vars", "2")
        assert r.returncode == 3
        # the error names the residual left after affine elimination
        assert r.stderr == (
            "error: evaluation guard: 6 summation variables exceed the limit "
            "of 2; dense evaluation would take 2^6 steps; refused sum: w = 0 "
            "wire variables, r = 6 phase-only variables, degree 3, 5 phase "
            "terms\n")

    def test_malformed_guard_flag_exits_2(self, h_circuit):
        r = run("amp", "--circuit", h_circuit, "--in", "0", "--out", "0",
                "--max-eval-vars", "lots")
        assert r.returncode == 2
        assert "--max-eval-vars" in r.stderr and "must be an integer" in r.stderr

    def test_negative_guard_flag_exits_2(self, h_circuit):
        r = run("amp", "--circuit", h_circuit, "--in", "0", "--out", "0",
                "--max-eval-vars", "-1")
        assert r.returncode == 2
        assert "--max-eval-vars" in r.stderr and "nonnegative" in r.stderr

    def test_negative_guard_in_process_returns_2(self, h_circuit):
        from pathsum.cli import main
        argv = ["amp", "--circuit", h_circuit, "--in", "0", "--out", "0"]
        assert main(argv + ["--max-eval-vars", "-1"]) == 2

    def test_env_var_guard(self, deep_circuit):
        # the flag is the guard's only setting: a guard of 2 trips on this
        # circuit, and PATHSUM_MAX_EVAL_VARS=2 changes nothing
        argv = ("amp", "--circuit", deep_circuit, "--in", "000", "--out", "000")
        assert run(*argv, "--max-eval-vars", "2").returncode == 3
        plain = run(*argv)
        r = run(*argv, env_extra={"PATHSUM_MAX_EVAL_VARS": "2"})
        assert plain.returncode == r.returncode == 0
        assert r.stdout == plain.stdout and r.stdout.startswith("amplitude: ")


class TestInProcess:
    def test_repeated_main_calls_keep_their_own_defaults(
            self, h_circuit, deep_circuit, capsys):
        # main builds its parser once per process; each call must still
        # get fresh defaults and exit on its own
        from pathsum.cli import _build_parser, main
        amp = ["amp", "--circuit", deep_circuit, "--in", "000", "--out", "000"]
        assert main(["measure", "--circuit", h_circuit, "--in", "0",
                     "--qubit", "0", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["probability"] == {"num": 1, "half_exp": -2}
        assert main(amp + ["--max-eval-vars", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "limit of 2;" in captured.err
        assert main(amp) == 0  # the default guard again
        assert capsys.readouterr().out.startswith("amplitude: ")  # no --json
        assert main(amp + ["--max-eval-vars", "-1"]) == 2
        assert "nonnegative" in capsys.readouterr().err
        assert _build_parser() is _build_parser()


#: sha256 of ``normalize --in 000000 --trace --json`` on the README's n = 6
#: instance, as printed before the CLI's renderers were shared
NORMALIZE_SHA256 = ("7f4529ac4438ba6f79731aa97b622ea7"
                    "7db6c11c89756ca9a54f0e19ffa55d68")


class TestPinnedOutput:
    def test_exact_results_and_normal_form(self, h_circuit, tmp_path, capsys):
        from pathsum.cli import main
        hs = str(tmp_path / "hs.pathsum")
        assert main(["hidden-shift-gen", "--n", "6", "--shift", "011010",
                     "--g", "0,1,2", "-o", hs]) == 0
        capsys.readouterr()

        def out(*argv, circuit=hs):
            assert main([*argv, "--circuit", circuit]) == 0
            return capsys.readouterr().out

        def exact(name, num, half_exp, render, decimal):
            return (f"{name}: {render}\ndecimal: {decimal}\n",
                    f'{{"{name}": {{"num": {num}, "half_exp": {half_exp}}}, '
                    f'"render": "{render}", "decimal": "{decimal}"}}\n')

        cases = [
            (("amp", "--in", "000000", "--out", "011010"), hs,
             exact("amplitude", 1, 0, "1", "1")),
            (("measure", "--in", "000000", "--qubit", "0"), hs,
             exact("probability", 0, 0, "0", "0")),
            (("measure", "--in", "000000", "--qubit", "1"), hs,
             exact("probability", 1, 0, "1", "1")),
            (("amp", "--in", "0", "--out", "1"), h_circuit,
             exact("amplitude", 1, -1, "1 * 2^(-1/2)", "0.707106781186548")),
            (("measure", "--in", "0", "--qubit", "0"), h_circuit,
             exact("probability", 1, -2, "1 * 2^(-1)", "0.5")),
        ]
        for argv, circuit, (human, machine) in cases:
            assert out(*argv, circuit=circuit) == human, argv
            assert out(*argv, "--json", circuit=circuit) == machine, argv
        argv = ("normalize", "--in", "000000", "--trace")
        machine = out(*argv, "--json")
        assert hashlib.sha256(machine.encode()).hexdigest() == NORMALIZE_SHA256
        pinned = json.loads(machine)
        assert len(pinned["trace"]) == 18
        assert out(*argv) == "".join(line + "\n" for line in pinned["trace"]) \
            + json.dumps(pinned["path_sum"]) + "\n"


class TestMeasure:
    def test_h_half(self, h_circuit):
        r = run("measure", "--circuit", h_circuit, "--in", "0", "--qubit", "0")
        assert r.returncode == 0
        assert "probability: 1 * 2^(-1)" in r.stdout
        assert "decimal: 0.5" in r.stdout

    def test_x_certain(self, x_circuit):
        r = run("measure", "--circuit", x_circuit, "--in", "0", "--qubit", "0")
        assert "probability: 1" in r.stdout

    def test_qubit_out_of_range_exits_2(self, h_circuit):
        r = run("measure", "--circuit", h_circuit, "--in", "0", "--qubit", "5")
        assert r.returncode == 2

    def test_byte_order_mark_and_form_feed_comment(self, tmp_path):
        # a leading UTF-8 byte-order mark is not text, and a form feed or
        # U+2028 in a comment ends no line: both files answer as the plain
        plain = tmp_path / "plain.pathsum"
        plain.write_text(serialize(random_circuit(4, 30, seed=3)))
        bom = tmp_path / "bom.pathsum"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        feed = tmp_path / "feed.pathsum"
        feed.write_text(plain.read_text().replace("\n", " # a\fb\u2028c\n", 2),
                        encoding="utf-8")
        argv = ("measure", "--in", "0110", "--qubit", "1")
        want = run(*argv, "--circuit", str(plain))
        assert want.returncode == 0 and want.stdout.startswith("probability: ")
        for path in (bom, feed):
            r = run(*argv, "--circuit", str(path))
            assert (r.returncode, r.stdout, r.stderr) == (0, want.stdout, ""), path


class TestHiddenShift:
    def test_gen_then_solve_round_trip(self, tmp_path):
        out = str(tmp_path / "hs.pathsum")
        r = run("hidden-shift-gen", "--n", "6", "--shift", "011010",
                "--g", "0,1,2;1", "-o", out, "--json")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["ccz"] == 2
        r2 = run("hidden-shift-solve", "--circuit", out)
        assert r2.returncode == 0
        assert "shift: 011010" in r2.stdout
        assert "rewrite steps:" in r2.stdout

    def test_gen_with_permutation(self, tmp_path):
        out = str(tmp_path / "hs.pathsum")
        r = run("hidden-shift-gen", "--n", "4", "--shift", "1100",
                "--pi", "1,0", "-o", out)
        assert r.returncode == 0
        r2 = run("hidden-shift-solve", "--circuit", out, "--json")
        assert json.loads(r2.stdout)["shift"] == "1100"

    def test_gen_ignores_guard_env_var(self, tmp_path):
        # no subcommand reads the variable; gen and normalize never
        # evaluate, so they have no guard
        out = tmp_path / "hs.pathsum"
        bad = {"PATHSUM_MAX_EVAL_VARS": "lots"}
        r = run("hidden-shift-gen", "--n", "4", "--shift", "0110",
                "-o", str(out), env_extra=bad)
        assert r.returncode == 0 and out.exists()
        nf = run("normalize", "--circuit", str(out), "--in", "0000")
        r = run("normalize", "--circuit", str(out), "--in", "0000",
                env_extra=bad)
        assert nf.returncode == r.returncode == 0 and r.stdout == nf.stdout
        r = run("normalize", "--circuit", str(out), "--max-eval-vars", "1")
        assert r.returncode == 2 and "--max-eval-vars" in r.stderr
        solved = run("hidden-shift-solve", "--circuit", str(out))
        r = run("hidden-shift-solve", "--circuit", str(out), env_extra=bad)
        assert solved.returncode == r.returncode == 0
        assert r.stdout == solved.stdout == "shift: 0110\nrewrite steps: 12\n"

    def test_shift_width_mismatch_exits_2(self, tmp_path):
        r = run("hidden-shift-gen", "--n", "4", "--shift", "110",
                "-o", str(tmp_path / "x"))
        assert r.returncode == 2

    def test_odd_n_exits_2(self, tmp_path):
        r = run("hidden-shift-gen", "--n", "3", "--shift", "110",
                "-o", str(tmp_path / "x"))
        assert r.returncode == 2

    def test_bad_monomial_exits_2(self, tmp_path):
        r = run("hidden-shift-gen", "--n", "8", "--shift", "0" * 8,
                "--g", "0,1,2,3", "-o", str(tmp_path / "x"))
        assert r.returncode == 2

    def test_non_permutation_exits_2(self, tmp_path):
        r = run("hidden-shift-gen", "--n", "4", "--shift", "0000",
                "--pi", "0,0", "-o", str(tmp_path / "x"))
        assert r.returncode == 2

    def test_solve_nondeterministic_exits_4(self, h_circuit):
        r = run("hidden-shift-solve", "--circuit", h_circuit)
        assert r.returncode == 4

    def test_gen_refuses_more_qubits_than_parse_accepts(self, tmp_path):
        out = tmp_path / "huge.pathsum"
        r = run("hidden-shift-gen", "--n", "4098", "--shift", "0" * 4098,
                "-o", str(out))
        assert r.returncode == 2
        assert "4098 qubits exceed the maximum of 4096" in r.stderr
        assert not out.exists()

    def test_oversized_header_exits_2(self, tmp_path):
        path = tmp_path / "huge.pathsum"
        path.write_text("qubits 3000000000\nh 0\n")
        r = run("hidden-shift-solve", "--circuit", str(path))
        assert r.returncode == 2
        assert "maximum" in r.stderr

    def test_sixteen_qubit_instance_with_eight_ccz(self, tmp_path):
        out = str(tmp_path / "big.pathsum")
        shift = "1011000111001010"
        r = run("hidden-shift-gen", "--n", "16", "--shift", shift,
                "--g", "0,1,2;1,2,3;4,5,6;5,6,7", "-o", out, "--json")
        assert json.loads(r.stdout)["ccz"] == 8
        r2 = run("hidden-shift-solve", "--circuit", out, "--json")
        assert r2.returncode == 0
        data = json.loads(r2.stdout)
        assert data["shift"] == shift
        # the state collapses, so only its own normalization takes steps
        from pathsum.circuit import parse
        from pathsum.sums import compose, interpret, ket
        circ = parse(Path(out).read_text())
        g = compose(interpret(circ), ket((0,) * 16))
        assert data["rewrite_steps"] <= g.num_vars


def parse_step(line: str) -> RewriteStep:
    """A ``--trace`` line back as the step it prints: ``ELIM x=i``,
    ``Z x=i`` or ``HH pivot=p target=t Q=q``, q a sum of ``1`` and ``xv``
    terms, or ``0``."""
    rule, *fields = line.split()
    values = dict(field.split("=", 1) for field in fields)
    if rule != "HH":
        return RewriteStep(Rule(rule), int(values["x"]))
    q = BoolPoly.zero()
    for term in values["Q"].split("+"):
        if term != "0":
            q = q + (BoolPoly.one() if term == "1" else BoolPoly.var(int(term[1:])))
    return RewriteStep(Rule.HH, int(values["pivot"]), int(values["target"]), q)


class TestNormalize:
    def test_reduces_hidden_shift_to_constants(self, tmp_path):
        out = str(tmp_path / "hs.pathsum")
        run("hidden-shift-gen", "--n", "4", "--shift", "0110", "-o", out)
        r = run("normalize", "--circuit", out, "--in", "0000")
        assert r.returncode == 0
        data = json.loads(r.stdout.strip().splitlines()[-1])
        assert data["num_vars"] == 0
        assert data["scalar"] == {"zero": False, "half_exp": 0}
        assert data["outputs"] == [[], [[]], [[]], []]  # 0,1,1,0

    def test_identity_shape(self, tmp_path):
        path = tmp_path / "id.pathsum"
        path.write_text("qubits 2\n")
        r = run("normalize", "--circuit", str(path))
        data = json.loads(r.stdout)
        assert data["num_vars"] == 2
        assert data["outputs"] == data["inputs"] == [[[0]], [[1]]]

    def test_trace_reproducible(self, tmp_path):
        out = str(tmp_path / "hs.pathsum")
        run("hidden-shift-gen", "--n", "4", "--shift", "1010", "-o", out)
        # the open unitary's direct interpretation has no redex; the
        # state on |0000> does, so the trace is non-empty
        r1 = run("normalize", "--circuit", out, "--in", "0000",
                 "--strategy", "random", "--seed", "5", "--trace", "--json")
        r2 = run("normalize", "--circuit", out, "--in", "0000",
                 "--strategy", "random", "--seed", "5", "--trace", "--json")
        assert r1.stdout == r2.stdout
        trace = json.loads(r1.stdout)["trace"]
        assert trace and all(
            line.split()[0] in ("ELIM", "Z", "HH") for line in trace)

    def test_trace_replays_through_apply(self, tmp_path, capsys):
        # each printed step, parsed back, applies to the sum the step
        # before it left; the last one leaves the printed normal form
        from pathsum.cli import main
        hs = tmp_path / "hs.pathsum"
        assert main(["hidden-shift-gen", "--n", "8", "--shift", "01101001",
                     "--g", "0,1,2", "-o", str(hs)]) == 0
        rc = tmp_path / "rc.pathsum"
        rc.write_text(serialize(random_circuit(4, 40, seed=3)))
        rules, shapes = set(), set()
        for circuit, x in ((hs, "00000000"), (rc, "0000")):
            for strategy in (("first",), ("random", "--seed", "5")):
                capsys.readouterr()
                assert main(["normalize", "--circuit", str(circuit), "--in", x,
                             "--trace", "--strategy", *strategy]) == 0
                *lines, last = capsys.readouterr().out.splitlines()
                cur = interpret(parse(circuit.read_text()), as_bits(x))
                for line in lines:
                    step = parse_step(line)
                    assert step.line() == line
                    cur = apply(cur, step)
                    rules.add(step.rule)
                    if step.rule is Rule.HH:
                        shapes.add(re.sub(r"x\d+", "x", str(step.substituent)))
                assert last == json.dumps(to_dict(cur)), (circuit, strategy)
        assert rules == {Rule.ELIM, Rule.HH}
        assert shapes == {"0", "1", "x", "x+1"}

    def test_help_states_input_and_seed(self):
        # --in builds the state on a basis input rather than composing a
        # ket, and --seed only drives the random strategy
        text = " ".join(run("normalize", "--help").stdout.split())
        assert "the state C|x> built on this basis input" in text
        assert "compose" not in text
        assert "ignored under --strategy first" in text


class TestCheckConfluence:
    def test_all_trials_pass(self):
        r = run("check-confluence", "--trials", "30", "--max-vars", "8",
                "--seed", "3", "--json")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["passes"] == 30 and data["failures"] == 0

    def test_cap_above_eight_exits_2(self):
        # 8 is the largest cap; a larger one is refused, not clamped
        r = run("check-confluence", "--trials", "5", "--max-vars", "9",
                "--seed", "3")
        assert r.returncode == 2 and r.stdout == ""
        assert "--max-vars" in r.stderr and "must be at most 8" in r.stderr

    def test_evaluation_fallback_passes(self):
        # at cap 0 every normal form with a variable is compared by
        # evaluation; the two normalizers' values must agree exactly
        r = run("check-confluence", "--trials", "50", "--max-vars", "0",
                "--seed", "1", "--json")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["eval_fallbacks"] > 0 and data["failures"] == 0
        assert data["passes"] == 50

    def test_reproducible(self):
        a = run("check-confluence", "--trials", "10", "--seed", "9", "--json")
        b = run("check-confluence", "--trials", "10", "--seed", "9", "--json")
        assert a.stdout == b.stdout

    def test_guard_trip_exits_3(self):
        r = run("check-confluence", "--trials", "20", "--max-vars", "1",
                "--max-eval-vars", "2", "--seed", "1")
        assert r.returncode == 3
        assert "evaluation guard" in r.stderr and "Traceback" not in r.stderr

    def test_fallback_refusal_names_the_residual(self):
        # the fallback's guard bounds each normal form's residual after
        # affine elimination, not the normal form; the first one refused
        # is found by replaying the fuzz draws, and its message is the
        # library's
        r = run("check-confluence", "--trials", "50", "--max-vars", "0",
                "--max-eval-vars", "2", "--seed", "20")
        assert r.returncode == 3 and r.stdout == ""
        rng = random.Random(20)
        for _ in range(50):
            a = random_path_sum_from_circuit(rng)
            det, _ = normalize(a)
            rnd, _ = normalize(a, seeded_random(rng.getrandbits(32)))
            if max(det.num_vars, rnd.num_vars) == 0:
                continue  # compared by simple equivalence
            try:
                evaluate(reduce(det), 2)
                evaluate(reduce(rnd), 2)
            except EvalGuardError as exc:
                assert r.stderr == f"error: {exc}\n"
                break
        else:
            pytest.fail("no residual exceeds the guard")

    def test_guard_env_var_and_help(self):
        # only --max-eval-vars sets the guard: the environment variable is
        # neither read nor named
        r = run("check-confluence", "--trials", "20", "--max-vars", "1",
                "--max-eval-vars", "2", "--seed", "1",
                env_extra={"PATHSUM_MAX_EVAL_VARS": "lots"})
        assert r.returncode == 3 and "evaluation guard" in r.stderr
        text = " ".join(run("check-confluence", "--help").stdout.split())
        assert "dense-evaluation guard (default: 24)" in text
        assert "PATHSUM" not in text

    def test_help_states_fuzz_size_and_cap(self):
        # the fuzz sums come from the generator's defaults; --max-vars
        # only caps the simple-equivalence check
        text = " ".join(run("check-confluence", "--help").stdout.split())
        params = inspect.signature(random_path_sum_from_circuit).parameters
        assert (f"at most {params['max_qubits'].default} qubits and "
                f"{params['max_gates'].default} gates") in text
        assert "cap of the simple-equivalence check" in text
        assert "does not size the fuzz sums" in text

    @pytest.mark.parametrize("flag", ["--trials", "--max-vars"])
    def test_negative_count_exits_2(self, flag):
        r = run("check-confluence", flag, "-3")
        assert r.returncode == 2
        assert flag in r.stderr and "nonnegative" in r.stderr

    def test_five_hundred_trials(self):
        r = run("check-confluence", "--trials", "500", "--max-vars", "8",
                "--seed", "1", "--json")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["passes"] == 500 and data["failures"] == 0


class TestIntegerOptions:
    """Integer options read an optional '-' and ASCII digits, as the
    circuit format does; '+', '_' and non-ASCII digits are input errors."""

    @pytest.mark.parametrize("value", ["1_0", "+1", "\u0661", "0x1", "-"])
    def test_refused(self, value, h_circuit, tmp_path, capsys):
        from pathsum.cli import main
        out = str(tmp_path / "hs.pathsum")
        for argv, flag in (
                (["measure", "--circuit", h_circuit, "--in", "0"], "--qubit"),
                (["amp", "--circuit", h_circuit, "--in", "0", "--out", "0"],
                 "--max-eval-vars"),
                (["hidden-shift-gen", "--shift", "01", "-o", out], "--n"),
                (["normalize", "--circuit", h_circuit], "--seed"),
                (["check-confluence"], "--seed"),
                (["check-confluence"], "--trials")):
            assert main(argv + [flag, value]) == 2, (argv, flag)
            err = capsys.readouterr().err
            assert f"{flag}: must be an integer, got {value!r}" in err
        assert not os.path.exists(out)

    def test_lists_refused(self, tmp_path, capsys):
        from pathsum.cli import main
        out = str(tmp_path / "hs.pathsum")
        gen = ["hidden-shift-gen", "--n", "4", "--shift", "0110", "-o", out]
        assert main(gen + ["--g", "0,\u0661"]) == 2
        assert "bad monomial" in capsys.readouterr().err
        assert main(gen + ["--pi", "+1,0"]) == 2
        assert "--pi must be" in capsys.readouterr().err
        assert not os.path.exists(out)
        assert main(gen + ["--g", "0, 1", "--pi", "1, 0"]) == 0

    def test_accepted(self, h_circuit, capsys):
        from pathsum.cli import main
        for value in ("0", "-0", "00", " 0"):
            assert main(["measure", "--circuit", h_circuit, "--in", "0",
                         "--qubit", value, "--json"]) == 0, value
            assert json.loads(capsys.readouterr().out)["probability"] == {
                "num": 1, "half_exp": -2}
