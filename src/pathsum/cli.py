"""Command-line interface.

Exit codes: 0 success, 2 input error, 3 evaluation-guard trip, 4
non-deterministic instance, 5 confluence failure.  Exact values are the
primary output; decimals are 15-significant-digit renderings and never
feed any decision.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import fuzz
from .circuit import (CircuitParseError, HiddenShiftSpec, _integer,
                      hidden_shift_circuit, parse, serialize)
from .rewrite import DETERMINISTIC_FIRST, normalize, seeded_random, simply_equivalent
from .sim import NonDeterministicOutcomeError, measure_sim, recover_shift, strong_sim
# compose is not called here, but stays a module global: the benchmark's
# tracer (perfbench/tracer.py) wraps every name it looks up in this module
from .sums import (DEFAULT_MAX_EVAL_VARS, EvalGuardError, compose,  # noqa: F401
                   evaluate, interpret, to_dict)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_NONDETERMINISTIC = 4
EXIT_CONFLUENCE = 5


def _int_option(text: str) -> int:
    """An integer option value, read as the circuit format reads one
    (``circuit._integer``), blanks around it aside."""
    try:
        return _integer(text.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}") from None


def _nonnegative(text: str) -> int:
    """A count or guard option value: a nonnegative integer."""
    value = _int_option(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _equivalence_cap(text: str) -> int:
    """A --max-vars value: a nonnegative integer of at most 8."""
    value = _nonnegative(text)
    if value > 8:
        raise argparse.ArgumentTypeError(f"must be at most 8, got {value}")
    return value


def _read_circuit(path: str):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    try:
        return parse(text)
    except CircuitParseError as exc:
        _fail(f"{path}: {exc}")


def _fail(message: str, code: int = EXIT_INPUT):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _bits(text: str, width: int, what: str) -> tuple[int, ...]:
    if len(text) != width or any(c not in "01" for c in text):
        _fail(f"{what} must be a bit string of width {width}, got {text!r}")
    return tuple(int(c) for c in text)


def _emit(args, human_lines: list[str], payload: dict):
    if args.json:
        print(json.dumps(payload))
    else:
        for line in human_lines:
            print(line)


def _emit_exact(args, name: str, value) -> None:
    """An exact result (an ``Amplitude``): its value and decimal lines, or
    one JSON object with the value under ``name``."""
    _emit(args,
          [f"{name}: {value.render()}", f"decimal: {value.decimal()}"],
          {name: {"num": value.num, "half_exp": value.half_exp},
           "render": value.render(), "decimal": value.decimal()})


# ---------------------------------------------------------------------------
# subcommands

def cmd_amp(args) -> int:
    circ = _read_circuit(args.circuit)
    x = _bits(args.in_bits, circ.num_qubits, "--in")
    y = _bits(args.out_bits, circ.num_qubits, "--out")
    _emit_exact(args, "amplitude",
                strong_sim(circ, x, y, max_eval_vars=args.max_eval_vars))
    return EXIT_OK


def cmd_measure(args) -> int:
    circ = _read_circuit(args.circuit)
    x = _bits(args.in_bits, circ.num_qubits, "--in")
    if not 0 <= args.qubit < circ.num_qubits:
        _fail(f"--qubit {args.qubit} out of range for {circ.num_qubits} qubits")
    _emit_exact(args, "probability",
                measure_sim(circ, x, args.qubit, max_eval_vars=args.max_eval_vars))
    return EXIT_OK


def _parse_g_spec(text: str):
    monomials = set()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            idx = tuple(sorted(_integer(t.strip()) for t in chunk.split(",")))
        except ValueError:
            _fail(f"bad monomial {chunk!r} in --g (expected e.g. 0,1,2)")
        monomials.add(idx)
    return frozenset(monomials)


def cmd_hidden_shift_gen(args) -> int:
    if args.n < 2 or args.n % 2:
        _fail(f"--n must be even and at least 2, got {args.n}")
    shift = _bits(args.shift, args.n, "--shift")
    monomials = _parse_g_spec(args.g)
    pi = None
    if args.pi is not None:
        try:
            pi = tuple(_integer(t.strip()) for t in args.pi.split(","))
        except ValueError:
            _fail(f"--pi must be a comma-separated permutation, got {args.pi!r}")
    try:
        spec = HiddenShiftSpec(n=args.n, g_monomials=monomials, shift=shift, pi=pi)
    except ValueError as exc:
        _fail(str(exc))
    circ = hidden_shift_circuit(spec)
    text = serialize(circ)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(f"cannot write {args.output}: {exc}")
    ccz = sum(1 for g in circ.gates if g.kind == "z" and len(g.qubits) == 3)
    _emit(args,
          [f"wrote: {args.output}", f"gates: {len(circ.gates)}", f"ccz: {ccz}"],
          {"file": args.output, "gates": len(circ.gates), "ccz": ccz})
    return EXIT_OK


def cmd_hidden_shift_solve(args) -> int:
    circ = _read_circuit(args.circuit)
    result = recover_shift(circ, max_eval_vars=args.max_eval_vars)
    _emit(args,
          [f"shift: {result.shift_string()}",
           f"rewrite steps: {result.rewrite_steps_total}"],
          {"shift": result.shift_string(),
           "rewrite_steps": result.rewrite_steps_total})
    return EXIT_OK


def cmd_normalize(args) -> int:
    circ = _read_circuit(args.circuit)
    x = None
    if args.in_bits is not None:
        x = _bits(args.in_bits, circ.num_qubits, "--in")
    s = interpret(circ, x)
    strategy = (DETERMINISTIC_FIRST if args.strategy == "first"
                else seeded_random(args.seed))
    nf, trace = normalize(s, strategy)
    lines = [step.line() for step in trace] if args.trace else []
    payload = {"path_sum": to_dict(nf)}
    if args.trace:
        payload["trace"] = lines
    _emit(args, lines + [json.dumps(payload["path_sum"])], payload)
    return EXIT_OK


def cmd_check_confluence(args) -> int:
    rng = random.Random(args.seed)
    passes = failures = eval_fallbacks = 0
    for trial in range(args.trials):
        a = fuzz.random_path_sum_from_circuit(rng)
        det, _ = normalize(a, DETERMINISTIC_FIRST)
        rnd, _ = normalize(a, seeded_random(rng.getrandbits(32)))
        if det.num_vars <= args.max_vars and rnd.num_vars <= args.max_vars:
            ok = simply_equivalent(det, rnd, var_cap=args.max_vars)
        else:
            eval_fallbacks += 1
            ok = (evaluate(det, args.max_eval_vars)
                  == evaluate(rnd, args.max_eval_vars))
        if ok:
            passes += 1
        else:
            failures += 1
            print(f"trial {trial}: normal forms disagree", file=sys.stderr)
    _emit(args,
          [f"trials: {args.trials}", f"passes: {passes}",
           f"failures: {failures}", f"eval fallbacks: {eval_fallbacks}"],
          {"trials": args.trials, "passes": passes, "failures": failures,
           "eval_fallbacks": eval_fallbacks})
    return EXIT_CONFLUENCE if failures else EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pathsum",
        description="Exact sum-over-paths simulation of Toffoli-Hadamard circuits")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, circuit=True, guard=True):
        if circuit:
            p.add_argument("--circuit", required=True, help="circuit text file")
        p.add_argument("--json", action="store_true", help="emit JSON")
        if guard:
            p.add_argument("--max-eval-vars", type=_nonnegative,
                           default=DEFAULT_MAX_EVAL_VARS, dest="max_eval_vars",
                           help=f"dense-evaluation guard (default: "
                                f"{DEFAULT_MAX_EVAL_VARS})")

    p = sub.add_parser("amp", help="exact amplitude <out|C|in>")
    common(p)
    p.add_argument("--in", required=True, dest="in_bits", metavar="BITS")
    p.add_argument("--out", required=True, dest="out_bits", metavar="BITS")
    p.set_defaults(func=cmd_amp)

    p = sub.add_parser("measure", help="exact Pr[qubit i = 1]")
    common(p)
    p.add_argument("--in", required=True, dest="in_bits", metavar="BITS")
    p.add_argument("--qubit", required=True, type=_int_option)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("hidden-shift-gen", help="write a hidden-shift instance")
    p.add_argument("--n", required=True, type=_int_option, help="even qubit count")
    p.add_argument("--shift", required=True, metavar="BITS")
    p.add_argument("--g", default="", metavar="SPEC",
                   help="semicolon-separated monomials of second-half indices, "
                        "e.g. '0,1,2;3'")
    p.add_argument("--pi", default=None, metavar="PERM",
                   help="comma-separated permutation of 0..n/2-1")
    p.add_argument("-o", "--output", required=True, help="output circuit file")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_hidden_shift_gen)

    p = sub.add_parser("hidden-shift-solve", help="recover the shift classically")
    common(p)
    p.set_defaults(func=cmd_hidden_shift_solve)

    p = sub.add_parser("normalize", help="normal form of the circuit's path sum")
    common(p, guard=False)  # normalize never evaluates
    p.add_argument("--in", default=None, dest="in_bits", metavar="BITS",
                   help="normalize the state C|x> built on this basis input "
                        "(no input wires) instead of the operator C")
    p.add_argument("--strategy", choices=("first", "random"), default="first")
    p.add_argument("--seed", type=_int_option, default=0,
                   help="seed of --strategy random (default: 0); "
                        "ignored under --strategy first")
    p.add_argument("--trace", action="store_true", help="print the step trace")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("check-confluence",
                       help="fuzz normal-form uniqueness up to simple equivalence")
    p.add_argument("--trials", type=_nonnegative, default=100,
                   help="fuzz sums to normalize both ways (default: 100); each "
                        "folds a random circuit of at most 3 qubits and 6 gates")
    p.add_argument("--max-vars", type=_equivalence_cap, default=8, dest="max_vars",
                   help="variable cap of the simple-equivalence check (default "
                        "and largest: 8); larger normal forms are compared by "
                        "evaluation.  It does not size the fuzz sums")
    p.add_argument("--seed", type=_int_option, default=0, help="fuzz seed (default: 0)")
    common(p, circuit=False)
    p.set_defaults(func=cmd_check_confluence)

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    except (EvalGuardError, NonDeterministicOutcomeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_GUARD if isinstance(exc, EvalGuardError)
                else EXIT_NONDETERMINISTIC)
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
