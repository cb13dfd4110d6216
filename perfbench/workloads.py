"""Benchmark inputs: what each workload asks the CLI, and the exact answer.

Every workload is a fixed *round* of CLI calls drawn from the workload
seed.  Both the timed and the traced loop repeat whole rounds, so every
run does the same mix of work and per-round counts are exact integers.  The program only
sees the circuit files written here and the argv of each call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

OK, REFUSED, FAILED = "ok", "refused", "failed"

#: exit code of the CLI when dense evaluation is refused by the guard
EXIT_GUARD = 3

HS_SMALL_N = 16
#: default size of the large hidden-shift instance; an n = 64 solve takes
#: about 44 s on a 2.1 GHz Xeon under CPython 3.11, longer than a run, so
#: it is measured on demand with ``--hs-large 64``
HS_LARGE_N = 32
HS_CUBIC_MONOMIALS = 4

MEASURE_GUARD = 20
#: keeps 56 variables after normalization, so the guard refuses it
GUARD_PIN = (16, 300, 9, "0" * 16, 0)
#: keeps 17 variables and a 38-term phase: a real dense evaluation
EVAL_PIN = (16, 300, 12, "0111100110110000", 6)
#: (circuit seed, input, qubit) queries screened to stay under the guard,
#: so every round has the same mix: one refusal, the rest answered.
#: Residual variables after normalization are noted for the n = 12
#: queries; the n = 16 ones all keep none.
POOL12 = (
    (100, "011000010000", 5),   # 4
    (100, "000001101010", 11),  # 0
    (101, "000000000111", 9),   # 0
    (101, "010011111011", 2),   # 11
    (102, "101010000001", 7),   # 0
    (102, "010001011001", 1),   # 4
    (103, "001110010101", 3),   # 0
    (103, "011011001001", 11),  # 0
    (104, "000111011000", 11),  # 0
    (104, "101110110010", 2),   # 0
    (105, "100111100000", 4),   # 4
    (105, "100000010110", 8),   # 0
    (106, "011011010110", 4),   # 0
    (106, "010000110110", 8),   # 0
    (107, "011101000101", 3),   # 6
    (107, "100100010100", 0),   # 0
    (108, "100100010000", 8),   # 10
    (108, "010000010111", 11),  # 0
    (109, "110111100101", 0),   # 0
    (109, "111111101100", 1),   # 4
    (110, "011001110011", 3),   # 0
    (110, "001011001000", 5),   # 0
    (111, "001111010110", 2),   # 0
    (111, "101110011001", 1),   # 0
)
POOL16 = (                          # one circuit, so one interpret cost
    (204, "1110011011101001", 10),
    (204, "1111110110100011", 11),
    (204, "1111000101010010", 2),
    (204, "0110010000110001", 11),
    (204, "0010001101000010", 15),
    (204, "1111000010010000", 0),
    (204, "1110001111100100", 11),
    (204, "1010001001100110", 3),
)

CONFLUENCE_CALLS = 40
CONFLUENCE_TRIALS = 50
CONFLUENCE_MAX_VARS = 8


@dataclass
class Op:
    """One CLI call and the answer it must give."""

    kind: str                  # size class the timing is reported under
    argv: list[str]
    expect: object = None      # exact answer; filled by references() if None
    units: int = 1             # work completed by one correct answer
    ref: tuple | None = None   # (circuit, bits, qubit) for the oracle


def _bits(rng: random.Random, n: int) -> str:
    return "".join(str(rng.randrange(2)) for _ in range(n))


def _hidden_shift_spec(ps, rng: random.Random, n: int):
    half = n // 2
    monos: set[tuple[int, ...]] = set()
    while len(monos) < HS_CUBIC_MONOMIALS:
        monos.add(tuple(sorted(rng.sample(range(half), 3))))
    perm = list(range(half))
    rng.shuffle(perm)
    # a fixed Hamming weight fixes the gate count, so instances of one
    # size cost the same whatever the seed
    ones = set(rng.sample(range(n), n // 2))
    shift = tuple(int(q in ones) for q in range(n))
    return ps.HiddenShiftSpec(n=n, g_monomials=frozenset(monos),
                              shift=shift, pi=tuple(perm))


def hidden_shift(ps, seed: int, workdir: Path, large_n: int) -> list[Op]:
    """Two large and four small Maiorana-McFarland instances per round."""
    rng = random.Random(seed)
    ops = []
    for i, n in enumerate((large_n, HS_SMALL_N, HS_SMALL_N) * 2):
        spec = _hidden_shift_spec(ps, rng, n)
        path = workdir / f"hs{i}_n{n}.txt"
        path.write_text(ps.serialize(ps.hidden_shift_circuit(spec)))
        ops.append(Op(f"n{n}", ["hidden-shift-solve", "--circuit", str(path),
                                "--json"],
                      expect="".join(map(str, spec.shift))))
    return ops


def random_measure(ps, seed: int, workdir: Path, large_n: int) -> list[Op]:
    """Two n = 12 queries per n = 16 query; two of the n = 16 are pinned."""
    rng = random.Random(seed)
    q12 = [(12, 200, *q) for q in rng.sample(POOL12, 6)]
    q16 = (16, 300, *rng.choice(POOL16))
    queries = [GUARD_PIN, *q12[:2], EVAL_PIN, *q12[2:4], q16, *q12[4:]]
    circuits = {}
    ops = []
    for n, depth, cseed, bits, qubit in queries:
        path = workdir / f"rc_n{n}_d{depth}_s{cseed}.txt"
        if path not in circuits:
            circuits[path] = ps.random_circuit(n, depth, seed=cseed)
            path.write_text(ps.serialize(circuits[path]))
        ops.append(Op(f"n{n}", ["measure", "--circuit", str(path),
                                "--in", bits, "--qubit", str(qubit),
                                "--max-eval-vars", str(MEASURE_GUARD), "--json"],
                      ref=(circuits[path], bits, qubit)))
    return ops


def confluence(ps, seed: int, workdir: Path, large_n: int) -> list[Op]:
    """Fuzz calls of a fixed trial count, each with its own fuzz seed."""
    rng = random.Random(seed)
    return [Op("trials", ["check-confluence", "--trials", str(CONFLUENCE_TRIALS),
                          "--max-vars", str(CONFLUENCE_MAX_VARS),
                          "--seed", str(rng.getrandbits(31)), "--json"],
               expect=CONFLUENCE_TRIALS, units=CONFLUENCE_TRIALS)
            for _ in range(CONFLUENCE_CALLS)]


WORKLOADS = {
    "hidden-shift": hidden_shift,
    "random-measure": random_measure,
    "confluence": confluence,
}


def references(ps, ops: list[Op]) -> None:
    """Oracle probabilities for measure queries, one statevector per input."""
    states = {}
    for op in ops:
        if op.ref is None:
            continue
        circ, bits, qubit = op.ref
        key = (id(circ), bits)
        if key not in states:
            states[key] = ps.statevector_oracle(circ, bits, max_qubits=16)
        amp = ps.marginal_one(states[key], circ.num_qubits, qubit)
        op.expect = {"num": amp.num, "half_exp": amp.half_exp}


def check(op: Op, rc: int, payload: dict | None) -> str:
    """Classify one answer: exact match, guard refusal, or failure."""
    if op.argv[0] == "measure" and rc == EXIT_GUARD:
        return REFUSED
    if rc != 0 or payload is None:
        return FAILED
    if op.argv[0] == "hidden-shift-solve":
        return OK if payload.get("shift") == op.expect else FAILED
    if op.argv[0] == "measure":
        return OK if payload.get("probability") == op.expect else FAILED
    good = (payload.get("trials") == op.expect
            and payload.get("passes") == op.expect
            and payload.get("failures") == 0)
    return OK if good else FAILED
