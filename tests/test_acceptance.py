"""End-to-end acceptance suite.

One test per criterion, each printing a PASS line with its measured
numbers (run with ``pytest tests/test_acceptance.py -v -s``).  Everything
asserted here is exact: no floating-point tolerances anywhere; the only
tolerance in the module is the factor-two allowance on the runtime
trend fit.
"""

import math
import random
import time
from itertools import combinations

import pytest

from pathsum.boolpoly import BoolPoly
from pathsum.circuit import HiddenShiftSpec, hidden_shift_circuit, random_circuit
from pathsum.exact import Amplitude
from pathsum.oracle import marginal_one, statevector_oracle
from pathsum.rewrite import (DETERMINISTIC_FIRST, Rule, find_rewrites,
                             normalize, seeded_random, simply_equivalent)
from pathsum.sim import measure_sim, recover_shift, strong_sim
from pathsum.sums import (PathSum, adjoint, compose, evaluate, interpret,
                          ket, tensor)
from support import (bits_to_index, column, dagger, kron, matmul, poly_of,
                     random_path_sum)

SIZES = (2, 4, 6, 8, 12, 16)
N_HIDDEN_SHIFT = 100
N_RANDOM_CIRCUITS = 200


def make_hidden_shift_specs(count, rng):
    """Instances cycling through the sizes, with 0..6 CCZ pairs in g and
    both identity and random coordinate permutations."""
    specs = []
    for i in range(count):
        n = SIZES[i % len(SIZES)]
        half = n // 2
        shift = tuple(rng.randrange(2) for _ in range(n))
        monos = set()
        max_pairs = min(6, math.comb(half, 3))
        for _ in range(rng.randint(0, max_pairs)):
            monos.add(tuple(sorted(rng.sample(range(half), 3))))
        for _ in range(rng.randint(0, 2)):
            size = rng.randint(1, min(2, half))
            monos.add(tuple(sorted(rng.sample(range(half), size))))
        if i % 2 and half > 1:
            perm = list(range(half))
            rng.shuffle(perm)
            pi = tuple(perm)
        else:
            pi = None
        specs.append(HiddenShiftSpec(n=n, g_monomials=frozenset(monos),
                                     shift=shift, pi=pi))
    return specs


@pytest.fixture(scope="module")
def hidden_shift_runs():
    """recover_shift over the full instance battery, timed."""
    rng = random.Random(20260810)
    specs = make_hidden_shift_specs(N_HIDDEN_SHIFT, rng)
    runs = []
    t0 = time.perf_counter()
    for spec in specs:
        circ = hidden_shift_circuit(spec)
        result = recover_shift(circ)
        runs.append((spec, circ, result))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


@pytest.fixture(scope="module")
def state_sum_reductions(hidden_shift_runs):
    """normalize([C] |0..0>) for every instance, with starting sizes."""
    runs, _ = hidden_shift_runs
    reductions = []
    for spec, circ, _ in runs:
        g = compose(interpret(circ), ket((0,) * spec.n))
        nf, trace = normalize(g, DETERMINISTIC_FIRST)
        reductions.append((spec, g.num_vars, nf, trace))
    return reductions


@pytest.fixture(scope="module")
def circuit_pool():
    rng = random.Random(77001)
    pool = []
    for i in range(N_RANDOM_CIRCUITS):
        n = rng.randint(1, 6)
        depth = rng.randint(1, 30)
        pool.append(random_circuit(n, depth, max_controls=min(2, n - 1),
                                   seed=rng.getrandbits(32)))
    return pool


def test_criterion_1_hidden_shift_recovery(hidden_shift_runs):
    """Exact shift recovery on 100 instances, oracle-checked up to n=12."""
    runs, elapsed = hidden_shift_runs
    assert len(runs) == N_HIDDEN_SHIFT
    oracle_checked = 0
    for spec, circ, result in runs:
        assert result.shift == spec.shift, spec
        assert all(p.is_zero() or p.is_one()
                   for p in result.per_qubit_probability), spec
        if spec.n <= 12:
            vec = statevector_oracle(circ, (0,) * spec.n)
            idx = bits_to_index(spec.shift)
            assert vec[idx].is_one(), spec
            assert all(a.is_zero() for j, a in enumerate(vec) if j != idx)
            oracle_checked += 1
    sizes_seen = {spec.n for spec, _, _ in runs}
    assert sizes_seen == set(SIZES)
    assert any(spec.pi is not None for spec, _, _ in runs)
    assert elapsed < 30.0, f"recovery battery took {elapsed:.1f}s"
    print(f"\ncriterion 1: PASS - {len(runs)} instances recovered exactly, "
          f"{oracle_checked} oracle-checked, {elapsed:.2f}s")


def test_criterion_2_full_reduction(state_sum_reductions):
    """Every instance's state sum reduces to |shift>: no variables left,
    scalar exactly one, constant outputs equal to the shift."""
    for spec, _, nf, _ in state_sum_reductions:
        assert nf.num_vars == 0, spec
        assert nf.scalar == Amplitude(1), spec
        assert all(p in (BoolPoly.zero(), BoolPoly.one()) for p in nf.outputs)
        got = tuple(1 if p == BoolPoly.one() else 0 for p in nf.outputs)
        assert got == spec.shift, spec
    print(f"\ncriterion 2: PASS - all {len(state_sum_reductions)} state sums "
          f"reduced to zero variables, scalar one, outputs = shift")


def test_criterion_3_step_bound(state_sum_reductions):
    """Trace length never exceeds the starting variable count, on the
    hidden-shift reductions and on unstructured sums under both
    strategies."""
    total_steps = 0
    for spec, start_vars, _, trace in state_sum_reductions:
        assert len(trace) <= start_vars, spec
        total_steps += len(trace)
    rng = random.Random(31337)
    checked = 0
    for trial in range(400):
        a = random_path_sum(rng, max_vars=8)
        _, tr = normalize(a, DETERMINISTIC_FIRST)
        assert len(tr) <= a.num_vars
        _, tr2 = normalize(a, seeded_random(trial))
        assert len(tr2) <= a.num_vars
        checked += 2
    print(f"\ncriterion 3: PASS - trace length <= initial variables in "
          f"{len(state_sum_reductions) + checked} normalization runs "
          f"({total_steps} hidden-shift steps total)")


def test_criterion_4_oracle_equivalence(circuit_pool):
    """Engine amplitudes equal the brute-force simulator on every
    basis-state pair of every circuit; the per-pair and per-qubit entry
    points agree on sampled arguments."""
    rng = random.Random(424242)
    t0 = time.perf_counter()
    pair_count = 0
    api_samples = 0
    for ci, circ in enumerate(circuit_pool):
        n = circ.num_qubits
        nf, _ = normalize(interpret(circ), DETERMINISTIC_FIRST)
        mat = evaluate(nf)  # rows: outputs, cols: inputs; all pairs at once
        for xv in range(1 << n):
            xb = tuple(xv >> (n - 1 - j) & 1 for j in range(n))
            vec = statevector_oracle(circ, xb)
            assert column(mat, xv) == vec, (ci, xv)
            pair_count += 1 << n
        # the strong-simulation entry point on sampled pairs
        pairs = {(0, 0), ((1 << n) - 1, (1 << n) - 1)}
        while len(pairs) < min(6, 1 << (2 * n)):
            pairs.add((rng.randrange(1 << n), rng.randrange(1 << n)))
        for xv, yv in sorted(pairs):
            xb = tuple(xv >> (n - 1 - j) & 1 for j in range(n))
            yb = tuple(yv >> (n - 1 - j) & 1 for j in range(n))
            assert strong_sim(circ, xb, yb) == mat[yv][xv], (ci, xv, yv)
            api_samples += 1
        # the measurement entry point against the oracle marginal
        for _ in range(2):
            xb = tuple(rng.randrange(2) for _ in range(n))
            vec = statevector_oracle(circ, xb)
            for q in sorted(rng.sample(range(n), min(3, n))):
                assert measure_sim(circ, xb, q) == \
                    marginal_one(vec, n, q), (ci, xb, q)
                api_samples += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0, f"oracle battery took {elapsed:.1f}s"
    print(f"\ncriterion 4: PASS - {len(circuit_pool)} circuits, "
          f"{pair_count} amplitude pairs exact, {api_samples} API samples, "
          f"{elapsed:.2f}s")


def test_criterion_5_confluence():
    """500 sums, deterministic vs 20 seeded strategies: all normal forms
    pairwise equivalent under a variable bijection with negations."""
    rng = random.Random(55555)
    t0 = time.perf_counter()
    pair_checks = 0
    for trial in range(500):
        a = random_path_sum(rng, max_vars=8)
        forms = [normalize(a, DETERMINISTIC_FIRST)[0]]
        forms.extend(normalize(a, seeded_random(trial * 100 + s))[0]
                     for s in range(20))
        for fa, fb in combinations(forms, 2):
            assert simply_equivalent(fa, fb, var_cap=8), (trial, a, fa, fb)
            pair_checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    print(f"\ncriterion 5: PASS - 500 trials x 21 strategies, "
          f"{pair_checks} pairwise checks, 0 failures, {elapsed:.2f}s")


def test_criterion_6_soundness_suite():
    """Evaluation is a homomorphism: composition becomes the matrix
    product, tensoring the Kronecker product, adjoint the transpose."""
    rng = random.Random(66666)
    done = 0
    while done < 100:
        m = rng.randint(0, 2)
        b = random_path_sum(rng, max_vars=5, n_out=m)
        a = random_path_sum(rng, max_vars=5, n_in=m)
        if a.num_vars + b.num_vars > 10:
            continue
        ea = evaluate(a, 16)
        eb = evaluate(b, 16)
        assert evaluate(compose(a, b), 16) == matmul(ea, eb)
        assert evaluate(tensor(a, b), 16) == kron(ea, eb)
        assert evaluate(adjoint(a), 16) == dagger(ea)
        done += 1
    print(f"\ncriterion 6: PASS - homomorphism laws exact on {done} pairs")


def _timed_recovery(n, seed):
    rng = random.Random(seed)
    half = n // 2
    monos = set()
    while len(monos) < min(2, math.comb(half, 3)):
        monos.add(tuple(sorted(rng.sample(range(half), 3))))
    spec = HiddenShiftSpec(n=n, g_monomials=frozenset(monos),
                           shift=tuple(rng.randrange(2) for _ in range(n)))
    circ = hidden_shift_circuit(spec)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        result = recover_shift(circ)
        best = min(best, time.perf_counter() - t0)
        assert result.shift == spec.shift
    return len(circ.gates) * circ.num_qubits, best


def test_criterion_7_size_bounds_and_runtime_trend(circuit_pool,
                                                   hidden_shift_runs):
    """Interpretation stays within the linear variable budget and the
    end-to-end runtime grows like a small polynomial in circuit volume."""
    checked = 0
    for circ in circuit_pool + [c for _, c, _ in hidden_shift_runs[0]]:
        k = len(circ.gates)
        n = circ.num_qubits
        m_used = max((len(g.qubits) - 1 for g in circ.gates if g.kind == "z"),
                     default=0)
        bound = (m_used + 1) * k + 2 * n * k
        assert interpret(circ).num_vars <= bound, circ
        checked += 1

    points = [_timed_recovery(n, seed=1000 + n) for n in (4, 8, 16)]
    logs = [(math.log(v), math.log(t)) for v, t in points]
    # least-squares slope of log(time) against log(volume)
    mx = sum(x for x, _ in logs) / len(logs)
    my = sum(y for _, y in logs) / len(logs)
    sxx = sum((x - mx) ** 2 for x, _ in logs)
    slope = sum((x - mx) * (y - my) for x, y in logs) / sxx
    intercept = my - slope * mx
    residual = max(abs(y - (intercept + slope * x)) for x, y in logs)
    max_degree = 2 + 2  # gate-set control budget plus two
    assert slope <= max_degree, f"fitted degree {slope:.2f} too steep"
    assert residual <= math.log(2), f"fit residual {residual:.2f} beyond 2x"
    print(f"\ncriterion 7: PASS - variable bound on {checked} circuits; "
          f"runtime fit degree {slope:.2f} (limit {max_degree}), "
          f"residual factor {math.exp(residual):.2f} (limit 2)")


def test_criterion_8_negative_control():
    """The relaxed rewrite that substitutes a two-variable sum stays
    disabled: a pivot multiplying (y + z + w) admits nothing, and only
    the two pivots with single-variable cofactors rewrite."""
    w, x, y, z = 0, 1, 2, 3
    phase = poly_of((x, y), (x, z), (x, w), (y,))
    s = PathSum(Amplitude(1, -5), 4, phase, (BoolPoly.var(y),), ())
    steps = find_rewrites(s)
    assert all(st.rule is Rule.HH for st in steps)
    assert [(st.pivot, st.target) for st in steps] == [(w, x), (z, x)]
    assert all(st.substituent == BoolPoly.zero() for st in steps)
    assert not any(st.pivot == x for st in steps)
    print("\ncriterion 8: PASS - restricted system admits no rewrite on "
          "the wide-cofactor pivot")
