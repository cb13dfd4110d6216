"""Rewrite rules: detection, application, normalization, equivalence.

Every rule application must preserve the evaluated operator exactly,
every normalization must finish within the starting variable count, and
normal forms under different strategies must agree up to a variable
bijection with negations.
"""

import inspect
import random
from collections import Counter
from itertools import chain, combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathsum.boolpoly import BoolPoly, mask_bits
from pathsum.circuit import Gate, random_circuit
from pathsum.exact import Amplitude
from pathsum.fuzz import random_path_sum_from_circuit
from pathsum.rewrite import (_EQUIVALENCE_CAP, AFFINE_TERM_GROWTH,
                             DETERMINISTIC_FIRST, RewriteStep, Rule,
                             StaleStepError, Strategy, VarCapError, _rule_at,
                             apply, find_rewrites, normalize, reduce,
                             seeded_random, simply_equivalent)
from pathsum.sums import (EvalGuardError, PathSum, compose, evaluate,
                          identity, interpret, ket, tensor, to_json, zero_op)
from support import (affine_rule_at, apply_simple_transform, gate_sem,
                     path_sums, poly_of, random_path_sum)

x0, x1, x2, x3 = (BoolPoly.var(i) for i in range(4))
one = BoolPoly.one()
zero = BoolPoly.zero()


class TestStepValidation:
    def test_hh_needs_target(self):
        with pytest.raises(ValueError):
            RewriteStep(Rule.HH, 0)
        with pytest.raises(ValueError):
            RewriteStep(Rule.ELIM, 0, target=1, substituent=zero)

    def test_hh_substituent_shape(self):
        with pytest.raises(ValueError, match="one variable"):
            RewriteStep(Rule.HH, 0, 1, x2 + x3)
        with pytest.raises(ValueError, match="target"):
            RewriteStep(Rule.HH, 0, 1, x1)

    def test_strategy_kinds(self):
        Strategy("first")
        Strategy("random", 3)
        with pytest.raises(ValueError):
            Strategy("clever")


class TestFindRewrites:
    def test_restricted_pivot_is_skipped(self):
        # phase x(y+z+w) + y with output y: the pivot multiplying a
        # three-variable cofactor admits nothing, only the two pivots
        # whose cofactor is the single bare variable x do
        w, x, y, z = 0, 1, 2, 3
        phase = poly_of((x, y), (x, z), (x, w), (y,))
        s = PathSum(Amplitude(1, -5), 4, phase, (BoolPoly.var(y),), ())
        steps = find_rewrites(s)
        assert [st.rule for st in steps] == [Rule.HH, Rule.HH]
        assert [(st.pivot, st.target) for st in steps] == [(w, x), (z, x)]
        assert all(st.substituent == zero for st in steps)
        assert not any(st.pivot == x for st in steps)

    def test_lone_linear_variable_gives_z(self):
        s = PathSum(Amplitude(1), 1, x0, (one,), ())
        steps = find_rewrites(s)
        assert [st.rule for st in steps] == [Rule.Z]
        assert steps[0].pivot == 0

    def test_unused_variable_gives_elim(self):
        s = PathSum(Amplitude(1), 2, zero, (x1,), ())
        steps = find_rewrites(s)
        assert steps == [RewriteStep(Rule.ELIM, 0)]

    def test_wire_variable_admits_nothing(self):
        assert find_rewrites(identity(3)) == []

    def test_order_elim_z_hh_ascending(self):
        # vars: 0 unused, 1 lone linear, 2 pivots 3 via (x4+...)
        phase = poly_of((1,), (2, 3), (2,))
        s = PathSum(Amplitude(1), 4, phase, (), ())
        steps = find_rewrites(s)
        kinds = [st.rule for st in steps]
        assert kinds == sorted(kinds, key=lambda r: (r is Rule.HH, r is not Rule.ELIM))
        assert steps[0] == RewriteStep(Rule.ELIM, 0)
        assert steps[1] == RewriteStep(Rule.Z, 1)

    def test_both_targets_listed_ascending(self):
        phase = poly_of((0, 1), (0, 2))  # x0(x1 + x2)
        s = PathSum(Amplitude(1), 3, phase, (), ())
        hh = [st for st in find_rewrites(s) if st.rule is Rule.HH and st.pivot == 0]
        assert [(st.target, st.substituent) for st in hh] == [(1, x2), (2, x1)]


def reference_rewrites(a: PathSum) -> list[RewriteStep]:
    """The three rules as the README states them, read off cofactors.

    Written apart from the engine's own classifier so that find_rewrites
    has an independent check.
    """
    elims, zs, hhs = [], [], []
    for x in range(a.num_vars):
        if any(p.mentions(x) for p in (*a.outputs, *a.inputs)):
            continue
        cof, _ = a.phase.cofactor(x)
        if cof == zero:
            elims.append(RewriteStep(Rule.ELIM, x))
        elif cof == one:
            zs.append(RewriteStep(Rule.Z, x))
        elif cof.degree() <= 1:
            for y in mask_bits(cof.vars_mask):
                q = cof + BoolPoly.var(y)
                if q.vars_mask.bit_count() <= 1 and not q.mentions(y):
                    hhs.append(RewriteStep(Rule.HH, x, y, q))
    return elims + zs + hhs


def reference_random_normalize(a: PathSum, seed: int
                               ) -> tuple[PathSum, list[RewriteStep]]:
    """The seeded-random strategy as a whole-sum loop over the spec.

    Each step is drawn from ``find_rewrites`` of the current sum and
    applied with ``apply``, so every step rescans and rebuilds the sum.
    """
    rng = random.Random(seed)
    cur = a
    trace: list[RewriteStep] = []
    budget = a.num_vars
    while True:
        steps = find_rewrites(cur)
        if not steps:
            return cur, trace
        step = steps[rng.randrange(len(steps))]
        cur = apply(cur, step)
        trace.append(step)
        if len(trace) > budget:
            raise RuntimeError("rewrite count exceeded the variable count")


def assert_random_matches_reference(a: PathSum, seed: int) -> list[RewriteStep]:
    """The seeded-random trace and normal form equal the reference loop's.

    The reference normal form is its trace replayed through ``apply``, so
    equal traces and equal normal forms mean the trace replays to ``nf``.
    The ``Trace`` is read every way a caller reads it: length, iteration,
    indexing, slicing, comparison with the list and with another
    ``Trace``, and each step's ``line``.  Its steps must be built once, on the
    first read after ``len``, each through the validating
    ``RewriteStep.__post_init__``.
    """
    nf, trace = normalize(a, seeded_random(seed))
    ref_nf, ref_trace = reference_random_normalize(a, seed)
    validate = RewriteStep.__post_init__
    validated = []

    def checked(step):
        validated.append(step)
        validate(step)

    with mock.patch.object(RewriteStep, "__post_init__", checked):
        assert len(trace) == len(ref_trace) and not validated
        assert list(trace) == ref_trace, (a, seed)
        assert [trace[i] for i in range(-len(trace), len(trace))] == ref_trace * 2
        assert trace[1:-1] == ref_trace[1:-1] and trace[::-2] == ref_trace[::-2]
        assert trace == ref_trace and ref_trace == trace
        assert [s.line() for s in trace] == [s.line() for s in ref_trace], (a, seed)
    assert validated == ref_trace
    assert trace == normalize(a, seeded_random(seed))[1]
    assert to_json(nf) == to_json(ref_nf), (a, seed)
    assert nf == ref_nf
    return trace


def greedy_normalize(a: PathSum) -> tuple[PathSum, list[RewriteStep]]:
    """The deterministic strategy as a whole-sum loop over the spec:
    ``find_rewrites(cur)[0]`` applied with ``apply`` until none is left."""
    cur, greedy = a, []
    while steps := find_rewrites(cur):
        greedy.append(steps[0])
        cur = apply(cur, steps[0])
    return cur, greedy


def assert_deterministic_matches_reference(a: PathSum) -> PathSum:
    """The deterministic trace and normal form equal the greedy loop's."""
    nf, trace = normalize(a, DETERMINISTIC_FIRST)
    ref_nf, ref_trace = greedy_normalize(a)
    assert trace == ref_trace, a
    assert to_json(nf) == to_json(ref_nf), a
    return nf


class TestAgainstReference:
    def test_find_rewrites_matches_rule_definitions(self):
        rng = random.Random(79)
        checked = Counter()
        for i in range(5000):
            a = (random_path_sum(rng, max_vars=8) if i % 2
                 else random_path_sum_from_circuit(rng))
            steps = find_rewrites(a)
            assert steps == reference_rewrites(a), a
            checked.update(step.rule for step in steps)
        assert checked[Rule.ELIM] > 1000 and checked[Rule.Z] > 300
        assert checked[Rule.HH] > 30000

    def test_seeded_random_matches_reference_corpus(self):
        rng = random.Random(80)
        rules = Counter()
        upper = 0  # HH steps whose target is the higher of two bare variables
        for i in range(3000):
            a = (random_path_sum(rng, max_vars=8) if i % 2
                 else random_path_sum_from_circuit(rng))
            for _ in range(2):
                trace = assert_random_matches_reference(a, rng.getrandbits(32))
                rules.update(step.rule for step in trace)
                upper += sum(1 for step in trace if step.rule is Rule.HH
                             and 0 < step.substituent.vars_mask < 1 << step.target)
        assert rules[Rule.ELIM] > 20000 and rules[Rule.Z] > 800
        assert rules[Rule.HH] > 18000
        # an HH pivot with two targets has two keys in the normalizer's step
        # list; taking its second one runs the two-key delete and insert
        assert upper > 6000  # 7 386 seen

    @settings(max_examples=300, deadline=None)
    @given(path_sums(), st.integers(0, 2 ** 32 - 1))
    def test_seeded_random_matches_reference_property(self, a, seed):
        assert_random_matches_reference(a, seed)

    def test_seeded_random_matches_reference_on_large_fold(self):
        a = random_path_sum_from_circuit(random.Random(12), max_qubits=12,
                                         max_gates=150)
        assert a.num_vars >= 1000
        assert_random_matches_reference(a, 5)

    @settings(max_examples=300, deadline=None)
    @given(path_sums())
    def test_deterministic_first_is_greedy_property(self, a):
        nf, trace = normalize(a, DETERMINISTIC_FIRST)
        cur, greedy = greedy_normalize(a)
        assert trace == greedy and cur == nf
        replayed = a
        for step in trace:
            replayed = apply(replayed, step)
        assert replayed == nf

    def test_deterministic_first_matches_reference_corpus(self):
        rng = random.Random(81)
        big = 0
        for _ in range(1000):
            a = random_path_sum_from_circuit(rng, max_qubits=4, max_gates=8)
            assert_deterministic_matches_reference(a)
            big += a.num_vars > 8
        assert big > 700  # 817 seen

    def test_deterministic_first_matches_reference_on_large_fold(self):
        a = random_path_sum_from_circuit(random.Random(16), max_qubits=10,
                                         max_gates=40)
        assert a.num_vars >= 300
        assert_deterministic_matches_reference(a)

    def test_deterministic_first_matches_reference_with_many_survivors(self):
        # the open unitary keeps most of its variables, so the result is
        # renumbered with the removed pivots spread among the survivors
        a = interpret(random_circuit(32, 600, seed=7))
        nf = assert_deterministic_matches_reference(a)
        assert (a.num_vars, nf.num_vars) == (140, 100)


class TestApply:
    def test_z_matches_interference(self):
        s = PathSum(Amplitude(1), 1, x0, (), ())
        assert evaluate(s)[0][0] == Amplitude(0)
        out = apply(s, RewriteStep(Rule.Z, 0))
        assert out == zero_op(0, 0)

    def test_hh_then_elim_reduces_double_hadamard(self):
        # 2^(-1) sum_{x,y} (-1)^{xy} |y>  (the inside of H H |0>)
        s = PathSum(Amplitude(1, -2), 2, x0 * x1, (x1,), ())
        steps = find_rewrites(s)
        assert steps == [RewriteStep(Rule.HH, 0, 1, zero)]
        mid = apply(s, steps[0])
        follow = find_rewrites(mid)
        assert follow == [RewriteStep(Rule.ELIM, 0)]
        done = apply(mid, follow[0])
        assert done == PathSum(Amplitude(1), 0, zero, (zero,), ())

    def test_eval_preserved_on_random_steps(self):
        rng = random.Random(55)
        applications = 0
        for _ in range(1000):
            a = random_path_sum(rng, max_vars=8)
            base = None
            for step in find_rewrites(a):
                if base is None:
                    base = evaluate(a, 10)
                assert evaluate(apply(a, step), 10) == base
                applications += 1
        assert applications > 1200

    def test_stale_step_rejected(self):
        s = PathSum(Amplitude(1), 2, zero, (x1,), ())
        step = find_rewrites(s)[0]
        once = apply(s, step)
        with pytest.raises(StaleStepError):
            apply(once, RewriteStep(Rule.ELIM, 0))  # var 0 is now the wire
        with pytest.raises(StaleStepError):
            apply(s, RewriteStep(Rule.Z, 0))

    def test_reindexing_is_dense(self):
        s = PathSum(Amplitude(1), 3, x2 * x1, (x1,), (x2,))
        out = apply(s, RewriteStep(Rule.ELIM, 0))
        assert out.num_vars == 2
        assert out.phase == x1 * x0
        assert out.outputs == (x0,) and out.inputs == (x1,)


class TestNormalize:
    def test_normal_form_unchanged(self):
        s = identity(3)
        nf, trace = normalize(s)
        assert nf == s and trace == []

    def test_double_hadamard_on_zero(self):
        circ_sum = compose(interpret_double_h(), ket("0"))
        nf, trace = normalize(circ_sum)
        assert nf.num_vars == 0
        assert nf.scalar == Amplitude(1)
        assert nf.outputs == (zero,)
        assert len(trace) <= circ_sum.num_vars

    def test_terminates_within_variable_count(self):
        rng = random.Random(66)
        for _ in range(300):
            a = random_path_sum(rng, max_vars=8)
            _, trace = normalize(a)
            assert len(trace) <= a.num_vars
            _, rtrace = normalize(a, seeded_random(rng.getrandbits(16)))
            assert len(rtrace) <= a.num_vars

    def test_result_admits_no_rewrites(self):
        rng = random.Random(67)
        for _ in range(200):
            a = random_path_sum(rng, max_vars=8)
            nf, _ = normalize(a)
            assert find_rewrites(nf) == []

    def test_trace_replays_through_apply(self):
        rng = random.Random(68)
        for _ in range(200):
            a = random_path_sum(rng, max_vars=8)
            nf, trace = normalize(a)
            cur = a
            for step in trace:
                cur = apply(cur, step)
            assert cur == nf

    def test_deterministic_first_is_greedy_first_step(self):
        rng = random.Random(69)
        for _ in range(150):
            a = random_path_sum(rng, max_vars=7)
            nf, trace = normalize(a, DETERMINISTIC_FIRST)
            cur, greedy = greedy_normalize(a)
            assert trace == greedy and cur == nf

    def test_random_strategy_reproducible(self):
        rng = random.Random(70)
        a = random_path_sum(rng, max_vars=8)
        r1 = normalize(a, seeded_random(12))
        r2 = normalize(a, seeded_random(12))
        assert r1 == r2

    def test_trace_lines_format(self):
        s = PathSum(Amplitude(1, -2), 2, x0 * x1, (x1,), ())
        _, trace = normalize(s)
        assert [step.line() for step in trace] == ["HH pivot=0 target=1 Q=0",
                                                   "ELIM x=0"]


def with_affine_pivot(a: PathSum, targets, constant: int) -> PathSum:
    """a with one more, wire-free variable x multiplying the sum of the
    target variables (and the constant): an affine cofactor."""
    k = a.num_vars
    xbit = 1 << k
    extra = BoolPoly(frozenset(xbit | m for m in
                               [1 << t for t in targets] + [0] * constant))
    return PathSum(a.scalar, k + 1, a.phase + extra, a.outputs, a.inputs)


@st.composite
def sums_with_affine_pivot(draw):
    a = draw(path_sums())
    if a.num_vars < 3:
        return a
    targets = draw(st.lists(st.integers(0, a.num_vars - 1), min_size=3,
                            max_size=5, unique=True))
    return with_affine_pivot(a, targets, draw(st.integers(0, 1)))


def reduce_corpus(seed: int, count: int):
    """Fuzz and random sums; the plain fuzz sums rarely admit an affine
    step, so every other one gets a wire-free pivot over three to five of
    its variables."""
    rng = random.Random(seed)
    for i in range(count):
        a = (random_path_sum(rng, max_vars=8) if i % 2
             else random_path_sum_from_circuit(rng))
        if i % 4 < 2 and a.num_vars >= 3:
            a = with_affine_pivot(
                a, rng.sample(range(a.num_vars), rng.randint(3, min(5, a.num_vars))),
                rng.randrange(2))
        yield a


def assert_detector_matches_reference(a: PathSum) -> int:
    """``_rule_at`` with the affine step names the reference's rule at
    every variable of a; returns how many of them admit the affine step."""
    wires = 0
    for p in (*a.outputs, *a.inputs):
        wires |= p.vars_mask
    affine = 0
    for x in range(a.num_vars):
        occ = {m for m in a.phase.monomials if m >> x & 1}
        rule = _rule_at(x, occ, wires >> x & 1, True)
        assert rule == affine_rule_at(x, occ, wires >> x & 1), (a, x)
        affine += rule is not None and rule[0] == 3
    return affine


def assert_reduce_keeps_value(a: PathSum) -> bool:
    """reduce keeps the value of a's normal form and leaves no rewrite;
    returns whether it removed a variable."""
    nf, _ = normalize(a)
    r = reduce(nf)
    assert evaluate(r) == evaluate(nf), nf
    assert r.signature == nf.signature and r.num_vars <= nf.num_vars
    assert find_rewrites(r) == []
    return r.num_vars < nf.num_vars


class TestReduce:
    def test_keeps_value_on_fuzz_corpus(self):
        shrunk = sum(map(assert_reduce_keeps_value, reduce_corpus(81, 2400)))
        assert shrunk > 150  # 185 seen

    @settings(max_examples=300, deadline=None)
    @given(sums_with_affine_pivot())
    def test_keeps_value_property(self, a):
        assert_reduce_keeps_value(a)

    def test_equals_reduce_of_the_normal_form(self):
        # the loop is rank-major, so reduce takes every rewrite, as
        # normalize does, before any affine step: both sums renumber alike
        shrunk = 0
        for a in reduce_corpus(83, 3000):
            nf, _ = normalize(a)
            r = reduce(a)
            assert to_json(r) == to_json(reduce(nf)), a
            shrunk += r.num_vars < nf.num_vars
        assert shrunk > 200  # 247 seen

    def test_detector_matches_the_reference_on_the_corpora(self):
        # every variable of both corpora's sums and of their normal forms
        affine = 0
        for a in chain(reduce_corpus(81, 2400), reduce_corpus(83, 3000)):
            affine += assert_detector_matches_reference(a)
            affine += assert_detector_matches_reference(normalize(a)[0])
        assert affine > 7000  # 7 871 seen

    @settings(max_examples=300, deadline=None)
    @given(sums_with_affine_pivot())
    def test_detector_matches_the_reference_property(self, a):
        assert_detector_matches_reference(a)
        assert_detector_matches_reference(normalize(a)[0])

    def test_is_not_a_rewrite(self):
        # the criterion-8 pivot: find_rewrites and normalize leave it, and
        # reduce removes it with its lowest target, y := z + w, after which
        # y*z*w cancels and the rest are ELIMs
        w, x, y, z = 0, 1, 2, 3
        s = PathSum(Amplitude(1), 4, poly_of((x, y), (x, z), (x, w), (y, z, w)),
                    (), ())
        assert find_rewrites(s) == []
        assert normalize(s) == (s, [])
        # the detector names the affine step at x only when asked to
        occ = {m for m in s.phase.monomials if m >> x & 1}
        assert _rule_at(x, occ, False) is None
        assert _rule_at(x, occ, False, True)[:2] == (3, [w])
        # nor is any HH step at the pivot applied, whatever its target
        for target in (w, y, z):
            for q in (zero, one, *(BoolPoly.var(v) + c for v in (w, y, z)
                                   if v != target for c in (zero, one))):
                with pytest.raises(StaleStepError):
                    apply(s, RewriteStep(Rule.HH, x, target, q))
        r = reduce(s)
        assert r.num_vars == 0 and evaluate(r) == evaluate(s)

    def test_stops_at_the_term_cap(self):
        # pivot 0 forces y = z_1 + ... + z_10, which turns y's 28 cubic
        # monomials into 280; pivot 1 (u + v_1 + v_2 + v_3) is left, since
        # the phase has grown past the cap.  Every other variable sits in
        # a cubic monomial, so neither HH nor an affine step takes it.
        y, zs, u, vs = 2, range(3, 13), 13, range(14, 17)
        avars, fillers = range(17, 25), (25, 26, 27, 28)
        terms = [(0, t) for t in (y, *zs)] + [(1, t) for t in (u, *vs)]
        terms += [(y, a, b) for a in avars for b in avars if a < b]
        for i, t in enumerate((*zs, u, *vs)):
            terms.append((t, fillers[i % 4], fillers[(i + 1) % 4]))
        s = PathSum(Amplitude(1), 29, poly_of(*terms), (), ())
        assert find_rewrites(s) == []
        r = reduce(s)
        assert r.num_vars == 27  # the pivot and y went; pivot 1 is left
        assert len(r.phase.monomials) > AFFINE_TERM_GROWTH * len(s.phase.monomials)
        # the stop was the cap: a fresh reduce takes pivot 1 and its target
        assert reduce(r).num_vars == 25
        with pytest.raises(EvalGuardError) as err:
            evaluate(r, 20)
        assert err.value.num_vars == 27
        assert err.value.phase_terms == len(r.phase.monomials)


class TestZRuleMeansZero:
    def test_z_shape_always_evaluates_to_zero(self):
        rng = random.Random(71)
        found = 0
        for _ in range(400):
            a = random_path_sum(rng, max_vars=7)
            for step in find_rewrites(a):
                if step.rule is Rule.Z:
                    dims = evaluate(a, 10)
                    assert dims == [[Amplitude(0)] * len(row) for row in dims]
                    found += 1
                    break
        assert found > 20


class TestCompositionality:
    def test_steps_lift_through_composition(self):
        # a step of A is found on A.B at the same indices and commutes
        # with composition under evaluation
        rng = random.Random(72)
        lifted = 0
        while lifted < 60:
            m = rng.randint(0, 2)
            a = random_path_sum(rng, max_vars=5, n_in=m)
            b = random_path_sum(rng, max_vars=4, n_out=m)
            steps = find_rewrites(a)
            if not steps or a.num_vars + b.num_vars > 9:
                continue
            comp = compose(a, b)
            comp_steps = find_rewrites(comp)
            for step in steps:
                assert step in comp_steps, (a, b, step)
                via_comp = apply(comp, step)
                via_part = compose(apply(a, step), b)
                assert evaluate(via_comp, 14) == evaluate(via_part, 14)
                lifted += 1

    def test_steps_lift_through_tensor(self):
        rng = random.Random(73)
        lifted = 0
        while lifted < 40:
            a = random_path_sum(rng, max_vars=5)
            b = random_path_sum(rng, max_vars=4)
            steps = find_rewrites(a)
            if not steps or a.num_vars + b.num_vars > 9:
                continue
            prod = tensor(a, b)
            prod_steps = find_rewrites(prod)
            for step in steps:
                assert step in prod_steps
                assert evaluate(apply(prod, step), 14) == \
                    evaluate(tensor(apply(a, step), b), 14)
                lifted += 1


class TestSimplyEquivalent:
    def test_swapped_variables(self):
        a = PathSum(Amplitude(1), 2, x0 * x1 + x0, (x1,), ())
        phi = {0: (1, 0), 1: (0, 0)}
        b = apply_simple_transform(a, phi)
        assert simply_equivalent(a, b)

    def test_negation_map(self):
        # sum_x (-1)^{x y} |y>  ~  sum_x (-1)^{x(y+1)} |y+1>
        a = PathSum(Amplitude(1), 2, x0 * x1, (x1,), ())
        b = PathSum(Amplitude(1), 2, x0 * x1 + x0, (x1 + one,), ())
        assert simply_equivalent(a, b)

    def test_different_scalars_differ(self):
        h = gate_sem(Gate("h", (0,)))
        xg = gate_sem(Gate("x", (0,)))
        assert not simply_equivalent(h, xg)

    def test_inequivalent_phases(self):
        a = PathSum(Amplitude(1), 2, x0 * x1, (), ())
        b = PathSum(Amplitude(1), 2, x0 + x1, (), ())
        assert not simply_equivalent(a, b)

    def test_var_cap(self):
        # one cap, with no parameter to lift it
        assert _EQUIVALENCE_CAP == 8
        assert list(inspect.signature(simply_equivalent).parameters) == ["a", "b"]
        a = identity(_EQUIVALENCE_CAP + 1)
        with pytest.raises(VarCapError, match="9 variables exceed the cap 8"):
            simply_equivalent(a, a)

    def test_equivalence_is_sound_for_eval(self):
        rng = random.Random(74)
        hits = 0
        for _ in range(200):
            a = random_path_sum(rng, max_vars=5)
            k = a.num_vars
            perm = list(range(k))
            rng.shuffle(perm)
            phi = {v: (perm[v], rng.randrange(2)) for v in range(k)}
            b = apply_simple_transform(a, phi)
            assert simply_equivalent(a, b)
            assert evaluate(a, 10) == evaluate(b, 10)
            hits += 1
        assert hits == 200


class TestConfluence:
    def test_normal_forms_agree_up_to_simple_equivalence(self):
        rng = random.Random(75)
        for trial in range(150):
            a = random_path_sum(rng, max_vars=8)
            det, _ = normalize(a)
            for s in range(3):
                rnd, _ = normalize(a, seeded_random(trial * 7 + s))
                assert simply_equivalent(det, rnd), (a, det, rnd)

    def test_circuit_derived_sums_agree(self):
        rng = random.Random(76)
        for trial in range(60):
            a = random_path_sum_from_circuit(rng)
            det, _ = normalize(a)
            rnd, _ = normalize(a, seeded_random(trial))
            if det.num_vars <= 8 and rnd.num_vars <= 8:
                assert simply_equivalent(det, rnd)
            assert evaluate(det, 20) == evaluate(rnd, 20)

    def test_critical_pairs_join_exhaustively(self):
        # local confluence on a bounded class, checked exhaustively: every
        # phase of degree 1-3 monomials over k = 1..4 variables, under five
        # wire shapes.  The class is not closed under steps, so Newman's
        # lemma does not yet turn this into confluence on it.  On each sum
        # with two or more steps, every unordered pair of the steps
        # find_rewrites lists is counted, whether or not the two one-step
        # sums differ, and their normal forms must be simply equivalent
        shapes = [(), (x0,), (x0 + x1,), (x0 * x1,), (x0, x1)]
        sums = pairs = 0
        failures = []
        for k in range(1, 5):
            monos = [m for m in range(1, 1 << k) if m.bit_count() <= 3]
            for pick in range(1 << len(monos)):
                phase = BoolPoly(frozenset(
                    m for j, m in enumerate(monos) if pick >> j & 1))
                for s, wires in enumerate(shapes if k > 1 else shapes[:2]):
                    a = PathSum(Amplitude(1), k, phase, wires, ())
                    steps = find_rewrites(a)
                    if len(steps) < 2:
                        continue
                    sums += 1
                    nfs = [normalize(apply(a, step))[0] for step in steps]
                    for i, j in combinations(range(len(steps)), 2):
                        pairs += 1
                        if not simply_equivalent(nfs[i], nfs[j]):
                            failures.append((k, pick, s, steps[i], steps[j]))
        assert failures == []
        assert (sums, pairs) == (9976, 29736)

    def test_beta_property(self):
        # transforming before normalizing lands in the same class
        rng = random.Random(78)
        for _ in range(150):
            a = random_path_sum(rng, max_vars=6)
            k = a.num_vars
            perm = list(range(k))
            rng.shuffle(perm)
            phi = {v: (perm[v], rng.randrange(2)) for v in range(k)}
            b = apply_simple_transform(a, phi)
            nfa, _ = normalize(a)
            nfb, _ = normalize(b)
            assert simply_equivalent(nfa, nfb)


def interpret_double_h():
    from pathsum.circuit import Circuit
    from pathsum.sums import interpret
    return interpret(Circuit(1, (Gate("h", (0,)), Gate("h", (0,)))))
