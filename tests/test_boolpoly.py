"""Multilinear GF(2) polynomial arithmetic.

The ring laws run under hypothesis; the linear-reduction mirror (a
reduced by b gives a constant c exactly when a + b = c) is checked over
random degree-1 pairs.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathsum.boolpoly import BoolPoly, mask_bits, mask_renamed
from support import eval_mask

x, y, z, w = (BoolPoly.var(i) for i in range(4))
one = BoolPoly.one()
zero = BoolPoly.zero()


@st.composite
def polys(draw, max_vars=6, max_terms=8):
    k = draw(st.integers(0, max_vars))
    masks = draw(st.lists(st.integers(0, (1 << k) - 1 if k else 0),
                          max_size=max_terms))
    return BoolPoly(masks)


def exhaustive_equal(p, q, num_vars):
    return all(eval_mask(p, pt) == eval_mask(q, pt)
               for pt in range(1 << num_vars))


class TestAdd:
    def test_cancellation(self):
        assert (x + y) + y == x

    def test_identity(self):
        assert zero + (x * y + z) == x * y + z

    def test_termwise_xor(self):
        assert (x * y + one) + (x * y + x) == one + x


class TestMul:
    def test_idempotent(self):
        assert x * x == x

    def test_squaring_fixes(self):
        p = x + one
        assert p * p == p

    def test_distributes(self):
        assert (x + y) * y == x * y + y


class TestSubstitute:
    def test_expansion(self):
        assert (x * y + y).substitute(1, z + one) == x * z + x + z + one

    def test_absent_variable_noop(self):
        p = x * y + one
        assert p.substitute(3, z) is p

    def test_to_zero(self):
        # (v + w + 1)[v <- 0] = w + 1
        v_, w_ = BoolPoly.var(0), BoolPoly.var(1)
        assert (v_ + w_ + one).substitute(0, zero) == w_ + one


class TestVars:
    def test_union(self):
        assert (x * y + z).vars_mask == 0b111

    def test_constant(self):
        assert one.vars_mask == zero.vars_mask == 0

    def test_cancelled_is_empty(self):
        assert (x + x).vars_mask == 0


class TestCofactor:
    def test_definitional(self):
        p = x * (y + z) + w
        left, rest = p.cofactor(0)
        assert left == y + z and rest == w

    def test_absent_pivot(self):
        left, rest = (y + one).cofactor(0)
        assert left == zero and rest == y + one

    def test_bare_pivot(self):
        left, rest = x.cofactor(0)
        assert left == one and rest == zero

    @given(polys(), st.integers(0, 5))
    def test_round_trip(self, p, v):
        left, rest = p.cofactor(v)
        assert not left.mentions(v) and not rest.mentions(v)
        assert BoolPoly.var(v) * left + rest == p


class TestEval:
    def test_point(self):
        assert eval_mask(x * y + z, 0b011) == 1

    def test_all_zero_gives_constant_term(self):
        for p in (x * y + one, x + y, zero, one + z):
            assert eval_mask(p, 0) == (1 if 0 in p.monomials else 0)

    def test_cancelling_point(self):
        assert eval_mask(x + y, 0b11) == 0


class TestSimpleMap:
    def test_negating_rename(self):
        p = x + y
        assert p.apply_simple_map({0: (4, 0), 1: (5, 1)}) == \
            BoolPoly.var(4) + BoolPoly.var(5) + one

    def test_identity(self):
        p = x * y + z
        phi = {v: (v, 0) for v in range(3)}
        assert p.apply_simple_map(phi) == p

    def test_negated_product(self):
        # xy with x -> y'+1, y -> x'+1 gives x'y' + x' + y' + 1
        xp, yp = BoolPoly.var(2), BoolPoly.var(3)
        got = (x * y).apply_simple_map({0: (3, 1), 1: (2, 1)})
        assert got == xp * yp + xp + yp + one

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError, match="injective"):
            (x + y).apply_simple_map({0: (5, 0), 1: (5, 1)})

    @given(polys(max_vars=5))
    def test_preserves_evaluation(self, p):
        rng = random.Random(hash(p.monomials) & 0xFFFF)
        k = 5
        perm = list(range(k))
        rng.shuffle(perm)
        negs = [rng.randrange(2) for _ in range(k)]
        phi = {v: (perm[v], negs[v]) for v in range(k)}
        q = p.apply_simple_map(phi)
        for pt in range(1 << k):
            # the image point: variable perm[v] reads (bit v) xor neg
            img = 0
            for v in range(k):
                if (pt >> v & 1) ^ negs[v]:
                    img |= 1 << perm[v]
            assert eval_mask(p, pt) == eval_mask(q, img)

    def test_mask_renamed_is_the_map_without_negations(self):
        rng = random.Random(22)
        for _ in range(400):
            k = rng.randrange(41)
            p = BoolPoly(rng.getrandbits(k) for _ in range(rng.randrange(12)))
            targets = rng.sample(range(2 * k + 1), k)
            got = mask_renamed(p.monomials, [1 << w for w in targets])
            phi = {v: (w, 0) for v, w in enumerate(targets)}
            assert sorted(got) == sorted(p.apply_simple_map(phi).monomials)


class TestRingLaws:
    @given(polys(), polys(), polys())
    def test_associativity_and_distribution(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys(), polys())
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(polys())
    def test_boolean_idempotence(self, p):
        assert p * p == p
        assert p + p == zero

    @given(polys(max_vars=5), polys(max_vars=5))
    def test_canonicality(self, p, q):
        # structural equality is exactly pointwise equality
        assert (p == q) == exhaustive_equal(p, q, 5)


class TestLinearReductionMirror:
    def test_random_degree_one_pairs(self):
        # reducing a by b (send b to zero through one of b's variables)
        # yields the constant c exactly when a + b = c
        rng = random.Random(9)
        cases = 0
        for _ in range(500):
            k = rng.randint(1, 6)
            a = _random_linear(rng, k)
            b = _random_linear(rng, k)
            if b.degree() != 1 or a.degree() != 1:
                continue
            v = mask_bits(b.vars_mask)[0]
            rest = b + BoolPoly.var(v)  # b = x_v + rest
            reduced = a.substitute(v, rest)
            s = a + b
            for c in (zero, one):
                assert (reduced == c) == (s == c)
            cases += 1
        assert cases > 300

    def test_symmetry(self):
        # a[b <- 0] = c iff b[a <- 0] = c, on a spot check
        a = x + y
        b = y + z + one
        va, vb = mask_bits(a.vars_mask)[0], mask_bits(b.vars_mask)[0]
        red_ab = a.substitute(vb, b + BoolPoly.var(vb))
        red_ba = b.substitute(va, a + BoolPoly.var(va))
        for c in (zero, one):
            assert (red_ab == c) == (red_ba == c)


def _random_linear(rng, k):
    masks = [1 << v for v in range(k) if rng.randrange(2)]
    if rng.randrange(2):
        masks.append(0)
    return BoolPoly(masks)


class TestStructure:
    def test_shift(self):
        assert (x * y + one).shifted(3) == \
            BoolPoly.var(3) * BoolPoly.var(4) + one

    def test_squeeze(self):
        p = BoolPoly.var(0) * BoolPoly.var(2) + BoolPoly.var(3)
        assert p.squeezed(1) == x * y + z

    def test_squeeze_rejects_present(self):
        with pytest.raises(ValueError):
            (x * y).squeezed(1)

    def test_list_form_round_trip(self):
        p = x * y + z + one
        lists = p.to_lists()
        assert lists == [[], [2], [0, 1]]  # graded-lex order
        assert BoolPoly.from_lists(lists) == p
        assert BoolPoly.from_lists([]) == zero
        assert BoolPoly.from_lists([[]]) == one

    def test_list_form_rejects_malformed(self):
        with pytest.raises(ValueError):
            BoolPoly.from_lists([[1, 0]])
        with pytest.raises(ValueError):
            BoolPoly.from_lists([[0], [0]])
        with pytest.raises(ValueError):
            BoolPoly.from_lists([[0, 0]])
        with pytest.raises(ValueError, match="bad variable index"):
            BoolPoly.from_lists([[False, True]])

    def test_list_form_bound(self):
        assert BoolPoly.from_lists([[0, 2]], num_vars=3) == x * z
        with pytest.raises(ValueError, match="index 3 out of range"):
            BoolPoly.from_lists([[0], [1, 3]], num_vars=3)

    def test_str(self):
        assert str(zero) == "0"
        assert str(one) == "1"
        assert str(x * y + z + one) == "x0*x1+x2+1"
