"""Exact amplitude arithmetic (path-sum scalars are amplitudes too)."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathsum.exact import Amplitude, ParityError


class TestAmplitude:
    def test_canonical_form(self):
        # num always reduces to odd (or zero with exponent 0)
        assert Amplitude(4, -1) == Amplitude(1, 3)
        assert Amplitude(0, 5) == Amplitude(0, 0)
        assert Amplitude(-6, 0) == Amplitude(-3, 2)

    def test_add_same_parity(self):
        a = Amplitude(1, -1)
        assert a + a == Amplitude(1, 1)  # sqrt(2)/2 + sqrt(2)/2 = sqrt(2)
        assert Amplitude(3, 0) + Amplitude(-3, 0) == Amplitude(0)

    def test_add_mixed_parity_raises(self):
        with pytest.raises(ParityError):
            Amplitude(1, 0) + Amplitude(1, 1)

    def test_add_zero_any_parity(self):
        assert Amplitude(0) + Amplitude(1, 1) == Amplitude(1, 1)
        assert Amplitude(1, 1) + Amplitude(0) == Amplitude(1, 1)

    def test_mul(self):
        assert Amplitude(1, -1) * Amplitude(1, -1) == Amplitude(1, -2)
        assert Amplitude(3, 2) * Amplitude(0) == Amplitude(0)

    def test_comparisons(self):
        assert Amplitude(0) < Amplitude(1)
        assert Amplitude(1, -1) < Amplitude(1)  # 1/sqrt2 < 1
        assert Amplitude(-1) < Amplitude(1, -3)
        assert Amplitude(1) <= Amplitude(1)
        assert not Amplitude(1) < Amplitude(1, -1)

    def test_render(self):
        assert Amplitude(1, -1).render() == "1 * 2^(-1/2)"
        assert Amplitude(1, -2).render() == "1 * 2^(-1)"
        assert Amplitude(5).render() == "5"
        assert Amplitude(0).render() == "0"
        assert Amplitude(-1, 3).render() == "-1 * 2^(3/2)"

    def test_float(self):
        assert float(Amplitude(1, -1)) == pytest.approx(1 / math.sqrt(2))
        assert float(Amplitude(-3, 4)) == pytest.approx(-12.0)

    @given(st.integers(-50, 50), st.integers(-6, 6),
           st.integers(-50, 50), st.integers(-3, 3))
    def test_closure_same_parity(self, n1, e1, n2, de):
        # sums and products of matching half-parity stay canonical
        a = Amplitude(n1, 2 * e1)
        b = Amplitude(n2, 2 * e1 + 2 * de)
        for r in (a + b, a * b, a - b, -a):
            assert r.num == 0 and r.half_exp == 0 or r.num % 2 == 1

    def test_exactness_against_floats(self):
        rng = random.Random(0)
        for _ in range(200):
            n, e = rng.randint(-9, 9), 2 * rng.randint(-4, 4)
            m, f = rng.randint(-9, 9), 2 * rng.randint(-4, 4)
            a, b = Amplitude(n, e), Amplitude(m, f)
            assert float(a + b) == pytest.approx(float(a) + float(b))
            assert float(a * b) == pytest.approx(float(a) * float(b))
