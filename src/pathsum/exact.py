"""Exact amplitude arithmetic: one value type for scalars and amplitudes.

Every amplitude the engine produces is an integer multiple of a power of
sqrt(2), kept in the exact form N * 2^(half_exp/2), so equality checks
never need a tolerance.  A path sum's scalar is the same type with
N = 0 or 1: zero or a power of sqrt(2).
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)


class ParityError(ArithmeticError):
    """Sum of N1*2^(e1/2) and N2*2^(e2/2) with e1, e2 of opposite parity.

    No such sum has the form N*2^(e/2); inside the Boolean fragment this
    signals an internal inconsistency rather than a representable value.
    """


class Amplitude:
    """Exact number num * 2^(half_exp/2), canonical with num odd or zero."""

    __slots__ = ("num", "half_exp")

    def __init__(self, num: int, half_exp: int = 0):
        if num == 0:
            half_exp = 0
        else:
            shift = (num & -num).bit_length() - 1
            if shift:
                num >>= shift
                half_exp += 2 * shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "half_exp", half_exp)

    def __setattr__(self, name, value):
        raise AttributeError("Amplitude is immutable")

    def is_zero(self) -> bool:
        return self.num == 0

    def is_one(self) -> bool:
        return self.num == 1 and self.half_exp == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Amplitude):
            return NotImplemented
        return self.num == other.num and self.half_exp == other.half_exp

    def __hash__(self):
        return hash((self.num, self.half_exp))

    def __bool__(self):
        return self.num != 0

    def __neg__(self) -> "Amplitude":
        return Amplitude(-self.num, self.half_exp)

    def __add__(self, other: "Amplitude") -> "Amplitude":
        if self.num == 0:
            return other
        if other.num == 0:
            return self
        if (self.half_exp - other.half_exp) % 2:
            raise ParityError(
                f"cannot add {self!r} and {other!r}: exponent parity differs"
            )
        e = min(self.half_exp, other.half_exp)
        n = (self.num << ((self.half_exp - e) // 2)) + (
            other.num << ((other.half_exp - e) // 2)
        )
        return Amplitude(n, e)

    def __sub__(self, other: "Amplitude") -> "Amplitude":
        return self + (-other)

    def __mul__(self, other: "Amplitude") -> "Amplitude":
        if self.num == 0 or other.num == 0:
            return Amplitude(0)
        return Amplitude(self.num * other.num, self.half_exp + other.half_exp)

    def _cmp(self, other: "Amplitude") -> int:
        """Exact three-way comparison; squares remove the sqrt(2) factor."""
        sa = (self.num > 0) - (self.num < 0)
        sb = (other.num > 0) - (other.num < 0)
        if sa != sb:
            return sa - sb
        if sa == 0:
            return 0
        # same sign: compare num^2 * 2^half_exp as exact integers
        la = self.num * self.num
        lb = other.num * other.num
        d = self.half_exp - other.half_exp
        if d > 0:
            la <<= d
        elif d < 0:
            lb <<= -d
        mag = (la > lb) - (la < lb)
        return mag if sa > 0 else -mag

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __float__(self) -> float:
        v = math.ldexp(float(self.num), self.half_exp // 2)
        return v * _SQRT2 if self.half_exp % 2 else v

    def render(self) -> str:
        """Human form ``N * 2^(e)`` with e an integer or half-integer."""
        if self.num == 0:
            return "0"
        if self.half_exp == 0:
            return str(self.num)
        if self.half_exp % 2 == 0:
            return f"{self.num} * 2^({self.half_exp // 2})"
        return f"{self.num} * 2^({self.half_exp}/2)"

    def decimal(self) -> str:
        """Decimal rendering with 15 significant digits (display only)."""
        return f"{float(self):.15g}"

    def __repr__(self):
        return f"Amplitude({self.num}, {self.half_exp})"

    def __str__(self):
        return self.render()
