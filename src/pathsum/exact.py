"""Exact scalar and amplitude arithmetic.

Every scalar the engine produces is either 0 or a power of sqrt(2), and
every amplitude is an integer multiple of such a power.  Both are kept in
the exact form N * 2^(half_exp/2), so equality checks never need a
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

_SQRT2 = math.sqrt(2.0)


class ParityError(ArithmeticError):
    """Sum of N1*2^(e1/2) and N2*2^(e2/2) with e1, e2 of opposite parity.

    No such sum has the form N*2^(e/2); inside the Boolean fragment this
    signals an internal inconsistency rather than a representable value.
    """


@dataclass(frozen=True)
class Scalar:
    """Exact value 0 (when ``zero`` is set) or 2^(half_exp/2)."""

    zero: bool
    half_exp: int = 0

    ONE: ClassVar["Scalar"]  # assigned after the class body
    ZERO: ClassVar["Scalar"]

    def __post_init__(self):
        if self.zero and self.half_exp != 0:
            object.__setattr__(self, "half_exp", 0)

    @classmethod
    def pow2(cls, half_exp: int) -> "Scalar":
        """The scalar 2^(half_exp/2)."""
        return cls(False, half_exp)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self.zero or other.zero:
            return Scalar.ZERO
        return Scalar(False, self.half_exp + other.half_exp)

    def times_pow2(self, exponent: int) -> "Scalar":
        """Multiply by 2^exponent (an integer power)."""
        return self if self.zero else Scalar(False, self.half_exp + 2 * exponent)

    def __float__(self) -> float:
        if self.zero:
            return 0.0
        v = math.ldexp(1.0, self.half_exp // 2)
        return v * _SQRT2 if self.half_exp % 2 else v


Scalar.ONE = Scalar(False, 0)
Scalar.ZERO = Scalar(True, 0)


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

    @classmethod
    def from_count(cls, count: int, scalar: Scalar) -> "Amplitude":
        """count * scalar, the form every path-sum evaluation produces."""
        if scalar.zero:
            return cls(0)
        return cls(count, scalar.half_exp)

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
