"""Canonical multilinear polynomials over GF(2).

A monomial is an int bitmask over variable indices (bit i set means x_i
occurs; 0 is the constant monomial 1) and a polynomial is a frozenset of
masks, the zero polynomial being the empty set.  Addition is symmetric
difference and multiplication ORs masks together, so idempotence
(x*x = x) and characteristic-2 cancellation hold by construction and
every value is canonical.  ``mask_renamed`` moves variables to new
indices inside masks: the normalizer's final renumbering and the
measurement sandwich's copy of the state both go through it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def mask_bits(mask: int) -> list[int]:
    """Variable indices present in a monomial mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_renamed(masks: Iterable[int], bits: Sequence[int]) -> list[int]:
    """The masks with each variable v replaced by a distinct bit ``bits[v]``."""
    out = []
    for m in masks:
        d = 0
        while m:
            low = m & -m
            d |= bits[low.bit_length() - 1]
            m ^= low
        out.append(d)
    return out


def mask_product(a: Iterable[int], b: Iterable[int]) -> set[int]:
    """Monomial masks of the product of two polynomials given as masks."""
    acc: set[int] = set()
    for ma in a:
        for mb in b:
            m = ma | mb
            if m in acc:
                acc.remove(m)
            else:
                acc.add(m)
    return acc


class BoolPoly:
    __slots__ = ("monomials", "vars_mask")

    monomials: frozenset[int]
    vars_mask: int

    def __init__(self, monomials: Iterable[int] = ()):
        # a frozenset is already duplicate-free; anything else folds with
        # cancellation, as its product with 1, so repeated masks add in GF(2)
        if not isinstance(monomials, frozenset):
            monomials = frozenset(mask_product(monomials, (0,)))
        mask = 0
        for m in monomials:
            if m < 0:
                raise ValueError("monomial masks must be nonnegative")
            mask |= m
        object.__setattr__(self, "monomials", monomials)
        object.__setattr__(self, "vars_mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("BoolPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BoolPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "BoolPoly":
        return _ONE

    @classmethod
    def var(cls, index: int) -> "BoolPoly":
        if index < 0:
            raise ValueError("variable index must be nonnegative")
        return cls(frozenset((1 << index,)))

    @classmethod
    def constant(cls, bit: int) -> "BoolPoly":
        return _ONE if bit & 1 else _ZERO

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "BoolPoly") -> "BoolPoly":
        return BoolPoly(self.monomials ^ other.monomials)

    def __mul__(self, other: "BoolPoly") -> "BoolPoly":
        return BoolPoly(frozenset(mask_product(self.monomials, other.monomials)))

    def __bool__(self):
        return bool(self.monomials)

    def __eq__(self, other):
        if not isinstance(other, BoolPoly):
            return NotImplemented
        return self.monomials == other.monomials

    def __hash__(self):
        return hash(self.monomials)

    def degree(self) -> int:
        """Largest monomial degree; -1 for the zero polynomial."""
        if not self.monomials:
            return -1
        return max(m.bit_count() for m in self.monomials)

    def mentions(self, v: int) -> bool:
        return bool(self.vars_mask >> v & 1)

    # -- structural operations ---------------------------------------------

    def cofactor(self, v: int) -> tuple["BoolPoly", "BoolPoly"]:
        """Split p = x_v * L + R with v absent from both L and R."""
        bit = 1 << v
        left = set()
        rest = set()
        for m in self.monomials:
            if m & bit:
                left.add(m ^ bit)
            else:
                rest.add(m)
        return BoolPoly(frozenset(left)), BoolPoly(frozenset(rest))

    def substitute(self, v: int, replacement: "BoolPoly") -> "BoolPoly":
        """Replace x_v by a polynomial; cofactor-then-combine keeps one pass."""
        if not self.mentions(v):
            return self
        left, rest = self.cofactor(v)
        return replacement * left + rest

    def apply_simple_map(self, phi: Mapping[int, tuple[int, int]]) -> "BoolPoly":
        """Rename variables, optionally negating: v -> x_w or x_w + 1."""
        targets = []
        for v in mask_bits(self.vars_mask):
            if v not in phi:
                raise ValueError(f"map does not cover variable {v}")
            targets.append(phi[v][0])
        if len(set(targets)) != len(targets):
            raise ValueError("map is not injective on the variables present")
        acc: set[int] = set()
        for m in self.monomials:
            image = {0}  # the product of m's factors x_w or x_w + 1
            for v in mask_bits(m):
                w, neg = phi[v]
                image = mask_product(image, (1 << w, 0) if neg else (1 << w,))
            acc ^= image
        return BoolPoly(frozenset(acc))

    def shifted(self, offset: int) -> "BoolPoly":
        """All variable indices moved up by a fixed offset."""
        if offset == 0 or not self.vars_mask:
            return self
        return BoolPoly(frozenset(m << offset for m in self.monomials))

    def squeezed(self, v: int) -> "BoolPoly":
        """Drop the (absent) variable slot v, shifting higher indices down."""
        bit = 1 << v
        if self.vars_mask & bit:
            raise ValueError(f"variable {v} still occurs")
        low = bit - 1
        if self.vars_mask >> v == 0:
            return self
        return BoolPoly(frozenset((m & low) | ((m >> 1) & ~low) for m in self.monomials))

    # -- interchange form ----------------------------------------------------

    def to_lists(self) -> list[list[int]]:
        """Graded-lex sorted list-of-index-lists form (JSON/debugging)."""
        terms = [mask_bits(m) for m in self.monomials]
        terms.sort(key=lambda t: (len(t), t))
        return terms

    @classmethod
    def from_lists(cls, data: Iterable[Iterable[int]],
                   num_vars: int | None = None) -> "BoolPoly":
        """Parse the list form strictly: sorted indices, no duplicates,
        each index an int (not a bool) below ``num_vars`` when given."""
        masks = set()
        for term in data:
            idx = list(term)
            if any(type(v) is not int or v < 0 for v in idx):
                raise ValueError(f"bad variable index in monomial {idx}")
            if idx != sorted(set(idx)):
                raise ValueError(f"monomial {idx} is not strictly increasing")
            if num_vars is not None and idx and idx[-1] >= num_vars:
                raise ValueError(f"variable index {idx[-1]} out of range "
                                 f"for {num_vars} variables")
            m = 0
            for v in idx:
                m |= 1 << v
            if m in masks:
                raise ValueError(f"duplicate monomial {idx}")
            masks.add(m)
        return cls(frozenset(masks))

    def __str__(self):
        if not self.monomials:
            return "0"
        terms = sorted((mask_bits(m) for m in self.monomials),
                       key=lambda t: (-len(t), t))
        parts = ["*".join(f"x{v}" for v in t) if t else "1" for t in terms]
        return "+".join(parts)

    def __repr__(self):
        return f"BoolPoly({self})"


_ZERO = BoolPoly(frozenset())
_ONE = BoolPoly(frozenset((0,)))
