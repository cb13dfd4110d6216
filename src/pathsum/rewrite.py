"""Variable-eliminating rewrites and normalization of path sums.

Three rules, each removing at least one summation variable, so every
rewrite sequence terminates within the initial variable count:

* ELIM  - a variable absent from every polynomial is summed out,
          doubling the scalar.
* Z     - a variable occurring only as a lone linear phase term makes
          the whole sum interfere to the zero operator.
* HH    - a pivot variable multiplying (y + Q), with Q mentioning at
          most one variable, forces y = Q: the pivot is removed and
          y is substituted by Q everywhere (y itself stays behind,
          unused, for a following ELIM to collect).

The preconditions are written once, in ``_rule_at``: given the phase
monomials that mention a variable and whether it sits on a wire, it
names the one rule the variable admits, as a rank (ELIM 0, Z 1, HH 2),
with the HH targets and the cofactor.  ``find_rewrites`` and ``apply``
are the executable spec built on it.

``normalize`` takes step i of ``find_rewrites`` on the current sum each
time: i = 0 for the deterministic strategy, a draw of the strategy's
seeded RNG for the random one.  It never rescans the sum.  It keeps an
index of where each variable occurs, edits it in place, and after each
step eagerly refreshes ``_rule_at`` for only the variables whose
occurrences the step edited.  The applicable steps sit in one sorted
list of int keys, one per (rank, pivot, HH target), in the order of
``find_rewrites``, so step i is the list's item i.  A pivot's removal
costs a memmove of the list, and a refreshed rule's move a bisection
and a memmove per edit, all in C.  Both strategies share the chooser
and the step application.

The loop keeps the input's variable numbering: a removed pivot leaves
a gap, and the result is renumbered densely once, at the end, unless no
variable is left, when every polynomial is a constant.  The
trace ``normalize`` returns is a ``Trace``: a sequence of
``RewriteStep``s built on first read.  The loop records each step as a
few ints in input indices (rank and pivot, and for HH the target and
the cofactor masks); the steps are renumbered and made from them,
through ``RewriteStep``'s validating constructor, the first time the
trace is indexed or iterated.  Its length costs nothing, and the
drivers read no more than that.

``reduce`` runs the same deterministic loop with one more rank after
HH, for dense evaluation only: a wire-free pivot whose cofactor is
affine in three or more variables, which ``_rule_at`` names on
request.  That step is sound but is not a rewrite (the confluent system
keeps HH's limit), so ``find_rewrites``, ``apply`` and the traces never
see it.  Ranks come in order, so one pass takes a sum to its residual.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from typing import Optional

from .boolpoly import BoolPoly, mask_bits, mask_renamed
from .exact import Amplitude
from .sums import PathSum, zero_op

#: ``simply_equivalent``'s variable cap, and the largest ``--max-vars``
_EQUIVALENCE_CAP = 8


class Rule(enum.Enum):
    ELIM = "ELIM"
    Z = "Z"
    HH = "HH"


class StaleStepError(ValueError):
    """The step's precondition no longer holds on this sum."""


class VarCapError(ValueError):
    """simply_equivalent was asked about sums above its variable cap."""


@dataclass(frozen=True)
class RewriteStep:
    rule: Rule
    pivot: int
    target: Optional[int] = None
    substituent: Optional[BoolPoly] = None

    def __post_init__(self):
        if self.rule is Rule.HH:
            if self.target is None or self.substituent is None:
                raise ValueError("HH steps need a target and a substituent")
            if self.substituent.vars_mask.bit_count() > 1:
                raise ValueError("HH substituent may mention at most one variable")
            if self.substituent.mentions(self.target):
                raise ValueError("HH substituent must not mention the target")
            if self.target == self.pivot:
                raise ValueError("HH target must differ from the pivot")
        elif self.target is not None or self.substituent is not None:
            raise ValueError(f"{self.rule.value} steps carry no target")

    def line(self) -> str:
        """The one-line trace form."""
        if self.rule is Rule.ELIM:
            return f"ELIM x={self.pivot}"
        if self.rule is Rule.Z:
            return f"Z x={self.pivot}"
        return f"HH pivot={self.pivot} target={self.target} Q={self.substituent}"


@dataclass(frozen=True)
class Strategy:
    kind: str = "first"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("first", "random"):
            raise ValueError("strategy kind must be 'first' or 'random'")


DETERMINISTIC_FIRST = Strategy("first")


def seeded_random(seed: int) -> Strategy:
    return Strategy("random", seed)


class Trace(Sequence):
    """The steps of one normalization, as ``RewriteStep``s built on first read.

    It holds each step as (rank, pivot) or (2, pivot, target, cofactor
    masks), in the numbering of the input's ``k0`` variables, and builds
    the steps once, the first time it is indexed or iterated: it replays
    the pivots' removal on a sorted list of the variables still there, so
    each step is numbered densely on the sum it applies to.  ``len``
    needs no steps.  It compares equal to the list of the same steps and
    to another ``Trace`` of them.
    """

    __slots__ = ("_raw", "_k0", "_steps")

    def __init__(self, raw: list[tuple], k0: int):
        self._raw = raw
        self._k0 = k0
        self._steps: Optional[list[RewriteStep]] = None

    def _built(self) -> list[RewriteStep]:
        if self._steps is None:
            ranks = list(range(self._k0))  # variables left: index = number
            steps = []
            for r in self._raw:
                pivot = bisect_left(ranks, r[1])
                if r[0] == 2:  # cofactor y + Q, each mask of Q 0 or one bit
                    ybit = 1 << r[2]
                    q = frozenset(m and 1 << bisect_left(ranks, m.bit_length() - 1)
                                  for m in r[3] if m != ybit)
                    steps.append(RewriteStep(Rule.HH, pivot, bisect_left(ranks, r[2]),
                                             BoolPoly(q)))
                else:
                    steps.append(RewriteStep(_RULES[r[0]], pivot))
                del ranks[pivot]
            self._steps = steps
        return self._steps

    def __len__(self) -> int:
        return len(self._raw)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other):
        if isinstance(other, Trace):
            other = other._built()
        elif not isinstance(other, list):
            return NotImplemented
        return self._built() == other

    def __repr__(self):
        return f"Trace({self._built()!r})"


# ---------------------------------------------------------------------------
# detection

_RULES = (Rule.ELIM, Rule.Z, Rule.HH)  # indexed by rank
_ZERO, _ONE = BoolPoly.zero(), BoolPoly.one()
_ELIM_AT = (0, (), ())
_Z_AT = (1, (), ())


def _rule_at(x: int, occ, on_wire, affine=False):
    """The one rule variable x admits, as (rank, targets, cofactor masks).

    ``occ`` holds the phase monomials that mention x and ``on_wire`` is
    true when x occurs in an output or input polynomial.  The rank indexes
    ``_RULES``.  For HH the targets are the bare cofactor variables,
    ascending, and the masks are the cofactor's monomials: the cofactor
    must be a sum of at most two bare variables and possibly the constant
    1.  ELIM and Z carry no targets.  With ``affine`` (``reduce`` only),
    three or more bare variables give the affine step, rank 3, its one
    target the lowest.  Returns None when no rule applies.
    """
    if not occ:
        return None if on_wire else _ELIM_AT
    if on_wire:
        return None
    xbit = 1 << x
    if len(occ) == 1 and xbit in occ:
        return _Z_AT
    lmasks = []
    bare = []
    for m in occ:
        r = m ^ xbit
        if r.bit_count() > 1:
            return None
        lmasks.append(r)
        if r:
            bare.append(r.bit_length() - 1)
    # not Z, so some cofactor monomial is a bare variable
    if len(bare) > 2:
        return (3, [min(bare)], lmasks) if affine else None
    bare.sort()
    return 2, bare, lmasks


def find_rewrites(a: PathSum) -> list[RewriteStep]:
    """Every applicable step: ELIMs, then Zs, then HHs, pivots ascending."""
    k = a.num_vars
    if k == 0:
        return []
    pocc: list[set[int]] = [set() for _ in range(k)]
    for m in a.phase.monomials:
        for b in mask_bits(m):
            pocc[b].add(m)
    oi_mask = 0
    for p in a.outputs:
        oi_mask |= p.vars_mask
    for p in a.inputs:
        oi_mask |= p.vars_mask

    found: tuple[list[RewriteStep], ...] = ([], [], [])
    for x in range(k):
        rule = _rule_at(x, pocc[x], oi_mask >> x & 1)
        if rule is None:
            continue
        rank, targets, lmasks = rule
        if rank < 2:
            found[rank].append(RewriteStep(_RULES[rank], x))
            continue
        lset = frozenset(lmasks)
        for y in targets:
            found[2].append(RewriteStep(Rule.HH, x, y, BoolPoly(lset - {1 << y})))
    return found[0] + found[1] + found[2]


# ---------------------------------------------------------------------------
# application

def apply(a: PathSum, step: RewriteStep) -> PathSum:
    """Apply one step, revalidating its precondition; variables reindex densely."""
    k = a.num_vars
    x = step.pivot
    if not 0 <= x < k:
        raise StaleStepError(f"pivot {x} out of range")
    xbit = 1 << x
    on_wire = any(p.vars_mask & xbit for p in (*a.outputs, *a.inputs))
    occ = {m for m in a.phase.monomials if m & xbit}
    rule = _rule_at(x, occ, on_wire)
    if rule is None or _RULES[rule[0]] is not step.rule:
        raise StaleStepError(f"{step.rule.value} does not apply at variable {x}")

    if step.rule is Rule.ELIM:
        return PathSum(a.scalar * Amplitude(1, 2), k - 1, a.phase.squeezed(x),
                       tuple(p.squeezed(x) for p in a.outputs),
                       tuple(p.squeezed(x) for p in a.inputs))

    if step.rule is Rule.Z:
        return zero_op(len(a.inputs), len(a.outputs))

    _, targets, lmasks = rule
    y = step.target
    if y not in targets:
        raise StaleStepError(f"target {y} is not a bare cofactor variable")
    if step.substituent.monomials != frozenset(lmasks) - {1 << y}:
        raise StaleStepError("substituent does not match the cofactor")
    rest = BoolPoly(frozenset(m for m in a.phase.monomials if not m & xbit))
    q = step.substituent
    return PathSum(a.scalar, k - 1,
                   rest.substitute(y, q).squeezed(x),
                   tuple(p.substitute(y, q).squeezed(x) for p in a.outputs),
                   tuple(p.substitute(y, q).squeezed(x) for p in a.inputs))


# ---------------------------------------------------------------------------
# normalization

def normalize(a: PathSum, strategy: Strategy = DETERMINISTIC_FIRST
              ) -> tuple[PathSum, Trace]:
    """Rewrite to a normal form; returns it with the step trace.

    Each step is ``find_rewrites(cur)[i]`` on the current sum ``cur``:
    i = 0 under the deterministic strategy, ``rng.randrange(len(steps))``
    under the seeded-random one.  The trace length never exceeds the
    initial variable count, and each recorded step is valid for the
    (densely reindexed) sum it was applied to, so replaying the trace
    through ``apply`` reproduces the result.  The trace is a ``Trace``:
    a sequence of ``RewriteStep``s, built the first time it is read.
    """
    rng = random.Random(strategy.seed) if strategy.kind == "random" else None
    nf, raw = _run(a, rng, False)
    return nf, Trace(raw, a.num_vars)


def reduce(a: PathSum) -> PathSum:
    """Normalize a and shrink it for dense evaluation by affine elimination.

    One pass equal to ``reduce(normalize(a)[0])``, for any sum a: the
    deterministic loop of ``normalize`` with one more rank after HH, a
    wire-free pivot x whose cofactor is y + L, L affine, with at least
    three bare variables in all.  Summing x gives 2*[y = L], so x is
    dropped and the lowest bare variable y is substituted by L, exactly
    as HH does.  It is sound and keeps the degree, but it is not a
    rewrite: the confluent system keeps HH's one-variable limit, so
    ``find_rewrites`` never offers this step and no trace records it.

    Substituting an L of t terms multiplies y's monomials by t.  Once the
    phase holds more than ``AFFINE_TERM_GROWTH`` times the terms it had
    at the first affine step, no further one is taken and what is left
    goes to the guard.  The value of the sum is unchanged.
    """
    return _run(a, None, True)[0]


#: affine steps stop once the phase has grown past this many times its
#: term count at the first one; the worst growth seen was 1.52x, on 108
#: random measurement sandwiches at n = 12-64 and depth 19n or 38n
AFFINE_TERM_GROWTH = 4


def _run(a: PathSum, rng: Optional[random.Random], affine: bool
         ) -> tuple[PathSum, list[tuple]]:
    """The indexed loop behind ``normalize`` and ``reduce``: ``_run_masks``
    on a copy of a's polynomials as mutable sets of monomial masks."""
    return _run_masks(a.scalar, a.num_vars,
                      [set(p.monomials) for p in (a.phase, *a.outputs, *a.inputs)],
                      len(a.outputs), rng, affine)


def _run_masks(scalar: Amplitude, k0: int, polys: list[set[int]], n_out: int,
               rng: Optional[random.Random], affine: bool
               ) -> tuple[PathSum, list[tuple]]:
    """The one implementation of the indexed loop, on the sum of ``scalar``
    and ``k0`` variables whose phase, n_out outputs and inputs are the mask
    sets ``polys``, in that order, which it edits in place.

    Step i is drawn from ``rng``, or is 0 without one, and read off the
    sorted list of the applicable steps' keys.  Each edit of that list is
    a memmove, after a bisection for a refreshed rule, both in C: O(k)
    pointers moved and O(log k) comparisons.  With ``affine``,
    ``_rule_at`` also offers the affine step, which i = 0 takes only
    after every rewrite; the raw steps returned stop at the first one.
    The loop keeps the input's variable numbering throughout: the raw
    steps it returns for ``Trace`` name input variables, and the result
    is renumbered once, at the end, onto the variables left, by
    ``mask_renamed``.  When none is left, every polynomial is the
    constant 0 or 1 and nothing is renumbered.  ``sim._normal_state``
    calls it on ``sums._interpret_masks``'s output as it stands, so a
    state reaches its normal form without an intermediate ``PathSum``.
    """
    rule_at = _rule_at
    phase = polys[0]
    n_in = len(polys) - 1 - n_out

    # each variable's index keys monomial m of polys[p] as p << k0 | m,
    # naming both: pocc holds the phase's (p = 0, key m), oipos the wires'
    pocc: list[set[int]] = [set() for _ in range(k0)]
    oipos: list[set[int]] = [set() for _ in range(k0)]
    for p, poly in enumerate(polys):
        index = oipos if p else pocc
        tag = p << k0
        for m in poly:
            key = tag | m
            bits = m
            while bits:
                low = bits & -bits
                index[low.bit_length() - 1].add(key)
                bits ^= low

    # The applicable steps, as sorted keys (rank * k0 + v) * 2 + t, t the
    # index of the step's HH target (0 for ELIM, Z and affine): key order
    # is the (rank, pivot, target) order of find_rewrites.
    rules = [None] * k0
    steps = []
    for v in range(k0):
        rule = rules[v] = rule_at(v, pocc[v], oipos[v], affine)
        if rule is not None:
            key = (rule[0] * k0 + v) * 2
            steps.append(key)
            if len(rule[1]) == 2:
                steps.append(key + 1)
    steps.sort()
    alive = bytearray(b"\1") * k0
    elims = 0
    cap = 0  # phase size past which no affine step is taken
    rewrites = None  # the trace's length at the first affine step
    trace: list[tuple] = []  # the raw steps, as Trace holds them

    while steps:
        i = rng.randrange(len(steps)) if rng else 0
        key = steps[i]
        t = key & 1
        rank, x = divmod(key >> 1, k0)
        if len(trace) >= k0:
            raise RuntimeError("rewrite count exceeded the variable count")
        rule = rules[x]
        if rank == 1:
            trace.append((1, x))
            return zero_op(n_in, n_out), trace[:rewrites]
        if rank == 0:
            trace.append((0, x))
            elims += 1
        else:
            y = rule[1][t]
            ybit = 1 << y
            if rank == 2:  # the cofactor rule[2] is y + Q
                trace.append((2, x, y, rule[2]))
            elif not cap:
                cap = AFFINE_TERM_GROWTH * len(phase)
                rewrites = len(trace)
            elif len(phase) > cap:
                break  # only affine steps are left: i = 0 takes ranks in order
        # the pivot goes: its keys, which start at i - t, leave the list; it
        # occurs nowhere from now on, so no refresh reads its rule again
        alive[x] = 0
        del steps[i - t:i - t + (len(rule[1]) or 1)]
        if rank == 0:
            continue
        # drop the pivot's monomials x * L; each is x or x * v, as every
        # HH or affine cofactor monomial has at most one variable
        xbit = 1 << x
        touched = 0  # mask of the variables whose occurrences the step edits
        for m in pocc[x]:
            phase.remove(m)
            touched |= m
            if m != xbit:
                pocc[(m ^ xbit).bit_length() - 1].remove(m)
        pocc[x].clear()
        # substitute y <- Q: add base * cofactor, base * (y + Q), for each
        # monomial base * y of every polynomial; the cofactor's variables
        # were touched already, by the pivot's monomials
        for index in (pocc, oipos):
            for key in list(index[y]):
                p = key >> k0
                tag = p << k0
                poly = polys[p]
                base = key ^ tag ^ ybit
                touched |= base
                for lm in rule[2]:
                    bits = m = base | lm
                    if m in poly:
                        poly.remove(m)
                        edit = set.remove
                    else:
                        poly.add(m)
                        edit = set.add
                    m |= tag  # the key of m in the index
                    while bits:
                        low = bits & -bits
                        edit(index[low.bit_length() - 1], m)
                        bits ^= low
        # refresh the rules the step touched, moving each changed rule's
        # keys; of the variables it removed, only the pivot ever occurs in
        # an edited monomial
        bits = touched & ~xbit
        while bits:
            low = bits & -bits
            bits ^= low
            v = low.bit_length() - 1
            rule = rule_at(v, pocc[v], oipos[v], affine)
            old = rules[v]
            if rule is old:
                continue
            rules[v] = rule
            if old is not None:
                if rule and rule[0] == old[0] and len(rule[1]) == len(old[1]):
                    continue  # the same keys
                j = bisect_left(steps, (old[0] * k0 + v) * 2)
                del steps[j:j + (len(old[1]) or 1)]
            if rule is not None:
                key = (rule[0] * k0 + v) * 2
                j = bisect_left(steps, key)
                steps[j:j] = (key, key + 1)[:len(rule[1]) or 1]

    kept = list(compress(range(k0), alive))
    if kept:
        bits = [0] * k0  # the j-th survivor becomes variable j of the result
        for j, v in enumerate(kept):
            bits[v] = 1 << j
        out = [BoolPoly(frozenset(mask_renamed(poly, bits))) for poly in polys]
    else:  # each polynomial is {} or {0}
        out = [_ONE if poly else _ZERO for poly in polys]
    result = PathSum(scalar * Amplitude(1, 2 * elims), len(kept), out[0],
                     tuple(out[1:1 + n_out]), tuple(out[1 + n_out:]))
    return result, trace[:rewrites]


# ---------------------------------------------------------------------------
# simple equivalence (test-scale decision procedure)

def _profiles(a: PathSum) -> list[tuple]:
    """Per-variable invariants preserved by any simple transformation."""
    polys = [a.phase, *a.outputs, *a.inputs]
    profs = []
    for v in range(a.num_vars):
        bit = 1 << v
        row = []
        for p in polys:
            if not p.vars_mask & bit:
                row.append((-1, 0, 0))
                continue
            cof = [m ^ bit for m in p.monomials if m & bit]
            deg = max(m.bit_count() for m in cof)
            top = sum(1 for m in cof if m.bit_count() == deg)
            seen = 0
            for m in cof:
                seen |= m
            nvars = seen.bit_count()
            row.append((deg, top, nvars))
        profs.append(tuple(row))
    return profs


def simply_equivalent(a: PathSum, b: PathSum) -> bool:
    """Decide whether some variable bijection-with-negations maps a to b.

    Backtracking over variable images, pruned by per-variable cofactor
    profiles; exponential in the worst case, intended for small sums.
    """
    if a.num_vars > _EQUIVALENCE_CAP or b.num_vars > _EQUIVALENCE_CAP:
        raise VarCapError(f"{max(a.num_vars, b.num_vars)} variables exceed "
                          f"the cap {_EQUIVALENCE_CAP}")
    if a.scalar != b.scalar or a.signature != b.signature:
        return False
    if a.num_vars != b.num_vars:
        return False
    if a == b:
        return True
    k = a.num_vars
    if k == 0:
        return False

    prof_a = _profiles(a)
    prof_b = _profiles(b)
    if sorted(prof_a) != sorted(prof_b):
        return False
    candidates = [
        [w for w in range(k) if prof_b[w] == prof_a[v]] for v in range(k)
    ]
    order = sorted(range(k), key=lambda v: len(candidates[v]))
    polys_a = [a.phase, *a.outputs, *a.inputs]
    polys_b = [b.phase, *b.outputs, *b.inputs]

    used = [False] * k
    phi: dict[int, tuple[int, int]] = {}

    def verify() -> bool:
        for pa, pb in zip(polys_a, polys_b):
            if pa.apply_simple_map(phi) != pb:
                return False
        return True

    def backtrack(i: int) -> bool:
        if i == k:
            return verify()
        v = order[i]
        for w in candidates[v]:
            if used[w]:
                continue
            used[w] = True
            for neg in (0, 1):
                phi[v] = (w, neg)
                if backtrack(i + 1):
                    return True
            del phi[v]
            used[w] = False
        return False

    return backtrack(0)
