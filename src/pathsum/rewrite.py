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

``normalize`` with the deterministic strategy repeatedly applies the
first step of ``find_rewrites``; an index of per-variable occurrences
keeps that loop near-linear instead of rescanning the sum each step.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

from .boolpoly import BoolPoly, mask_bits
from .sums import PathSum, zero_op


class Rule(enum.Enum):
    ELIM = "ELIM"
    Z = "Z"
    HH = "HH"


_RULE_RANK = {Rule.ELIM: 0, Rule.Z: 1, Rule.HH: 2}


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
            if len(self.substituent.vars()) > 1:
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


def trace_lines(trace: list[RewriteStep]) -> list[str]:
    return [step.line() for step in trace]


# ---------------------------------------------------------------------------
# detection

def _hh_candidates(occ_masks, pivot: int):
    """Targets and cofactor masks if the pivot admits an HH step.

    Returns (sorted bare targets, cofactor-monomial masks) or None.  The
    cofactor must be a sum of bare variables (at most two distinct) and
    possibly the constant 1, with at least one bare variable present.
    """
    xbit = 1 << pivot
    lmasks = []
    bare = []
    for m in occ_masks:
        r = m ^ xbit
        if r.bit_count() > 1:
            return None
        lmasks.append(r)
        if r:
            bare.append(r.bit_length() - 1)
    if not bare or len(bare) > 2:
        return None
    return sorted(bare), lmasks


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

    elims: list[RewriteStep] = []
    zs: list[RewriteStep] = []
    hhs: list[RewriteStep] = []
    for x in range(k):
        occ = pocc[x]
        if not occ:
            if not oi_mask >> x & 1:
                elims.append(RewriteStep(Rule.ELIM, x))
            continue
        if oi_mask >> x & 1:
            continue
        if occ == {1 << x}:
            zs.append(RewriteStep(Rule.Z, x))
            continue
        cand = _hh_candidates(occ, x)
        if cand is None:
            continue
        targets, lmasks = cand
        lset = frozenset(lmasks)
        for y in targets:
            q = BoolPoly(lset - {1 << y})
            hhs.append(RewriteStep(Rule.HH, x, y, q))
    return elims + zs + hhs


# ---------------------------------------------------------------------------
# application

def apply(a: PathSum, step: RewriteStep) -> PathSum:
    """Apply one step, revalidating its precondition; variables reindex densely."""
    k = a.num_vars
    x = step.pivot
    if not 0 <= x < k:
        raise StaleStepError(f"pivot {x} out of range")
    xbit = 1 << x
    oi_mask = 0
    for p in a.outputs:
        oi_mask |= p.vars_mask
    for p in a.inputs:
        oi_mask |= p.vars_mask
    occ = {m for m in a.phase.monomials if m & xbit}

    if step.rule is Rule.ELIM:
        if occ or oi_mask & xbit:
            raise StaleStepError(f"variable {x} still occurs")
        return PathSum(a.scalar.doubled(), k - 1, a.phase.squeezed(x),
                       tuple(p.squeezed(x) for p in a.outputs),
                       tuple(p.squeezed(x) for p in a.inputs))

    if step.rule is Rule.Z:
        if oi_mask & xbit or occ != {xbit}:
            raise StaleStepError(f"variable {x} is not a lone linear phase term")
        return zero_op(len(a.inputs), len(a.outputs))

    if oi_mask & xbit or not occ:
        raise StaleStepError(f"pivot {x} does not satisfy the HH precondition")
    cand = _hh_candidates(occ, x)
    if cand is None:
        raise StaleStepError(f"pivot {x} does not satisfy the HH precondition")
    targets, lmasks = cand
    y = step.target
    if y not in targets:
        raise StaleStepError(f"target {y} is not a bare cofactor variable")
    expected_q = frozenset(lmasks) - {1 << y}
    if step.substituent.monomials != expected_q:
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
              ) -> tuple[PathSum, list[RewriteStep]]:
    """Rewrite to a normal form; returns it with the step trace.

    The trace length never exceeds the initial variable count, and each
    recorded step is valid for the (densely reindexed) sum it was applied
    to, so replaying the trace through ``apply`` reproduces the result.
    """
    if strategy.kind == "first":
        return _normalize_first(a)
    rng = random.Random(strategy.seed)
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


def _normalize_first(a: PathSum) -> tuple[PathSum, list[RewriteStep]]:
    k0 = a.num_vars
    if k0 == 0:
        return a, []
    phase = set(a.phase.monomials)
    oi = [set(p.monomials) for p in a.outputs] + [set(p.monomials) for p in a.inputs]
    n_out = len(a.outputs)
    n_in = len(a.inputs)

    pocc: list[set[int]] = [set() for _ in range(k0)]
    for m in phase:
        for b in mask_bits(m):
            pocc[b].add(m)
    oipos: list[set[tuple[int, int]]] = [set() for _ in range(k0)]
    for idx, poly in enumerate(oi):
        for m in poly:
            for b in mask_bits(m):
                oipos[b].add((idx, m))

    alive = [True] * k0
    ranks = list(range(k0))  # alive variables, ascending: index = dense rank
    heap_e = list(range(k0))
    heap_z = list(range(k0))
    heap_h = list(range(k0))
    scalar = a.scalar
    trace: list[RewriteStep] = []

    def touch(v: int):
        if alive[v]:
            heappush(heap_e, v)
            heappush(heap_z, v)
            heappush(heap_h, v)

    def phase_remove(m: int):
        phase.remove(m)
        for b in mask_bits(m):
            pocc[b].remove(m)
            touch(b)

    def phase_toggle(m: int):
        if m in phase:
            phase_remove(m)
        else:
            phase.add(m)
            for b in mask_bits(m):
                pocc[b].add(m)
                touch(b)

    def oi_remove(idx: int, m: int):
        oi[idx].remove(m)
        for b in mask_bits(m):
            oipos[b].remove((idx, m))
            touch(b)

    def oi_toggle(idx: int, m: int):
        if m in oi[idx]:
            oi_remove(idx, m)
        else:
            oi[idx].add(m)
            for b in mask_bits(m):
                oipos[b].add((idx, m))
                touch(b)

    def drop(v: int):
        alive[v] = False
        del ranks[bisect_left(ranks, v)]

    def dense_poly(masks) -> BoolPoly:
        out = set()
        for m in masks:
            nm = 0
            for b in mask_bits(m):
                nm |= 1 << bisect_left(ranks, b)
            out.add(nm)
        return BoolPoly(frozenset(out))

    while True:
        if len(trace) > k0:
            raise RuntimeError("rewrite count exceeded the variable count")

        applied = False
        while heap_e:
            x = heappop(heap_e)
            if alive[x] and not pocc[x] and not oipos[x]:
                trace.append(RewriteStep(Rule.ELIM, bisect_left(ranks, x)))
                scalar = scalar.doubled()
                drop(x)
                applied = True
                break
        if applied:
            continue

        while heap_z:
            x = heappop(heap_z)
            if alive[x] and not oipos[x] and pocc[x] == {1 << x}:
                trace.append(RewriteStep(Rule.Z, bisect_left(ranks, x)))
                return zero_op(n_in, n_out), trace

        hh = None
        while heap_h:
            x = heappop(heap_h)
            if not alive[x] or oipos[x] or not pocc[x]:
                continue
            cand = _hh_candidates(pocc[x], x)
            if cand is not None:
                hh = (x, cand)
                break
        if hh is None:
            break

        x, (targets, lmasks) = hh
        y = targets[0]
        ybit = 1 << y
        q_masks = [mm for mm in lmasks if mm != ybit]
        trace.append(RewriteStep(Rule.HH, bisect_left(ranks, x),
                                 bisect_left(ranks, y), dense_poly(q_masks)))
        for m in list(pocc[x]):       # drop the pivot's monomials (x * L)
            phase_remove(m)
        for m in list(pocc[y]):       # substitute y <- Q in the phase
            phase_remove(m)
            base = m ^ ybit
            for qm in q_masks:
                phase_toggle(base | qm)
        for idx, m in list(oipos[y]):  # and in every output/input polynomial
            oi_remove(idx, m)
            base = m ^ ybit
            for qm in q_masks:
                oi_toggle(idx, base | qm)
        drop(x)
        touch(y)

    new_k = len(ranks)
    result = PathSum(
        scalar, new_k, dense_poly(phase),
        tuple(dense_poly(oi[i]) for i in range(n_out)),
        tuple(dense_poly(oi[n_out + i]) for i in range(n_in)),
    )
    return result, trace


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
            nvars = 0
            seen = 0
            for m in cof:
                seen |= m
            nvars = seen.bit_count()
            row.append((deg, top, nvars))
        profs.append(tuple(row))
    return profs


def simply_equivalent(a: PathSum, b: PathSum, var_cap: int = 8) -> bool:
    """Decide whether some variable bijection-with-negations maps a to b.

    Backtracking over variable images, pruned by per-variable cofactor
    profiles; exponential in the worst case, intended for small sums.
    """
    if a.num_vars > var_cap or b.num_vars > var_cap:
        raise VarCapError(
            f"{max(a.num_vars, b.num_vars)} variables exceed the cap {var_cap}")
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
