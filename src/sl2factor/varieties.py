"""Producing and transporting solution tuples of the word-factorization
equations.

A point is a `Word`: a tuple (x1, ..., xk) whose word of the recorded
shape multiplies out to a fixed matrix A.  Everything here re-checks
membership through the continuant route before returning, so a
constructed point is always a verified one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .continuants import vk_membership
from .matrices import Mat2, Word, elem, identity, letter_kind, shape_target
from .rings import RElem, Ring

ENUM_HALF_CAP = 10**8

# fixed alternating expansion of -I as a lower-start word:
# L(1) U(-1) L(2) U(-1) L(1)
MINUS_IDENTITY_ENTRIES = (1, -1, 2, -1, 1)


class MembershipError(ValueError):
    """A point failed the factorization equations it was claimed to satisfy."""


class BudgetError(RuntimeError):
    """An enumeration or search exceeded its configured budget."""


# the benchmark harness (bench/workloads.py) still builds its orbit seeds
# through this name; everything else uses Word
PointTuple = Word


# -- Euclidean factorization over the integers --------------------------


def _balanced_quotient(b: int, a: int) -> int:
    """q with |b - q*a| <= |a|/2 (ties keep the floor quotient)."""
    q, r = divmod(b, a)
    if 2 * abs(r) > abs(a):
        q += 1
    return q


def factor_euclid(A: Mat2) -> Word:
    """Factor a determinant-1 matrix with rational integer entries into a
    lower-start word, by running the Euclidean algorithm on the first
    column.

    Each step peels one elementary factor off the left.  The step reduces
    whichever of the column entries is currently larger in absolute value
    (ties go to reducing b); when the alternation demands the other kind
    of factor first, a zero entry realigns it.  A residual -I is expanded
    by the fixed word L(1) U(-1) L(2) U(-1) L(1).  The result is checked
    against the factorization equations before it is returned.
    """
    ring = A.ring
    for e in (A.a, A.c, A.b, A.d):
        if e.b != 0 or e.r != 1:
            raise ValueError("factor_euclid needs rational integer entries")
    if A.det() != 1:
        raise ValueError("factor_euclid needs determinant 1")
    a, c, b, d = A.a.a, A.c.a, A.b.a, A.d.a

    letters: list[int] = []  # kinds are implied: L at even index, U at odd

    def peel_lower(q: int):  # A = L(q) * rest
        nonlocal b, d
        b -= q * a
        d -= q * c
        letters.append(q)

    def peel_upper(q: int):  # A = U(q) * rest
        nonlocal a, c
        a -= q * b
        c -= q * d
        letters.append(q)

    while a != 0 and b != 0:
        expect_lower = len(letters) % 2 == 0
        prefer_lower = abs(b) >= abs(a)
        if expect_lower:
            peel_lower(_balanced_quotient(b, a) if prefer_lower else 0)
        else:
            peel_upper(_balanced_quotient(a, b) if not prefer_lower else 0)

    expect_lower = len(letters) % 2 == 0
    if b == 0:
        # residual (s c; 0 s) with s = a = d = +-1
        if a == 1:
            if c != 0:
                letters.extend([0, c] if expect_lower else [c])
        else:
            # residual = -I * U(-c)
            if expect_lower:
                letters.extend(MINUS_IDENTITY_ENTRIES)
                if c != 0:
                    letters.append(-c)
            else:
                # upper-start expansion of -I, last letter merged with U(-c)
                letters.extend([1, -1, 2, -1, 1 - c])
    else:
        # residual (0 c; b d) with c*b = -1; it is L((d-1)/c) U(c) L(b)
        tail = [(d - 1) // c, c, b]
        letters.extend(tail if expect_lower else [0] + tail)

    word = Word("lower", tuple(ring.el(x) for x in letters))
    if not vk_membership(A, word.entries, "lower"):
        raise AssertionError(f"factorization of {A} failed verification")
    return word


# -- length-3 closed form ------------------------------------------------


@dataclass(frozen=True)
class K3Solution:
    """Solution set of the length-3 equations: a unique point, nothing,
    or the one-parameter family (b - t, 0, t)."""

    kind: str  # "unique" | "empty" | "family"
    point: Word | None = None
    family_sum: RElem | None = None  # family case: x1 + x3 must equal this

    def family_point(self, t: RElem) -> Word:
        if self.kind != "family":
            raise ValueError("not a family solution")
        return Word("lower", (self.family_sum - t, t.ring.zero, t))


def solve_k3(A: Mat2) -> K3Solution:
    """Solve L(x1) U(x2) L(x3) = A exactly.

    c != 0 forces the single point ((d-1)/c, c, (a-1)/c) over the field;
    c = 0 leaves either nothing (a != 1) or the family (b - t, 0, t).
    """
    if A.det() != 1:
        raise ValueError("solve_k3 needs determinant 1")
    ring = A.ring
    if A.c:
        point = Word("lower", ((A.d - 1) / A.c, A.c, (A.a - 1) / A.c))
        if not vk_membership(A, point.entries, "lower"):
            raise AssertionError("closed-form solution failed verification")
        return K3Solution("unique", point)
    if A.a != 1:
        return K3Solution("empty")
    return K3Solution("family", None, A.b)


def fiber_lift(A: Mat2, tail: Sequence[RElem]) -> Word | None:
    """Lift a free tail (x4, ..., xk) to a full point of the length-k
    equations by peeling the trailing factors and solving the length-3
    core.

    Returns None when the core is unsolvable.  When the core degenerates
    to a family, the t = 0 representative comes back with the note
    "non-generic fiber".  Entries may land outside the ring; check
    `integral`.
    """
    ring = A.ring
    tail = tuple(tail)
    k = len(tail) + 3
    B = A
    for pos in range(k, 3, -1):
        B = B @ elem(letter_kind("lower", pos), -tail[pos - 4])
    sol = solve_k3(B)
    if sol.kind == "empty":
        return None
    if sol.kind == "unique":
        entries = sol.point.entries + tail
        note = None
    else:
        entries = sol.family_point(ring.zero).entries + tail
        note = "non-generic fiber"
    P = Word("lower", entries, note)
    if not vk_membership(A, P.entries, "lower"):
        raise AssertionError("lifted point failed verification")
    return P


# -- transports ----------------------------------------------------------


def _require_member(A: Mat2, P: Word):
    if not vk_membership(A, P.entries, P.shape):
        raise MembershipError(f"{P} does not solve the {P.shape} equations for {A}")


def pad(P: Word, A: Mat2, k_new: int) -> Word:
    """Extend a verified point with trailing zeros; zero letters multiply
    to the identity, so the matrix and the membership are unchanged."""
    if k_new < P.k:
        raise ValueError(f"cannot pad length {P.k} down to {k_new}")
    _require_member(A, P)
    zero = A.ring.zero
    Q = Word(P.shape, P.entries + (zero,) * (k_new - P.k))
    _require_member(A, Q)
    return Q


def convert_shape(P: Word, A: Mat2) -> tuple[Mat2, Word]:
    """Reread a lower-start point as an upper-start point.

    The same entries solve the upper-start equations for the half-turn
    involution of A (and the D-type equations for that same matrix).
    """
    if P.shape != "lower":
        raise ValueError("convert_shape starts from a lower-start point")
    _require_member(A, P)
    B = A.prime()
    Q = Word("upper", P.entries)
    _require_member(B, Q)
    return B, Q


def reverse_point(P: Word, A: Mat2) -> tuple[Mat2, Word]:
    """Reverse the coordinates of a lower-start point.

    The reversed tuple solves the lower-start equations for A.star()
    when k is odd and for A.transpose() when k is even.
    """
    if P.shape != "lower":
        raise ValueError("reverse_point starts from a lower-start point")
    _require_member(A, P)
    B = A.star() if P.k % 2 == 1 else A.transpose()
    Q = Word("lower", P.entries[::-1])
    _require_member(B, Q)
    return B, Q


# -- unit-product points --------------------------------------------------


def unit_product_points(ring: Ring, k: int, units: Sequence[RElem]) -> tuple[RElem, ...]:
    """Point on the product-one variety x1*...*xk = 1: the k-1 given units
    followed by the inverse of their product."""
    if k < 2:
        raise ValueError("need k >= 2")
    units = tuple(ring.el(u) for u in units)
    if len(units) != k - 1:
        raise ValueError(f"need exactly {k - 1} units, got {len(units)}")
    prod = ring.one
    for u in units:
        if not u.is_unit():
            raise ValueError(f"{u} is not a unit of {ring}")
        prod = prod * u
    last = prod.inverse()
    if prod * last != 1:
        raise AssertionError("unit product failed to invert")
    return units + (last,)


# -- bounded exhaustive enumeration ---------------------------------------


@dataclass(frozen=True)
class HeightBound:
    """Per-coordinate box: |numerator| and |sqrt coefficient| at most
    max_abs, denominators products of inverted primes with exponents at
    most denom_exp."""

    max_abs: int
    denom_exp: int = 0

    def __post_init__(self):
        if self.max_abs < 0 or self.denom_exp < 0:
            raise ValueError("bounds must be nonnegative")


def coordinate_box(ring: Ring, bound: HeightBound) -> list[RElem]:
    """All ring elements inside the box, in increasing value order."""
    denoms = [1]
    for p in ring.inverted_primes:
        denoms = [q * p**e for q in denoms for e in range(bound.denom_exp + 1)]
    span = range(-bound.max_abs, bound.max_abs + 1)
    vals = set()
    if ring.is_quadratic:
        for num in span:
            for w in span:
                for r in denoms:
                    vals.add(RElem(ring, num, w, r))
    else:
        for num in span:
            for r in denoms:
                vals.add(RElem(ring, num, 0, r))
    return sorted(vals)


def enumerate_points_bounded(A: Mat2, k: int, shape: str, bound: HeightBound, *,
                             half_cap: int = ENUM_HALF_CAP) -> list[Word]:
    """Every solution tuple of length k inside the height box, in
    lexicographic order of the entries.

    Meet in the middle: the word is split at k//2, all left half-products
    are tabulated by their matrix, and each right half-product is matched
    against the table.  Raises BudgetError when either half would exceed
    half_cap candidates.
    """
    if A.det() != 1:
        raise ValueError("enumeration target must have determinant 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    ring = A.ring
    target = shape_target(A, shape)
    if k == 0:
        ok = target == identity(ring)
        return [Word(shape, ())] if ok else []
    box = coordinate_box(ring, bound)
    j = k // 2
    if len(box) ** max(j, k - j) > half_cap:
        raise BudgetError(f"{len(box)}^{max(j, k - j)} half-words exceed the cap")

    table: dict[Mat2, list[tuple[RElem, ...]]] = {}
    for combo in itertools.product(box, repeat=j):
        M = identity(ring)
        for pos, x in enumerate(combo, start=1):
            M = M @ elem(letter_kind("lower", pos), x)
        table.setdefault(M, []).append(combo)

    out = []
    for combo in itertools.product(box, repeat=k - j):
        M = identity(ring)
        for offset, x in enumerate(combo):
            M = M @ elem(letter_kind("lower", j + 1 + offset), x)
        need = target @ M.inverse()
        for left in table.get(need, ()):
            xs = left + combo
            if vk_membership(target, xs, "lower"):  # fail-closed recheck
                out.append(xs)
    out.sort()
    return [Word(shape, xs) for xs in out]
