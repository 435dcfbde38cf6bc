"""Producing and transporting solution tuples of the word-factorization
equations.

A point is a `Word`: a tuple (x1, ..., xk) whose word of the recorded
shape multiplies out to a fixed matrix A.  Points are checked against
the continuant equations through two gates, the package's only callers
of `vk_membership` outside `continuants`.  `_require_member` checks a
point handed in by the caller and raises `MembershipError` (invalid
input).  `_verified` checks every point the package makes, here and in
`orbits`, `density` and the CLI, and raises `AssertionError` (a fault
of the program), so a constructed point is always a verified one.
The box search and the fiber peel multiply words out through one letter
step, not a `Mat2` per letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .continuants import vk_membership
from .matrices import (Mat2, Word, _times_elem, identity, letter_kind,
                       shape_target)
from .rings import RElem, Ring

ENUM_HALF_CAP = 10**6

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


def _require_member(A: Mat2, P: Word) -> Word:
    """Input gate: P, once it solves the equations of its shape for A."""
    if not vk_membership(A, P.entries, P.shape):
        raise MembershipError(f"{P} does not solve the {P.shape} equations for {A}")
    return P


def _verified(A: Mat2, P: Word) -> Word:
    """Output gate: P, once it solves the equations of its shape for A; a
    point the program made that fails them is a fault, never a result."""
    if not vk_membership(A, P.entries, P.shape):
        raise AssertionError(f"refusing non-member point {P} for {A}")
    return P


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
    shape_target(A, "lower")
    a, c, b, d = A.a.a, A.c.a, A.b.a, A.d.a

    letters: list[int] = []  # kinds are implied: L at even index, U at odd
    while a != 0 and b != 0:
        prefer_lower = abs(b) >= abs(a)
        if len(letters) % 2 == 0:  # A = L(q) * rest
            q = _balanced_quotient(b, a) if prefer_lower else 0
            b, d = b - q * a, d - q * c
        else:  # A = U(q) * rest
            q = 0 if prefer_lower else _balanced_quotient(a, b)
            a, c = a - q * b, c - q * d
        letters.append(q)

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

    return _verified(A, Word("lower", tuple(ring.el(x) for x in letters)))


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
    shape_target(A, "lower")
    if A.c:
        return K3Solution("unique", _verified(A, Word(
            "lower", ((A.d - 1) / A.c, A.c, (A.a - 1) / A.c))))
    if A.a != 1:
        return K3Solution("empty")
    return K3Solution("family", None, A.b)


def fiber_lift(A: Mat2, tail: Sequence[RElem]) -> Word | None:
    """Lift a free tail (x4, ..., xk) to a full point of the length-k
    equations by peeling the trailing factors and solving the length-3
    core.

    Returns None when the core is unsolvable.  When the core degenerates
    to a family, the t = 0 representative comes back.  The lift lies on
    a non-generic fiber exactly when x2 = 0: x2 is c'(tail), the
    top-right entry of the peeled matrix, and the unique branch needs
    c' != 0.  Entries may land outside the ring; check `integral`.
    """
    tail = tuple(tail)
    m = (A.a, A.c, A.b, A.d)
    for pos in range(len(tail) + 3, 3, -1):
        m = _times_elem(m, letter_kind("lower", pos), -tail[pos - 4])
    sol = solve_k3(Mat2(*m))
    if sol.kind == "empty":
        return None
    core = sol.point if sol.kind == "unique" else sol.family_point(A.ring.zero)
    return _verified(A, Word("lower", core.entries + tail))


# -- transports ----------------------------------------------------------


def pad(P: Word, A: Mat2, k_new: int) -> Word:
    """Extend a verified point with trailing zeros; zero letters multiply
    to the identity, so the matrix and the membership are unchanged."""
    if k_new < P.k:
        raise ValueError(f"cannot pad length {P.k} down to {k_new}")
    _require_member(A, P)
    zero = A.ring.zero
    return _verified(A, Word(P.shape, P.entries + (zero,) * (k_new - P.k)))


def convert_shape(P: Word, A: Mat2) -> tuple[Mat2, Word]:
    """Reread a lower-start point as an upper-start point.

    The same entries solve the upper-start equations for the half turn
    A.prime() of A (and the D-type equations for that same matrix).
    """
    if P.shape != "lower":
        raise ValueError("convert_shape starts from a lower-start point")
    _require_member(A, P)
    B = A.prime()
    return B, _verified(B, Word("upper", P.entries))


def reverse_point(P: Word, A: Mat2) -> tuple[Mat2, Word]:
    """Reverse the coordinates of a lower-start point.

    The reversed tuple solves the lower-start equations for A.star()
    when k is odd and for A.transpose() when k is even.
    """
    if P.shape != "lower":
        raise ValueError("reverse_point starts from a lower-start point")
    _require_member(A, P)
    B = A.star() if P.k % 2 == 1 else A.transpose()
    return B, _verified(B, Word("lower", P.entries[::-1]))


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
    # with MAX 0 every numerator is 0, whatever the denominator
    for p in ring.inverted_primes if bound.max_abs else ():
        denoms = [q * p**e for q in denoms for e in range(bound.denom_exp + 1)]
    span = range(-bound.max_abs, bound.max_abs + 1)
    return sorted({RElem(ring, num, w, r) for num in span
                   for w in (span if ring.is_quadratic else (0,))
                   for r in denoms})


def _box_size(ring: Ring, bound: HeightBound, limit: int) -> int | None:
    """len(coordinate_box(ring, bound)), counted without building the box,
    or None when the box has denominators other than 1 and a lower bound
    on it, (2*M+1)^q or (E+1)^r, exceeds `limit`; here M = MAX,
    E = DENOM_EXP, q = 2 in quadratic rings (else 1) and r is the number
    of inverted primes.

    A value is in the box exactly when its normal form (a + b*w)/den has
    |a|, |b| <= M and den among the denominators, so the count is that
    of such triples with gcd(a, b, den) = 1, by inclusion-exclusion over
    the sets T of inverted primes dividing all three: the primes of T
    divide E^|T| (E+1)^(r-|T|) of the denominators and
    (2*floor(M/prod T)+1)^q of the numerator pairs.  The pair (0, 0)
    counts once over all sets together (their signed terms sum to 1,
    the value 0), so the sum runs over the other pairs, which need
    prod T <= M.
    """
    M, E = bound.max_abs, bound.denom_exp
    q = 2 if ring.is_quadratic else 1
    pairs = (2 * M + 1) ** q
    # factoring m may refuse the ring (ParseError), before any budget
    primes = ring.inverted_primes
    if not (M and E and primes):
        return pairs
    r = len(primes)
    if (pairs > limit or r > limit.bit_length() or E >= limit
            or (E + 1) ** r > limit):
        return None
    sets = [(1, 0)]  # (product, size) of each T with product <= M
    for p in primes:
        sets += [(t * p, s + 1) for t, s in sets if t * p <= M]
    return 1 + sum((-E) ** s * (E + 1) ** (r - s) * ((2 * (M // t) + 1) ** q - 1)
                   for t, s in sets)


def _count_text(n: int | None, cap: int) -> str:
    """n in decimal, or "more than cap" when the box was not counted
    (None) or its count is too long for Python's int-to-str limit."""
    if n is not None:
        try:
            return str(n)
        except ValueError:
            pass
    return f"more than {cap}"


def _fields(m: tuple) -> tuple[int, ...]:
    # RElem fields are canonical: equal keys are equal matrices
    a, c, b, d = m
    return (a.a, a.b, a.r, c.a, c.b, c.r, b.a, b.b, b.r, d.a, d.b, d.r)


def _walk(start: tuple, kinds: Sequence[str], letters: Sequence[RElem]):
    """Yield (indices, entries of start·elem(kinds[0], letters[i1])·…) for
    every word, depth first in itertools.product order: words that share
    a prefix share its product.  The stack is explicit and drops a product
    once its last child is taken, so a long word costs no recursion and
    two list slots per letter."""
    path, prods, i = [], [start], 0
    while True:
        if len(path) == len(kinds):
            yield tuple(path), prods[-1]
        elif i < len(letters):
            M = prods[-1]
            if i == len(letters) - 1:
                prods[-1] = None
            prods.append(_times_elem(M, kinds[len(path)], letters[i]))
            path.append(i)
            i = 0
            continue
        if not path:
            return
        i = path.pop() + 1
        prods.pop()


def enumerate_points_bounded(A: Mat2, k: int, shape: str,
                             bound: HeightBound) -> list[Word]:
    """Every solution tuple of length k inside the height box, in
    lexicographic order of the entries.

    Meet in the middle at j = k//2, each half walked with shared
    prefixes: the left halves from the identity into a table keyed by
    their entries, the right halves from the target, peeling xk, ...,
    x(j+1) off its end, which leaves target·elem(-xk)·…·elem(-x(j+1)),
    the very left product a match needs.  Raises BudgetError when a half
    of e letters over a box of n values would take more than
    ENUM_HALF_CAP letters (the module value at call time), e·n^e.  The
    gate is decided before the box is built, on its count (`_box_size`),
    and never raises n past the cap's bit length.  Every match passes
    the output gate, so a refused recheck is an AssertionError, never a
    dropped point.
    """
    target = shape_target(A, shape)
    if k < 0:
        raise ValueError("k must be >= 0")
    ring = A.ring
    if k == 0:
        ok = target == identity(ring)
        return [Word(shape, ())] if ok else []
    j = k // 2
    e = max(j, k - j)
    cap = ENUM_HALF_CAP
    # a half of e >= 1 letters over more than cap values exceeds the cap
    n = _box_size(ring, bound, cap)
    # with n >= 2, n^e > cap once e exceeds its bit length
    if n is None or (n > 1 and e > cap.bit_length()) or e * n**e > cap:
        raise BudgetError(f"{_count_text(n, cap)}^{e} half-words of {e} "
                          f"letters exceed the cap")
    box = coordinate_box(ring, bound)

    one, zero = ring.one, ring.zero
    table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    kinds = [letter_kind("lower", pos) for pos in range(1, j + 1)]
    for left, m in _walk((one, zero, zero, one), kinds, box):
        table.setdefault(_fields(m), []).append(left)
    out = []
    kinds = [letter_kind("lower", pos) for pos in range(k, j, -1)]
    for right, need in _walk((target.a, target.c, target.b, target.d), kinds,
                             [-x for x in box]):
        for left in table.get(_fields(need), ()):
            out.append(_verified(A, Word(
                shape, tuple(box[i] for i in left + right[::-1]))))
    out.sort(key=lambda P: P.entries)
    return out
