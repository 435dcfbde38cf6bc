"""Exact arithmetic in S-integer rings: Z, Z[1/m], and the real quadratic
orders Z[sqrt(d)], each optionally with a set of inverted rational primes.

Every element is stored as (a + b*sqrt(d))/r with arbitrary-precision
integers a, b, r, normalized so that r > 0 and gcd(a, b, r) = 1.  The
representation is unique, so equality of elements is equality of the
stored fields.  Elements are kept in this normal form: the public
constructor validates and normalizes whatever it is given, while the
arithmetic operators build results from fields of normal operands and
reduce only when a denominator other than 1 appears.  The same value
type also represents arbitrary elements of the fraction field
(denominators not supported on the inverted primes); `is_integral`
tells the two apart, and exact division back into the ring goes
through `div_exact`.  Arithmetic and comparisons mix elements only
with Python ints, which are promoted; any other operand (a float, a
Fraction, a string, None) is a TypeError.

Element grammar, read by `Ring.parse` after stripping whitespace:

    integers     "-12"          [+-]digits
    fractions    "7/8"          [+-]digits/digits
    quadratic    "(3-2*w)/4"    ([+-]digits[+-]digits*w), then optionally
                                /digits; w stands for sqrt(d)

The canonical string form of an element is whitespace-free and round-
trips bit for bit: fractions are reduced with denominator > 0, "/r" is
omitted when r = 1, and elements with b = 0 take the rational form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, total_ordering
from math import gcd, isqrt, lcm
from typing import NamedTuple, Sequence

ORDER_SEARCH_CAP = 10**6
# bit cap on the Pell search; the fundamental unit of every Z[sqrt(d)]
# with squarefree d <= 10^6 fits with room (the largest, d = 978091,
# has 4461 bits)
PELL_BITS_CAP = 8192
# ring specs are factored by trial division up to this bound, then by
# Miller-Rabin on what is left
TRIAL_DIVISION_BOUND = 10**6
# Miller-Rabin with the first 13 prime bases is deterministic below the
# least strong pseudoprime to all of them (Sorenson and Webster, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


class ParseError(ValueError):
    """Malformed ring spec or element string."""


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases _MR_BASES: a proof of primality for
    n < _MR_LIMIT, a probable-prime test above it."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    e, s = n - 1, 0
    while not e & 1:
        e >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, e, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trial_divide(n: int) -> tuple[dict[int, int], int]:
    """Exponents of the prime factors of n >= 1 up to TRIAL_DIVISION_BOUND,
    and the cofactor left.  The cofactor is 1, a prime, or a number whose
    prime factors all exceed the bound: division stops early once it is
    a proven prime or below p * p."""
    powers: dict[int, int] = {}
    p = 2
    done = n < _MR_LIMIT and _is_prime(n)
    while not done and p <= TRIAL_DIVISION_BOUND and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            powers[p] = e
            done = n < _MR_LIMIT and _is_prime(n)
        p += 1 if p == 2 else 2
    return powers, n


def _is_proven_prime(cofactor: int) -> bool:
    """Primality of a cofactor from `_trial_divide`, when it can be
    proven; below the square of the bound it has one prime factor."""
    return (cofactor < TRIAL_DIVISION_BOUND**2
            or cofactor < _MR_LIMIT and _is_prime(cofactor))


def _prime_factors(n: int) -> tuple[int, ...]:
    """Ascending distinct prime factors of |n|; ParseError when the
    part of n without prime factors up to TRIAL_DIVISION_BOUND is not a
    proven prime."""
    n = abs(n)
    powers, rest = _trial_divide(n)
    if rest <= 1:
        return tuple(powers)
    if not _is_proven_prime(rest):
        raise ParseError(f"cannot factor {n}: its cofactor {rest} has no "
                         f"prime factor up to {TRIAL_DIVISION_BOUND} and is "
                         f"not a proven prime")
    return (*powers, rest)


def _is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    powers, rest = _trial_divide(n)
    if any(e > 1 for e in powers.values()):
        return False
    if rest == 1 or _is_proven_prime(rest):
        return True
    if isqrt(rest) ** 2 == rest:
        return False
    # rest has at most two prime factors below the cube of the bound,
    # and is not a square
    if rest < TRIAL_DIVISION_BOUND**3:
        return True
    raise ParseError(f"cannot decide whether {n} is squarefree: its cofactor "
                     f"{rest} has no prime factor up to "
                     f"{TRIAL_DIVISION_BOUND} and is not a proven prime")


def _strip_part(n: int, m: int) -> int:
    """Divide out of |n| every prime factor it shares with m.

    Every prime exponent in n is below n.bit_length(), so m to that power
    holds each shared prime at least as often as n does, and one gcd
    finds the whole m-part of n.
    """
    n = abs(n)
    if n == 0:
        return 0
    return n // gcd(n, pow(m, n.bit_length(), n))


@dataclass(frozen=True)
class Ring:
    """Descriptor of a supported coefficient ring.

    d is None for the rational kinds (Z when m == 1, Z[1/m] otherwise)
    and a squarefree integer >= 2 for the real quadratic order
    Z[sqrt(d)]; the prime factors of m are the inverted primes.
    """

    d: int | None = None
    m: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.d is not None:
            # make_ring appends the spec to these messages
            if self.d < 2:
                raise ValueError("d must be >= 2")
            if not _is_squarefree(self.d):
                raise ValueError("d must be squarefree")

    @property
    def is_quadratic(self) -> bool:
        return self.d is not None

    @cached_property
    def inverted_primes(self) -> tuple[int, ...]:
        # cached on the instance: factoring a large m is slow, and every
        # box search asks for the primes again
        return _prime_factors(self.m) if self.m > 1 else ()

    @property
    def has_infinite_units(self) -> bool:
        return self.is_quadratic or self.m > 1

    @property
    def zero(self) -> RElem:
        return _normal(self, 0, 0, 1)

    @property
    def one(self) -> RElem:
        return _normal(self, 1, 0, 1)

    def el(self, a, b: int = 0, r: int = 1) -> RElem:
        if isinstance(a, RElem):
            if a.ring != self:
                raise RingMismatchError(f"element of {a.ring} used in {self}")
            return a
        return RElem(self, a, b, r)

    def parse(self, s: str) -> RElem:
        """Inverse of str(element) for this ring; accepts unreduced input."""
        match = _ELEMENT_RE.fullmatch(s.strip())
        if not match:
            raise ParseError(f"cannot parse ring element {s!r}")
        a, qa, qb, r = match.groups()
        if qb is not None and not self.is_quadratic:
            raise ParseError(f"{s!r} has a sqrt part but the ring is {self}")
        return RElem(self, int(a or qa), int(qb or 0), int(r or 1))

    def from_json(self, v) -> RElem:
        """Element from a JSON payload value (bare integer or canonical string)."""
        if isinstance(v, bool):
            raise ParseError(f"not a ring element: {v!r}")
        if isinstance(v, int):
            return RElem(self, v)
        if isinstance(v, str):
            return self.parse(v)
        raise ParseError(f"not a ring element: {v!r}")

    def fundamental_unit(self) -> RElem:
        """Smallest unit > 1 of Z[sqrt(d)] (independent of the inverted primes)."""
        if not self.is_quadratic:
            raise ValueError("fundamental unit requires a quadratic ring")
        x, y = _pell_min_unit(self.d)
        return RElem(self, x, y)

    def unit_generators(self) -> tuple[RElem, ...]:
        """The fundamental unit (quadratic rings), then the inverted
        rational primes in ascending order, then -1.

        They generate the whole unit group of Z, of Z[1/m] and of
        Z[sqrt(d)] with no inverted primes.  Otherwise they generate
        only a subgroup: an inverted prime that splits or ramifies in
        Z[sqrt(d)] adds units outside it, such as sqrt(2) in
        Z[sqrt(2),1/2] or 3+sqrt(2) in Z[sqrt(2),1/7]."""
        return self._unit_generators

    @cached_property
    def _unit_generators(self) -> tuple[RElem, ...]:
        gens: list[RElem] = []
        if self.is_quadratic:
            gens.append(self.fundamental_unit())
        gens.extend(RElem(self, p) for p in self.inverted_primes)
        gens.append(RElem(self, -1))
        return tuple(gens)

    def __str__(self) -> str:
        if self.d is None:
            return "Z" if self.m == 1 else f"Z[1/{self.m}]"
        if self.m == 1:
            return f"Z[sqrt({self.d})]"
        return f"Z[sqrt({self.d}),1/{self.m}]"


# groups: a of a rational numerator, or a and b of "(a+b*w)"; then r
_ELEMENT_RE = re.compile(
    r"(?:([+-]?\d+)|\(([+-]?\d+)([+-]\d+)\*w\))(?:/(\d+))?")

# groups: d, then m after sqrt(d) or m alone
_RING_SPEC_RE = re.compile(
    r"Z(?:\[(?:sqrt\((\d+)\)(?:,1/(\d+))?|1/(\d+))\])?")


def make_ring(spec: str) -> Ring:
    """Parse a ring spec: "Z", "Z[1/m]", "Z[sqrt(d)]", or "Z[sqrt(d),1/m]".

    Ring validates d; a rejected d is a ParseError that names the spec.
    """
    match = _RING_SPEC_RE.fullmatch(spec.strip())
    if not match:
        raise ParseError(f"unrecognized ring spec {spec!r}")
    d, m_quad, m_rat = match.groups()
    m = m_quad or m_rat
    if m is not None and int(m) < 2:
        raise ParseError(f"inverted modulus must be >= 2 in {spec!r}")
    try:
        return Ring(None if d is None else int(d), 1 if m is None else int(m))
    except ParseError:  # an undecidable d keeps its own message
        raise
    except ValueError as e:
        raise ParseError(f"{e} in {spec!r}") from None


@total_ordering
class RElem:
    """One exact element (a + b*sqrt(d))/r of a ring's fraction field.

    Instances are immutable by convention; all operators return new
    elements.  Mixed arithmetic with Python ints promotes the int; any
    other operand is a TypeError.
    """

    __slots__ = ("ring", "a", "b", "r")

    def __init__(self, ring: Ring, a: int, b: int = 0, r: int = 1):
        if r == 0:
            raise ZeroDivisionError("zero denominator")
        if b and not ring.is_quadratic:
            raise ValueError(f"sqrt coefficient in the rational ring {ring}")
        if r < 0:
            a, b, r = -a, -b, -r
        g = gcd(a, b, r)
        if g > 1:
            a, b, r = a // g, b // g, r // g
        self.ring = ring
        self.a = a
        self.b = b
        self.r = r

    # -- coercion ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RElem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatchError(
                    f"mixed rings: {self.ring} and {other.ring}")
            return other
        if isinstance(other, int):
            return _normal(self.ring, other, 0, 1)
        raise TypeError(f"ring elements mix only with ints, "
                        f"not {type(other).__name__}")

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if self.r == o.r == 1:
            return _normal(self.ring, self.a + o.a, self.b + o.b, 1)
        return _reduced(self.ring,
                        self.a * o.r + o.a * self.r,
                        self.b * o.r + o.b * self.r,
                        self.r * o.r)

    __radd__ = __add__

    def __neg__(self):
        return _normal(self.ring, -self.a, -self.b, self.r)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        if self.b and o.b:
            a = self.a * o.a + self.ring.d * self.b * o.b
        else:
            a = self.a * o.a
        return _reduced(self.ring, a, self.a * o.b + self.b * o.a,
                        self.r * o.r)

    __rmul__ = __mul__

    def inverse(self) -> RElem:
        """Inverse in the fraction field."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        d = self.ring.d or 0
        n = self.a * self.a - d * self.b * self.b
        # n != 0: d is squarefree, so a^2 = d b^2 forces a = b = 0
        s = self.r if n > 0 else -self.r
        return _reduced(self.ring, s * self.a, -s * self.b, abs(n))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        out = _normal(self.ring, 1, 0, 1)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def is_integral(self) -> bool:
        """True when the element lies in the ring itself (denominator
        supported on the inverted primes)."""
        return self.r == 1 or _strip_part(self.r, self.ring.m) == 1

    def is_unit(self) -> bool:
        """True when the element and its inverse both lie in the ring."""
        if not self:
            return False
        return self.is_integral() and self.inverse().is_integral()

    def div_exact(self, other) -> RElem | None:
        """self/other when the quotient lies in the ring, else None."""
        o = self._coerce(other)
        if not o:
            raise ZeroDivisionError("division by zero")
        q = self * o.inverse()
        return q if q.is_integral() else None

    # -- order and identity --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, RElem):
            return ((self.ring is other.ring or self.ring == other.ring)
                    and self.a == other.a
                    and self.b == other.b and self.r == other.r)
        if isinstance(other, int):
            return self.b == 0 and self.r == 1 and self.a == other
        return NotImplemented

    def __hash__(self):
        # equal elements share a ring, so the ring need not be hashed;
        # __eq__ still tells equal fields of two rings apart
        return hash((self.a, self.b, self.r))

    def __lt__(self, other):
        o = self._coerce(other)
        # (a1 + b1 w)/r1 < (a2 + b2 w)/r2  <=>  p < q*w  with the values below
        p = self.a * o.r - o.a * self.r
        q = o.b * self.r - self.b * o.r
        if q == 0:
            return p < 0
        d = self.ring.d or 0
        if q > 0:
            return p < 0 or p * p < q * q * d
        return p < 0 and p * p > q * q * d

    # -- text ------------------------------------------------------------

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a) if self.r == 1 else f"{self.a}/{self.r}"
        core = f"({self.a}{self.b:+d}*w)"
        return core if self.r == 1 else f"{core}/{self.r}"

    def __repr__(self) -> str:
        return f"RElem({self.ring}, {self})"


def _normal(ring: Ring, a: int, b: int, r: int) -> RElem:
    """Element from fields already in normal form (r > 0, gcd(a, b, r) = 1,
    b = 0 in a rational ring), taken as they are."""
    x = object.__new__(RElem)
    x.ring = ring
    x.a = a
    x.b = b
    x.r = r
    return x


def _reduced(ring: Ring, a: int, b: int, r: int) -> RElem:
    """Element from fields with r > 0, divided by their common content;
    an integral denominator r = 1 needs no gcd."""
    if r != 1:
        g = gcd(a, b, r)
        if g != 1:
            a, b, r = a // g, b // g, r // g
    return _normal(ring, a, b, r)


def _numerators(ring: Ring, xs: Sequence[RElem]
                ) -> tuple[int, list[tuple[int, int]]]:
    """Common denominator R = lcm of the denominators of xs, and the
    numerator pairs (a_j, b_j) with x_j = (a_j + b_j*w)/R."""
    xs = tuple(xs)  # read twice below; a tuple is not copied
    R = 1
    for x in xs:
        if x.ring is not ring and x.ring != ring:
            raise RingMismatchError(f"mixed rings: {ring} and {x.ring}")
        if x.r != 1:
            R = lcm(R, x.r)
    if R == 1:
        return 1, [(x.a, x.b) for x in xs]
    return R, [(x.a * (R // x.r), x.b * (R // x.r)) for x in xs]


def _pell_min_unit(d: int) -> tuple[int, int]:
    """Smallest (x, y) with y >= 1 and x^2 - d*y^2 = 1 or -1, from the
    continued fraction expansion of sqrt(d).

    The convergent p/q of each step has p^2 - d*q^2 = +-Q for the next
    complete quotient's denominator Q, so Q = 1 marks the solution.
    RuntimeError once p exceeds PELL_BITS_CAP bits.
    """
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while p.bit_length() <= PELL_BITS_CAP:
        m = den * a - m
        den = (d - m * m) // den
        if den == 1:
            return p, q
        a = (a0 + m) // den
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    raise RuntimeError(f"continued fraction of sqrt({d}) did not close "
                       f"within {PELL_BITS_CAP} bits")


class UnitsResult(NamedTuple):
    """Outcome of a search for units congruent to 1.  `stalled` lists
    generators whose order in the quotient passed the step cap; over a
    ring without `has_infinite_units`, `units` is exhaustive."""

    units: tuple[RElem, ...]
    stalled: tuple[RElem, ...]


def units_congruent_one(modulus: RElem, count: int) -> UnitsResult:
    """Up to `count` distinct units v != 1 with v congruent to 1 mod `modulus`.

    Units come out as powers g**(j*order) of the fixed generator set,
    where order is the multiplicative order of g in the quotient by the
    modulus, found by `_order_finder` within ORDER_SEARCH_CAP steps (the
    module value at call time), in the ring of the modulus.
    """
    ring = modulus.ring
    if not modulus:
        raise ZeroDivisionError("zero modulus")
    if not modulus.is_integral():
        raise ValueError(f"modulus {modulus} is not in {ring}")
    if count < 0:
        raise ValueError("count must be >= 0")
    one = ring.one
    order_of = _order_finder(modulus)

    orders: dict[RElem, int] = {}
    stalled: list[RElem] = []
    for g in ring.unit_generators():
        order = order_of(g)
        if order is None:
            stalled.append(g)
        else:
            orders[g] = order

    units: list[RElem] = []
    seen: set[RElem] = set()
    # -1 is the only torsion generator; without another (over Z) one
    # pass is exhaustive and yields -1 exactly when its order is 1
    can_grow = any(g != -1 for g in orders)
    j = 1
    while len(units) < count:
        for g, o in orders.items():
            v = g ** (j * o)
            if v != one and v not in seen:
                seen.add(v)
                units.append(v)
                if len(units) >= count:
                    break
        if not can_grow:
            break
        j += 1
    return UnitsResult(tuple(units), tuple(stalled))


def _order_finder(modulus: RElem):
    """Return a function giving the multiplicative order of a unit
    generator (a + b*w with integer a, b) in the quotient by `modulus`,
    or None when it exceeds ORDER_SEARCH_CAP.

    Up to a unit, the modulus is c*(a + b*w) with a + b*w primitive.  Its
    ideal meets Z in n*Z, n = c*|N(a + b*w)| with the inverted primes
    stripped, so powers run on integer coordinates mod n, and x = 1 mod
    the ideal exactly when n divides both coordinates of
    (x - 1)*(a - b*w).  Rational rings are the case d = b = 0.
    """
    d = modulus.ring.d or 0
    c = gcd(modulus.a, modulus.b)
    a, b = modulus.a // c, modulus.b // c
    n = _strip_part(c * (a * a - d * b * b), modulus.ring.m)
    cap = ORDER_SEARCH_CAP

    def order_of(g: RElem):
        ga, gb = g.a % n, g.b % n
        x, y = ga, gb
        for e in range(1, cap + 1):
            t = x - 1
            if not (t * a - d * y * b) % n and not (y * a - t * b) % n:
                return e
            x, y = (x * ga + d * y * gb) % n, (x * gb + y * ga) % n
        return None

    return order_of
