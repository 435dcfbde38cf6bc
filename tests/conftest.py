"""Shared fixtures and independent oracles.

The oracle here deliberately avoids the package's own matrix type: it
models ring elements as pairs of Fractions (p, q) standing for p + q*w
and multiplies 2x2 matrices entry by entry.  Agreement between the two
code paths is what most tests assert.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sl2factor import (Mat2, RElem, Ring, Word, elem, identity, make_ring,
                       t_matrix, word_to_matrix)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def Z():
    return make_ring("Z")


@pytest.fixture(scope="session")
def Z_half():
    return make_ring("Z[1/2]")


@pytest.fixture(scope="session")
def Z_sixth():
    return make_ring("Z[1/6]")


@pytest.fixture(scope="session")
def Zr2():
    return make_ring("Z[sqrt(2)]")


@pytest.fixture(scope="session")
def Zr3():
    return make_ring("Z[sqrt(3)]")


@pytest.fixture(scope="session")
def Zr2_half():
    return make_ring("Z[sqrt(2),1/2]")


# -- fraction-pair oracle -------------------------------------------------


def opair(x: RElem) -> tuple[Fraction, Fraction]:
    return Fraction(x.a, x.r), Fraction(x.b, x.r)


def omul_el(d, x, y):
    p1, q1 = x
    p2, q2 = y
    return (p1 * p2 + q1 * q2 * (d or 0), p1 * q2 + q1 * p2)


def oadd_el(x, y):
    return (x[0] + y[0], x[1] + y[1])


def omat(A: Mat2):
    return (opair(A.a), opair(A.c), opair(A.b), opair(A.d))


def omul(d, M, N):
    a1, c1, b1, d1 = M
    a2, c2, b2, d2 = N
    return (
        oadd_el(omul_el(d, a1, a2), omul_el(d, c1, b2)),
        oadd_el(omul_el(d, a1, c2), omul_el(d, c1, d2)),
        oadd_el(omul_el(d, b1, a2), omul_el(d, d1, b2)),
        oadd_el(omul_el(d, b1, c2), omul_el(d, d1, d2)),
    )


def oword_lower(ring: Ring, xs) -> tuple:
    """Alternating product L(x1)U(x2)... computed entirely in Fractions."""
    one, zero = Fraction(1), Fraction(0)
    M = ((one, zero), (zero, zero), (zero, zero), (one, zero))
    for pos, x in enumerate(xs, start=1):
        xp = opair(x)
        if pos % 2 == 1:  # L(x): a=1 c=0 b=x d=1
            E = ((one, zero), (zero, zero), xp, (one, zero))
        else:  # U(x)
            E = ((one, zero), xp, (zero, zero), (one, zero))
        M = omul(ring.d, M, E)
    return M


def assert_matches_oracle(ring: Ring, xs):
    got = word_to_matrix(Word("lower", tuple(xs)), ring=ring)
    assert omat(got) == oword_lower(ring, xs)


def elem_product(ring: Ring, shape: str, xs) -> Mat2:
    """A word's matrix as the literal product of the public generators and
    `Mat2 @`: L(x1) U(x2) ... for lower, U(x1) L(x2) ... for upper, and
    D(x1) ... D(xk) t^k for D words."""
    M = identity(ring)
    for pos, x in enumerate(xs, start=1):
        if shape == "D":
            kind = "D"
        else:
            kind = "L" if (pos % 2 == 1) == (shape == "lower") else "U"
        M = M @ elem(kind, x)
    if shape == "D":
        for _ in xs:
            M = M @ t_matrix(ring)
    return M


def congruent_mod(x: RElem, y, modulus: RElem) -> bool:
    """True when (x - y)/modulus lies in the ring.  modulus must be nonzero."""
    if not modulus:
        raise ZeroDivisionError("zero modulus")
    return (x - y).div_exact(modulus) is not None


# -- random data helpers --------------------------------------------------


def rand_int_word(rng, ring: Ring, k: int, span: int) -> tuple[RElem, ...]:
    return tuple(ring.el(rng.randint(-span, span)) for _ in range(k))


def rand_matrix(rng, ring: Ring, k: int = 6, span: int = 5) -> Mat2:
    xs = rand_int_word(rng, ring, k, span)
    return word_to_matrix(Word("lower", xs), ring=ring)
