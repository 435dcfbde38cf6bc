"""Continuant recurrence, the closed-form word matrix, and membership."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2factor import (
    Mat2,
    RingMismatchError,
    Word,
    continuant,
    make_ring,
    membership_residuals,
    vk_membership,
    word_matrix_by_continuants,
    word_to_matrix,
)

from conftest import rand_int_word


def els(ring, *vals):
    return tuple(ring.el(v) for v in vals)


def test_continuant_base_cases(Z):
    assert continuant(Z, ()) == 1
    assert continuant(Z, els(Z, 7)) == 7


def test_continuant_examples(Z):
    assert continuant(Z, els(Z, 2, 3)) == 7
    assert continuant(Z, els(Z, 1, 2, 3)) == 10
    assert continuant(Z, els(Z, 1, 1, 1, 1)) == 5


def test_continuant_all_ones_is_fibonacci(Z):
    fib = [1, 1]
    while len(fib) < 12:
        fib.append(fib[-1] + fib[-2])
    for n in range(11):
        assert continuant(Z, els(Z, *([1] * n))) == fib[n]


def test_continuant_polynomial_oracles(rng, Z):
    # K_2 = x1*x2 + 1, K_3 = x1*x2*x3 + x1 + x3,
    # K_4 = x1*x2*x3*x4 + x1*x2 + x1*x4 + x3*x4 + 1
    for _ in range(50):
        x1, x2, x3, x4 = (rng.randint(-9, 9) for _ in range(4))
        assert continuant(Z, els(Z, x1, x2)) == x1 * x2 + 1
        assert continuant(Z, els(Z, x1, x2, x3)) == x1 * x2 * x3 + x1 + x3
        assert continuant(Z, els(Z, x1, x2, x3, x4)) == (
            x1 * x2 * x3 * x4 + x1 * x2 + x1 * x4 + x3 * x4 + 1
        )


@settings(max_examples=60)
@given(vals=st.lists(st.integers(-30, 30), max_size=9))
def test_continuant_reversal_symmetry(vals):
    ring = make_ring("Z")
    xs = els(ring, *vals)
    assert continuant(ring, xs) == continuant(ring, xs[::-1])


def test_word_matrix_examples(Z):
    got = word_matrix_by_continuants(Z, els(Z, 0, 1, 1))
    assert got == Mat2(Z.el(2), Z.el(1), Z.el(1), Z.el(1))
    got = word_matrix_by_continuants(Z, els(Z, 9))
    assert got == Mat2(Z.el(1), Z.el(0), Z.el(9), Z.el(1))
    assert word_matrix_by_continuants(Z, ()) == word_to_matrix(
        Word("lower", ()), ring=Z
    )


def test_word_matrix_agrees_with_product(rng, Z, Z_sixth, Zr2, Zr2_half):
    for ring in (Z, Z_sixth, Zr2, Zr2_half):
        for trial in range(60):
            k = rng.randint(0, 12)
            if trial % 3:
                xs = rand_int_word(rng, ring, k, 8)
            else:  # fraction-field entries, denominators 1..9 (mostly off the ring)
                xs = tuple(
                    ring.el(rng.randint(-8, 8),
                            rng.randint(-8, 8) if ring.is_quadratic else 0,
                            rng.randint(1, 9))
                    for _ in range(k))
            assert word_matrix_by_continuants(ring, xs) == word_to_matrix(
                Word("lower", xs), ring=ring
            )


@settings(max_examples=40)
@given(vals=st.lists(st.integers(-20, 20), min_size=1, max_size=9))
def test_word_matrix_determinant_identity(vals):
    # det = 1 encodes K_k(x)K_(k-2)(inner) - K_(k-1)(tail)K_(k-1)(head) = +-1
    ring = make_ring("Z")
    assert word_matrix_by_continuants(ring, els(ring, *vals)).det() == 1


def test_membership_examples(Z):
    A = Mat2(Z.el(2), Z.el(3), Z.el(3), Z.el(5))
    assert vk_membership(A, els(Z, 1, 1, 1, 1))
    assert vk_membership(A, iter(els(Z, 1, 1, 1, 1)))
    assert not vk_membership(A, els(Z, 1, 1, 1, 2))
    I = word_to_matrix(Word("lower", ()), ring=Z)
    for t in (-3, 0, 2):
        assert vk_membership(I, els(Z, t, 0, -t))


def test_membership_residuals_zero_iff_member(rng, Z):
    for _ in range(40):
        xs = rand_int_word(rng, Z, rng.randint(1, 7), 5)
        A = word_to_matrix(Word("lower", xs))
        res = membership_residuals(A, xs)
        assert all(v == 0 for v in res)
        bumped = xs[:-1] + (xs[-1] + Z.el(1),)
        assert any(v != 0 for v in membership_residuals(A, bumped))


def test_membership_shapes(rng, Z, Zr2):
    # one tuple, three shape readings: lower against A, upper and D
    # against the half-turn of the matrix they evaluate to
    for ring in (Z, Zr2):
        for _ in range(25):
            xs = rand_int_word(rng, ring, rng.randint(1, 6), 5)
            A = word_to_matrix(Word("lower", xs))
            assert vk_membership(A, xs, "lower")
            B = word_to_matrix(Word("upper", xs))
            assert vk_membership(B, xs, "upper")
            assert vk_membership(B, xs, "D")
            assert B == A.prime()


def test_membership_rejects_bad_targets(Z, Zr2):
    # checked in this order: determinant, shape, then the entries' ring
    t = Mat2(Z.el(0), Z.el(1), Z.el(1), Z.el(0))
    with pytest.raises(ValueError, match="determinant"):
        vk_membership(t, els(Zr2, 1), "spiral")
    A = Mat2(Z.el(2), Z.el(3), Z.el(3), Z.el(5))
    with pytest.raises(ValueError, match="shape"):
        vk_membership(A, els(Zr2, 1), "spiral")
    for check in (vk_membership, membership_residuals):
        with pytest.raises(RingMismatchError):
            check(A, els(Zr2, 1, 1, 1, 1))


# -- differential: the integer kernel against direct multiplication ----------

DIFF_RINGS = tuple(make_ring(s) for s in
                   ("Z", "Z[1/6]", "Z[sqrt(2)]", "Z[sqrt(2),1/2]"))


@st.composite
def perturbed_words(draw):
    """A ring, a shape, a word of length 0..12 whose entries have
    denominators 1..12 (most of them not units of the ring), and the
    same word with at most one entry changed."""
    ring = draw(st.sampled_from(DIFF_RINGS))
    shape = draw(st.sampled_from(("lower", "upper", "D")))

    def entry():
        b = draw(st.integers(-9, 9)) if ring.is_quadratic else 0
        return ring.el(draw(st.integers(-9, 9)), b, draw(st.integers(1, 12)))

    xs = tuple(entry() for _ in range(draw(st.integers(0, 12))))
    ys = list(xs)
    if xs and draw(st.booleans()):
        ys[draw(st.integers(0, len(xs) - 1))] = entry()
    return ring, shape, xs, tuple(ys)


def relem_continuant(ring, xs):
    """K_n by the recurrence on ring elements."""
    prev, cur = ring.zero, ring.one
    for x in xs:
        prev, cur = cur, cur * x + prev
    return cur


@given(perturbed_words())
def test_integer_kernel_matches_direct_multiplication(case):
    ring, shape, xs, ys = case
    A = word_to_matrix(Word(shape, xs), ring=ring)
    direct = word_to_matrix(Word(shape, ys), ring=ring)
    assert vk_membership(A, ys, shape) == (direct == A)
    # upper and D tuples are tested as lower tuples against A.prime()
    M = word_to_matrix(Word("lower", ys), ring=ring)
    T = A if shape == "lower" else A.prime()
    assert membership_residuals(A, ys, shape) == (
        M.a - T.a, M.c - T.c, M.b - T.b, M.d - T.d)
    for n in range(len(ys) + 1):
        assert continuant(ring, ys[:n]) == relem_continuant(ring, ys[:n])
