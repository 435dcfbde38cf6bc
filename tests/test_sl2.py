"""Matrix layer: generators, involutions, word evaluation.

Reminder on layout: Mat2(a, c, b, d) is (a c; b d), so b sits bottom-left.
"""

from __future__ import annotations

import pytest

from sl2factor import (
    Mat2,
    RingMismatchError,
    WORD_SHAPES,
    Word,
    elem,
    identity,
    letter_kind,
    matrix_from_json,
    matrix_to_json,
    t_matrix,
    word_from_json,
    word_to_json,
    word_to_matrix,
)
from sl2factor.matrices import shape_target

from conftest import (assert_matches_oracle, elem_product, omat, omul_el,
                      rand_int_word, rand_matrix)


def mat(ring, a, c, b, d):
    return Mat2(ring.el(a), ring.el(c), ring.el(b), ring.el(d))


# -- constructors and generators ---------------------------------------


def test_identity_and_t(Z):
    I = identity(Z)
    t = t_matrix(Z)
    assert I.det() == 1
    assert t.det() == -1
    assert t @ t == I


def test_u_zero_is_identity(Z):
    assert elem("U", Z.el(0)) == identity(Z)
    assert elem("L", Z.el(0)) == identity(Z)


def test_d_times_t_is_u(Z, Zr2):
    for ring, x in ((Z, Z.el(5)), (Zr2, Zr2.el(1, 2))):
        t = t_matrix(ring)
        assert elem("D", x) @ t == elem("U", x)
        assert t @ elem("D", x) == elem("L", x)


def test_unknown_elem_kind_rejected(Z):
    with pytest.raises(ValueError):
        elem("V", Z.el(1))


def test_determinant_gate(Z):
    with pytest.raises(ValueError):
        mat(Z, 2, 0, 0, 2)
    with pytest.raises(ValueError):
        mat(Z, 2, 0, 0, 1)
    assert mat(Z, 0, 1, 1, 0).det() == -1  # det -1 is allowed


def test_det_is_the_entry_formula(rng, Z, Z_sixth, Zr2, Zr2_half):
    """det() returns the determinant kept from construction; it equals
    a*d - c*b in ring arithmetic and in the fraction-pair oracle."""
    for ring in (Z, Z_sixth, Zr2, Zr2_half):
        for _ in range(20):
            xs = tuple(ring.el(rng.randint(-9, 9), 0, rng.choice((1, 2, 3, 4)))
                       for _ in range(rng.randint(0, 6)))
            A = word_to_matrix(Word("lower", xs), ring=ring)
            for M, sign in ((A, 1), (A @ t_matrix(ring), -1)):
                assert M.det() == M.a * M.d - M.c * M.b == sign
                a, c, b, d = omat(M)
                ad, cb = omul_el(ring.d, a, d), omul_el(ring.d, c, b)
                assert (ad[0] - cb[0], ad[1] - cb[1]) == (sign, 0)


def test_cross_ring_entries_rejected(Z, Z_half):
    with pytest.raises(RingMismatchError):
        Mat2(Z.el(1), Z_half.el(0), Z.el(0), Z.el(1))


def test_inverse_examples(Z):
    x = Z.el(7)
    assert elem("U", x).inverse() == elem("U", -x)
    A = mat(Z, 2, 3, 3, 5)
    assert A.inverse() == mat(Z, 5, -3, -3, 2)
    assert A @ A.inverse() == identity(Z)


def test_inverse_round_trip_det_minus_one(rng, Z, Zr2):
    for ring in (Z, Zr2):
        for _ in range(25):
            A = rand_matrix(rng, ring)
            B = A @ t_matrix(ring)
            assert B.det() == -1
            assert B @ B.inverse() == identity(ring)
            assert B.inverse() @ B == identity(ring)


def test_neg_keeps_determinant(Z):
    A = mat(Z, 2, 3, 3, 5)
    assert (-A).det() == 1
    assert -(-A) == A


# -- involutions --------------------------------------------------------


def test_prime_example(Z):
    assert mat(Z, 2, 3, 3, 5).prime() == mat(Z, 5, 3, 3, 2)


def test_transpose_swaps_off_diagonal(Z):
    A = mat(Z, 1, 2, 3, 7)
    assert A.transpose() == mat(Z, 1, 3, 2, 7)
    assert A.star() == mat(Z, 7, 2, 3, 1)
    assert A.prime().transpose() == A.star()


def klein_holds(A: Mat2) -> bool:
    return (
        A.prime().transpose() == A.star()
        and A.transpose().star() == A.prime()
        and A.star().prime() == A.transpose()
        and A.prime().star() == A.transpose()
        and A.transpose().prime() == A.star()
        and A.star().transpose() == A.prime()
    )


def test_klein_relations_random(rng, Z, Zr2):
    for ring in (Z, Zr2):
        for _ in range(30):
            A = rand_matrix(rng, ring)
            assert klein_holds(A)
            assert klein_holds(A @ t_matrix(ring))  # det -1 side too
            assert A.prime().prime() == A.transpose().transpose() == A
            assert A.star().star() == A


# -- words --------------------------------------------------------------


def test_letter_kind_patterns():
    assert [letter_kind("lower", i) for i in range(1, 5)] == ["L", "U", "L", "U"]
    assert [letter_kind("upper", i) for i in range(1, 5)] == ["U", "L", "U", "L"]
    assert letter_kind("D", 3) == "D"
    with pytest.raises(ValueError):
        letter_kind("diag", 1)


def test_word_shape_gate(Z):
    with pytest.raises(ValueError):
        Word("mixed", (Z.el(1),))
    A = mat(Z, 2, 3, 3, 5)
    assert shape_target(A, "lower") is A
    assert shape_target(A, "upper") == shape_target(A, "D") == A.prime()
    with pytest.raises(ValueError, match="unknown word shape 'mixed'"):
        shape_target(A, "mixed")


def test_empty_word(Z):
    assert word_to_matrix(Word("lower", ()), ring=Z) == identity(Z)
    with pytest.raises(ValueError):
        word_to_matrix(Word("lower", ()))


def test_lower_word_example(Z):
    xs = tuple(Z.el(1) for _ in range(4))
    assert word_to_matrix(Word("lower", xs)) == mat(Z, 2, 3, 3, 5)


def test_single_letter_words(Z):
    b = Z.el(9)
    assert word_to_matrix(Word("lower", (b,))) == elem("L", b)
    assert word_to_matrix(Word("upper", (b,))) == elem("U", b)


def test_upper_is_prime_of_lower(rng, Z, Zr2):
    for ring in (Z, Zr2):
        for k in range(1, 7):
            xs = rand_int_word(rng, ring, k, 5)
            lower = word_to_matrix(Word("lower", xs))
            assert word_to_matrix(Word("upper", xs)) == lower.prime()


def test_d_word_matches_upper(rng, Z):
    for k in range(1, 7):
        xs = rand_int_word(rng, Z, k, 5)
        assert word_to_matrix(Word("D", xs)) == word_to_matrix(Word("upper", xs))


def test_d_word_example(Z):
    xs = tuple(Z.el(1) for _ in range(4))
    assert word_to_matrix(Word("D", xs)) == mat(Z, 5, 3, 3, 2)


def test_word_determinant_is_one(rng, Z, Zr2):
    for ring in (Z, Zr2):
        for shape in ("lower", "upper", "D"):
            for k in range(1, 7):
                xs = rand_int_word(rng, ring, k, 4)
                assert word_to_matrix(Word(shape, xs)).det() == 1


def test_word_against_fraction_oracle(rng, Z, Zr2, Zr2_half):
    for ring in (Z, Zr2, Zr2_half):
        for k in range(9):
            assert_matches_oracle(ring, rand_int_word(rng, ring, k, 8))


def test_word_matches_generator_product(rng, Z, Z_sixth, Zr2, Zr2_half):
    # every shape, and D words of odd and even length (odd ones end in t)
    for ring in (Z, Z_sixth, Zr2, Zr2_half):
        for shape in ("lower", "upper", "D"):
            for k in range(9):
                xs = tuple(ring.el(rng.randint(-6, 6),
                                   rng.randint(-3, 3) if ring.is_quadratic else 0,
                                   rng.choice((1, 1, 2, 3)))
                           for _ in range(k))
                got = word_to_matrix(Word(shape, xs), ring=ring)
                assert got == elem_product(ring, shape, xs), (shape, k)


def test_transpose_reversal(rng, Z):
    # reversing the entries of a lower word evaluates to A* for odd
    # length and A^t for even length
    xs = tuple(Z.el(v) for v in (0, 1, 1))
    A = word_to_matrix(Word("lower", xs))
    assert word_to_matrix(Word("lower", xs[::-1])) == A.star()

    xs = tuple(Z.el(v) for v in (1, 2, 3, 4))
    A = word_to_matrix(Word("lower", xs))
    assert A == mat(Z, 7, 30, 10, 43)
    assert word_to_matrix(Word("lower", xs[::-1])) == A.transpose()

    for k in range(1, 8):
        xs = rand_int_word(rng, Z, k, 6)
        A = word_to_matrix(Word("lower", xs))
        flipped = word_to_matrix(Word("lower", xs[::-1]))
        assert flipped == (A.star() if k % 2 else A.transpose())


# -- JSON ---------------------------------------------------------------


def test_matrix_json_round_trip(rng, Zr2_half):
    A = rand_matrix(rng, Zr2_half)
    assert matrix_from_json(Zr2_half, matrix_to_json(A)) == A


def test_matrix_json_rejects_bad_payloads(Z):
    from sl2factor import ParseError

    with pytest.raises(ParseError):
        matrix_from_json(Z, [1, 0, 0, 1])
    with pytest.raises(ParseError):
        matrix_from_json(Z, {"a": "1", "b": "0", "c": "0"})


def test_word_json_round_trip(rng, Zr2, Z_half):
    xs = rand_int_word(rng, Zr2, 5, 4)
    for shape in WORD_SHAPES:
        w = Word(shape, xs)
        obj = word_to_json(w)
        assert obj == {"shape": shape, "entries": [str(x) for x in xs],
                       "integral": True}
        assert word_from_json(Zr2, obj) == w
    # integral is written out but not read back
    w = Word("upper", (Z_half.el(3), Z_half.el(1, 0, 3)))
    obj = word_to_json(w)
    assert obj["integral"] is False  # 1/3 is not in Z[1/2]
    assert word_from_json(Z_half, obj) == w


def test_word_json_defaults_and_gate(Z):
    from sl2factor import ParseError

    w = word_from_json(Z, {"entries": ["1", "2"]})
    assert w.shape == "lower"
    # a bare list takes the default shape
    assert word_from_json(Z, ["1", "2"]) == Word("lower", (Z.el(1), Z.el(2)))
    assert word_from_json(Z, ["1", "2"], "D") == Word("D", (Z.el(1), Z.el(2)))
    assert word_from_json(Z, {"entries": ["1"]}, "upper").shape == "upper"
    with pytest.raises(ParseError, match="unknown word shape 'spiral'"):
        word_from_json(Z, {"shape": "spiral", "entries": []})
    for bad in ({"shape": "lower"}, 5, "1", None):
        with pytest.raises(ParseError, match="point payload must be a list"):
            word_from_json(Z, bad)
    # entries must be a JSON array: a string or an object is not read
    # as the sequence of its characters or keys
    for bad in ("1111", {"1": 1}, 5, None):
        with pytest.raises(ParseError, match="^point entries must be a list$"):
            word_from_json(Z, {"entries": bad})
