"""Solution tuples: Euclidean factorization, the length-3 closed form,
fiber lifting, transports, unit-product points, bounded enumeration."""

from __future__ import annotations

import itertools

import pytest

from sl2factor import (
    MINUS_IDENTITY_ENTRIES,
    BudgetError,
    HeightBound,
    Mat2,
    MembershipError,
    ParseError,
    Word,
    convert_shape,
    coordinate_box,
    enumerate_points_bounded,
    factor_euclid,
    fiber_lift,
    identity,
    pad,
    reverse_point,
    solve_k3,
    unit_product_points,
    vk_membership,
    word_from_json,
    word_to_json,
    word_to_matrix,
)

from conftest import rand_int_word, rand_matrix


def mat(ring, a, c, b, d):
    return Mat2(ring.el(a), ring.el(c), ring.el(b), ring.el(d))


def els(ring, *vals):
    return tuple(ring.el(v) for v in vals)


# -- Word as a point ------------------------------------------------------


def test_point_tuple_basics(Z, Z_half):
    P = Word("lower", els(Z, 1, 1, 1, 1))
    assert P.k == 4 and P.integral and str(P) == "(1,1,1,1)"
    Q = Word("upper", (Z_half.el(1, 0, 2),))
    assert Q.integral  # 1/2 lies in Z[1/2]
    assert not Word("lower", (Z.el(1, 0, 2),)).integral  # 1/2 is not in Z
    with pytest.raises(ValueError):
        Word("spiral", ())


def test_point_note_is_not_identity(Z):
    P = Word("lower", els(Z, 1), "scratch")
    Q = Word("lower", els(Z, 1))
    assert P == Q and hash(P) == hash(Q)


def test_point_json_round_trip(Z_half):
    P = Word("upper", (Z_half.el(3), Z_half.el(1, 0, 2)))
    obj = word_to_json(P)
    assert obj["shape"] == "upper" and obj["integral"] is True
    assert word_from_json(Z_half, obj) == P
    assert word_from_json(Z_half, ["1", "2"]) == Word(
        "lower", els(Z_half, 1, 2)
    )
    with pytest.raises(ParseError):
        word_from_json(Z_half, {"shape": "lower"})


# -- factor_euclid --------------------------------------------------------


def test_factor_identity_is_empty_word(Z):
    assert factor_euclid(identity(Z)).entries == ()


def test_factor_single_upper(Z):
    w = factor_euclid(mat(Z, 1, 3, 0, 1))
    assert tuple(x.a for x in w.entries) == (0, 3)


def test_factor_minus_identity(Z):
    w = factor_euclid(-identity(Z))
    assert tuple(x.a for x in w.entries) == MINUS_IDENTITY_ENTRIES
    assert word_to_matrix(w) == -identity(Z)


def test_factor_example(Z):
    A = mat(Z, 2, 3, 3, 5)
    assert word_to_matrix(factor_euclid(A)) == A


def test_factor_zero_corner(Z):
    A = mat(Z, 0, -1, 1, 0)
    w = factor_euclid(A)
    assert word_to_matrix(w) == A


def test_factor_negative_residual_after_peel(Z):
    # one lower peel leaves -I, exercising the upper-start expansion
    A = word_to_matrix(Word("lower", els(Z, 3))) @ -identity(Z)
    w = factor_euclid(A)
    assert word_to_matrix(w) == A


def test_factor_round_trips(rng, Z):
    for _ in range(100):
        k = rng.randint(0, 10)
        A = word_to_matrix(Word("lower", rand_int_word(rng, Z, k, 20)), ring=Z)
        w = factor_euclid(A)
        assert w.shape == "lower"
        assert word_to_matrix(w, ring=Z) == A


def test_factor_rejects_bad_inputs(Z, Z_half, Zr2):
    with pytest.raises(ValueError):
        factor_euclid(mat(Z, 0, 1, 1, 0))  # det -1
    with pytest.raises(ValueError):
        factor_euclid(Mat2(Z_half.el(1), Z_half.el(0),
                           Z_half.el(1, 0, 2), Z_half.el(1)))
    with pytest.raises(ValueError):
        factor_euclid(Mat2(Zr2.el(1), Zr2.el(0, 1), Zr2.el(0), Zr2.el(1)))


# -- solve_k3 and fiber_lift ----------------------------------------------


def test_solve_k3_unique(Z):
    sol = solve_k3(mat(Z, 2, 1, 1, 1))
    assert sol.kind == "unique"
    assert sol.point.entries == els(Z, 0, 1, 1)
    assert sol.point.integral


def test_solve_k3_family(Z):
    sol = solve_k3(mat(Z, 1, 0, 5, 1))  # L(5)
    assert sol.kind == "family"
    assert sol.family_sum == 5
    for t in (-2, 0, 7):
        P = sol.family_point(Z.el(t))
        assert P.entries == els(Z, 5 - t, 0, t)
        assert vk_membership(mat(Z, 1, 0, 5, 1), P.entries)


def test_solve_k3_empty(Z):
    sol = solve_k3(-identity(Z))
    assert sol.kind == "empty"
    assert sol.point is None
    with pytest.raises(ValueError):
        sol.family_point(Z.el(0))


def test_solve_k3_fractional_output(Z):
    # (7 30; 10 43) forces x1 = 42/30 off the integers; the solution is
    # still the unique field point
    sol = solve_k3(mat(Z, 7, 30, 10, 43))
    assert sol.kind == "unique"
    assert not sol.point.integral


def test_fiber_lift_examples(Z):
    A = mat(Z, 2, 3, 3, 5)
    P = fiber_lift(A, els(Z, 1))
    assert P.entries == els(Z, 1, 1, 1, 1) and P.note is None

    P = fiber_lift(identity(Z), els(Z, 0))
    assert P.entries == els(Z, 0, 0, 0, 0)
    assert P.note == "non-generic fiber"

    assert fiber_lift(mat(Z, -1, -2, 0, -1), els(Z, 2)) is None


def test_fiber_lift_longer_tail(Z):
    A = mat(Z, 2, 3, 3, 5)
    P = fiber_lift(A, els(Z, 1, 1))
    assert P.k == 5
    assert P.entries[3:] == els(Z, 1, 1)
    assert vk_membership(A, P.entries)


def test_fiber_lift_reproduces_points(rng, Z, Zr2):
    for ring in (Z, Zr2):
        for _ in range(25):
            k = rng.randint(4, 8)
            xs = rand_int_word(rng, ring, k, 6)
            A = word_to_matrix(Word("lower", xs))
            P = fiber_lift(A, xs[3:])
            assert P is not None
            assert P.entries[3:] == xs[3:]
            assert vk_membership(A, P.entries)


# -- transports -----------------------------------------------------------


def test_pad_example(Z):
    A = mat(Z, 2, 1, 1, 1)
    P = Word("lower", els(Z, 0, 1, 1))
    assert pad(P, A, 4).entries == els(Z, 0, 1, 1, 0)
    assert pad(P, A, 3) == P
    with pytest.raises(ValueError):
        pad(P, A, 2)


def test_pad_rejects_non_members(Z):
    A = mat(Z, 2, 1, 1, 1)
    with pytest.raises(MembershipError):
        pad(Word("lower", els(Z, 1, 1, 1)), A, 5)


def test_convert_shape_example(Z):
    A = mat(Z, 2, 3, 3, 5)
    P = Word("lower", els(Z, 1, 1, 1, 1))
    B, Q = convert_shape(P, A)
    assert B == mat(Z, 5, 3, 3, 2)
    assert Q.shape == "upper" and Q.entries == P.entries
    with pytest.raises(ValueError):
        convert_shape(Q, B)


def test_convert_shape_single_letter(Z):
    A = mat(Z, 1, 0, 7, 1)  # L(7)
    B, Q = convert_shape(Word("lower", els(Z, 7)), A)
    assert B == mat(Z, 1, 7, 0, 1)
    assert word_to_matrix(Word("D", Q.entries)) == B


def test_reverse_point_examples(Z):
    xs = els(Z, 1, 2, 3, 4)
    A = word_to_matrix(Word("lower", xs))
    assert A == mat(Z, 7, 30, 10, 43)
    B, Q = reverse_point(Word("lower", xs), A)
    assert B == mat(Z, 7, 10, 30, 43)
    assert Q.entries == xs[::-1]

    xs = els(Z, 0, 1, 1)
    A = word_to_matrix(Word("lower", xs))
    B, Q = reverse_point(Word("lower", xs), A)
    assert B == mat(Z, 1, 1, 1, 2)
    assert Q.entries == els(Z, 1, 1, 0)


def test_reverse_palindrome_is_fixed(Z):
    xs = els(Z, 2, 5, 2)
    A = word_to_matrix(Word("lower", xs))
    B, Q = reverse_point(Word("lower", xs), A)
    assert Q.entries == xs
    assert B == A.star()  # palindromic odd words force A = A*


def test_transport_closure(rng, Z, Zr2):
    for ring in (Z, Zr2):
        for _ in range(20):
            k = rng.randint(1, 7)
            xs = rand_int_word(rng, ring, k, 5)
            A = word_to_matrix(Word("lower", xs))
            P = Word("lower", xs)
            P2 = pad(P, A, k + 2)
            B, Q = convert_shape(P2, A)
            assert B == A.prime()
            C, R = reverse_point(P, A)
            assert C == (A.star() if k % 2 else A.transpose())
            assert R.entries == xs[::-1]


# -- unit-product points ----------------------------------------------------


def test_unit_product_examples(Z_half):
    pt = unit_product_points(Z_half, 2, (Z_half.el(2),))
    assert pt == (Z_half.el(2), Z_half.el(1, 0, 2))
    pt = unit_product_points(Z_half, 3, els(Z_half, 2, 4))
    assert pt[2] == Z_half.el(1, 0, 8)
    pt = unit_product_points(Z_half, 2, (Z_half.el(-1),))
    assert pt == els(Z_half, -1, -1)


def test_unit_product_quadratic(Zr2):
    eps = Zr2.el(1, 1)
    pt = unit_product_points(Zr2, 3, (eps, eps))
    prod = Zr2.one
    for u in pt:
        prod = prod * u
    assert prod == 1
    assert all(u.is_unit() for u in pt)


def test_unit_product_rejects(Z, Z_half):
    with pytest.raises(ValueError):
        unit_product_points(Z, 2, (Z.el(2),))  # 2 not a unit of Z
    with pytest.raises(ValueError):
        unit_product_points(Z_half, 1, ())
    with pytest.raises(ValueError):
        unit_product_points(Z_half, 3, (Z_half.el(2),))  # wrong count


# -- bounded enumeration ----------------------------------------------------


def test_height_bound_gate():
    with pytest.raises(ValueError):
        HeightBound(-1)
    with pytest.raises(ValueError):
        HeightBound(2, -1)


def test_coordinate_box_rational(Z, Z_half):
    assert [x.a for x in coordinate_box(Z, HeightBound(2))] == [-2, -1, 0, 1, 2]
    box = coordinate_box(Z_half, HeightBound(1, 1))
    assert [str(x) for x in box] == ["-1", "-1/2", "0", "1/2", "1"]


def test_coordinate_box_quadratic(Zr2):
    box = coordinate_box(Zr2, HeightBound(1))
    assert len(box) == 9
    assert box[0] == Zr2.el(-1, -1) and box[-1] == Zr2.el(1, 1)
    assert all(box[i] < box[i + 1] for i in range(len(box) - 1))


def naive_solutions(A, k, shape, bound):
    box = coordinate_box(A.ring, bound)
    out = []
    for xs in itertools.product(box, repeat=k):
        if word_to_matrix(Word(shape, xs), ring=A.ring) == A:
            out.append(xs)
    return sorted(out)


@pytest.mark.parametrize("shape", ["lower", "upper", "D"])
def test_enumerate_matches_naive(Z, shape):
    A = mat(Z, 2, 1, 1, 1)
    bound = HeightBound(2)
    got = enumerate_points_bounded(A, 3, shape, bound)
    assert [P.entries for P in got] == naive_solutions(A, 3, shape, bound)
    assert all(P.shape == shape for P in got)


def test_enumerate_identity_line(Z):
    got = enumerate_points_bounded(identity(Z), 3, "lower", HeightBound(2))
    assert [tuple(x.a for x in P.entries) for P in got] == [
        (-2, 0, 2), (-1, 0, 1), (0, 0, 0), (1, 0, -1), (2, 0, -2)
    ]


def test_enumerate_example_point(Z):
    got = enumerate_points_bounded(mat(Z, 2, 1, 1, 1), 3, "lower", HeightBound(2))
    assert [P.entries for P in got] == [els(Z, 0, 1, 1)]


def test_enumerate_empty(Z):
    assert enumerate_points_bounded(-identity(Z), 3, "lower", HeightBound(2)) == []


def test_enumerate_k0(Z):
    assert enumerate_points_bounded(identity(Z), 0, "lower", HeightBound(1)) == [
        Word("lower", ())
    ]
    assert enumerate_points_bounded(mat(Z, 2, 1, 1, 1), 0, "lower",
                                    HeightBound(1)) == []


def test_enumerate_with_denominators(Z_half):
    A = word_to_matrix(Word("lower", (Z_half.el(1, 0, 2), Z_half.el(1, 0, 2))),
                       ring=Z_half)
    bound = HeightBound(1, 1)
    got = enumerate_points_bounded(A, 2, "lower", bound)
    assert [P.entries for P in got] == naive_solutions(A, 2, "lower", bound)
    assert Word("lower", (Z_half.el(1, 0, 2), Z_half.el(1, 0, 2))) in got


def test_enumerate_quadratic(rng, Zr2):
    A = word_to_matrix(Word("lower", els(Zr2, 1, 1)), ring=Zr2)
    bound = HeightBound(1)
    got = enumerate_points_bounded(A, 2, "lower", bound)
    assert [P.entries for P in got] == naive_solutions(A, 2, "lower", bound)


def test_enumerate_budget(Z):
    with pytest.raises(BudgetError):
        enumerate_points_bounded(identity(Z), 4, "lower", HeightBound(3),
                                 half_cap=10)


def test_error_hierarchy():
    assert issubclass(MembershipError, ValueError)
    assert issubclass(BudgetError, RuntimeError)
