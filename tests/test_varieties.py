"""Solution tuples: Euclidean factorization, the length-3 closed form,
fiber lifting, transports, unit-product points, bounded enumeration."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    elem,
    enumerate_points_bounded,
    factor_euclid,
    fiber_lift,
    identity,
    make_ring,
    orbit_run,
    pad,
    reverse_point,
    solve_k3,
    vk_membership,
    word_from_json,
    word_to_json,
    word_to_matrix,
)
from sl2factor import varieties
from sl2factor.density import random_unit_points
from sl2factor.varieties import _walk

from conftest import elem_product, rand_int_word, rand_matrix


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


# [a, c, b, d, letters of factor_euclid(A), letters of factor_euclid(A.prime())]
# for every integer A in SL2(Z) with entries in [-3, 3] and seeded products
# of up to 9 letters, some negated; together they run every branch of the
# loop and of the residual expansions
EUCLID_CORPUS = json.loads(
    (Path(__file__).parent / "euclid_corpus.json").read_text())


def test_euclid_corpus_is_pinned(Z):
    assert len(EUCLID_CORPUS) == 1100
    for a, c, b, d, lower, primed in EUCLID_CORPUS:
        A = mat(Z, a, c, b, d)
        assert [x.a for x in factor_euclid(A).entries] == lower, A
        assert [x.a for x in factor_euclid(A.prime()).entries] == primed, A


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
    assert P.entries == els(Z, 1, 1, 1, 1)  # x2 = 1: a generic fiber

    # the identity's core is the family (t, 0, -t): x2 = 0, non-generic
    P = fiber_lift(identity(Z), els(Z, 0))
    assert P.entries == els(Z, 0, 0, 0, 0)

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


@st.composite
def fibration_cases(draw):
    """A matrix from a drawn integral word of length k = 4..7, that word
    as an orbit seed, and a drawn tail of k - 3 ring elements."""
    ring = make_ring(draw(st.sampled_from(["Z", "Z[1/6]", "Z[sqrt(2)]"])))
    k = draw(st.integers(4, 7))
    w = st.integers(-1, 1) if ring.is_quadratic else st.just(0)
    seed = tuple(ring.el(draw(st.integers(-2, 2)), draw(w)) for _ in range(k))
    denom = st.sampled_from((1, 2, 3, 6) if ring.inverted_primes else (1,))
    tail = tuple(ring.el(draw(st.integers(-3, 3)), draw(w), draw(denom))
                 for _ in range(k - 3))
    return word_to_matrix(Word("lower", seed), ring=ring), seed, tail


@settings(max_examples=60, deadline=None)
@given(fibration_cases())
def test_tail_projection_inverts_fiber_lift(case):
    # V_k(A) fibres over its tails (x4, ..., xk): fiber_lift is a section
    # of that projection, and on the generic fibres (x2 != 0) it is the
    # projection's inverse
    A, seed, tail = case
    for P in orbit_run(A, Word("lower", seed), 12).points:
        if P.entries[1] != 0:
            assert fiber_lift(A, P.entries[3:]) == P
    Q = fiber_lift(A, tail)
    assert Q is None or Q.entries[3:] == tail


def mat2_peel_lift(A, tail):
    """fiber_lift as it was written with a Mat2 product per peeled letter:
    the reference the letter-step peel must reproduce.  Returns the
    point, or None, and the kind of the length-3 core."""
    B = A
    for pos in range(len(tail) + 3, 3, -1):
        B = B @ elem("L" if pos % 2 else "U", -tail[pos - 4])
    sol = solve_k3(B)
    if sol.kind == "empty":
        return None, sol.kind
    if sol.kind == "unique":
        return Word("lower", sol.point.entries + tuple(tail)), sol.kind
    return (Word("lower", sol.family_point(A.ring.zero).entries + tuple(tail)),
            sol.kind)


def test_fiber_lift_matches_mat2_peel(rng, Z, Z_half, Zr2):
    kinds = set()
    for ring in (Z, Z_half, Zr2):
        for trial in range(60):
            k = rng.randint(3, 7)
            # small entries with many zeros, so that c = 0 cores turn up
            xs = tuple(ring.el(rng.choice((0, 0, 1, -1, 2)), 0,
                               rng.choice((1, 2)) if ring is Z_half else 1)
                       for _ in range(k))
            A = word_to_matrix(Word("lower", xs), ring=ring)
            tail = xs[3:] if trial % 2 else rand_int_word(rng, ring, k - 3, 2)
            (want, kind), got = mat2_peel_lift(A, tail), fiber_lift(A, tail)
            assert got == want
            # a lift is non-generic (a family core) exactly when x2 = 0
            if want is not None:
                assert (got.entries[1] == 0) == (kind == "family")
            kinds.add(kind)
    # the three outcomes: unique, empty (-I core), family (a = 1, c = 0)
    cases = [(mat(Z, 2, 3, 3, 5), els(Z, 1)),
             (mat(Z, -1, -3, 0, -1), els(Z, 3)),
             (mat(Z, 1, 2, 5, 11), els(Z, 2))]
    for (A, tail), case_kind in zip(cases, ("unique", "empty", "family")):
        (want, kind), got = mat2_peel_lift(A, tail), fiber_lift(A, tail)
        assert got == want and kind == case_kind
        assert got is None or (got.entries[1] == 0) == (kind == "family")
        kinds.add(kind)
    assert kinds == {"unique", "empty", "family"}


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


@pytest.mark.parametrize("transport", [lambda P, A: pad(P, A, 6),
                                       convert_shape, reverse_point],
                         ids=["pad", "convert_shape", "reverse_point"])
def test_transport_refused_output_is_internal(Z, monkeypatch, transport):
    # the caller's point passes the input gate; a refused result is a
    # fault of the program (AssertionError), not invalid input
    calls = []

    def first_only(A, xs, shape):
        calls.append(shape)
        return len(calls) == 1

    monkeypatch.setattr(varieties, "vk_membership", first_only)
    A, P = mat(Z, 2, 3, 3, 5), Word("lower", els(Z, 1, 1, 1, 1))
    with pytest.raises(AssertionError, match="non-member") as info:
        transport(P, A)
    assert not isinstance(info.value, MembershipError) and len(calls) == 2


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
    # the stream of test_random_unit_stream_pinned: units 1, 2, 1/16, 1,
    # each followed by the inverse of the product
    pts = random_unit_points(Z_half, 2, 4, 7)
    assert pts[1] == (Z_half.el(2), Z_half.el(1, 0, 2))
    assert pts[2] == (Z_half.el(1, 0, 16), Z_half.el(16))
    pt = random_unit_points(Z_half, 3, 2, 7)[0]
    assert pt == (Z_half.el(1), Z_half.el(2), Z_half.el(1, 0, 2))
    for P in random_unit_points(Z_half, 4, 30, 0):
        assert P[3] == (P[0] * P[1] * P[2]).inverse()


def test_unit_product_quadratic(Zr2):
    for pt in random_unit_points(Zr2, 3, 20, 0):
        prod = Zr2.one
        for u in pt:
            prod = prod * u
        assert prod == 1
        assert all(u.is_unit() for u in pt)


def test_unit_product_rejects(Z_half):
    for k in (1, 0):
        with pytest.raises(ValueError):
            random_unit_points(Z_half, k, 5, 0)


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


@pytest.mark.parametrize("spec", ["Z", "Z[1/2]", "Z[1/6]", "Z[1/12]",
                                  "Z[1/30]", "Z[sqrt(2)]", "Z[sqrt(3),1/6]"])
def test_box_size_counts_the_box(spec):
    ring = make_ring(spec)
    for max_abs, denom_exp in itertools.product(range(7), range(4)):
        bound = HeightBound(max_abs, denom_exp)
        assert varieties._box_size(ring, bound, 10**6) == len(
            coordinate_box(ring, bound)), bound


def test_box_size_refuses_from_a_lower_bound(Z, Z_half, Zr2):
    size = varieties._box_size
    # exact without inverted primes, denominators or a nonzero MAX
    assert size(Z, HeightBound(10**6), 10) == 2 * 10**6 + 1
    assert size(Zr2, HeightBound(2000, 10**8), 10) == 4001**2
    assert size(Z_half, HeightBound(0, 10**8), 10) == 1
    assert size(Z_half, HeightBound(7, 0), 10) == 15
    # (DENOM_EXP+1)^r or (2*MAX+1)^q past the limit
    assert size(Z_half, HeightBound(1, 10), 10) is None
    assert size(Z_half, HeightBound(5, 1), 10) is None
    assert size(make_ring("Z[1/30030]"), HeightBound(1, 1), 63) is None
    assert size(Z_half, HeightBound(1, 3), 11) == 9  # 0, ±1, ±1/2, ±1/4, ±1/8
    assert size(Z_half, HeightBound(500, 999999), 10**6) == 500000501
    # an m that cannot be factored is refused first, even for the box {0}
    with pytest.raises(ParseError, match="cannot factor"):
        size(make_ring(f"Z[1/{(10**6 + 3) * (10**6 + 33)}]"), HeightBound(0), 10)


def naive_solutions(A, k, shape, bound):
    """Every word of the box whose generator product is A, by brute force:
    no meet in the middle and no word_to_matrix."""
    box = coordinate_box(A.ring, bound)
    out = []
    for xs in itertools.product(box, repeat=k):
        if elem_product(A.ring, shape, xs) == A:
            out.append(xs)
    return sorted(out)


NAIVE_WORDS = 1000  # most words the brute-force oracle multiplies out


@st.composite
def enumeration_cases(draw):
    ring = make_ring(draw(st.sampled_from(["Z", "Z[1/2]", "Z[1/6]",
                                           "Z[sqrt(2)]"])))
    shape = draw(st.sampled_from(["lower", "upper", "D"]))
    denom_exp = draw(st.integers(0, 1)) if ring.inverted_primes else 0
    bound = HeightBound(draw(st.integers(0, 2)), denom_exp)
    box = coordinate_box(ring, bound)
    k = draw(st.integers(0, 5))
    while len(box) ** k > NAIVE_WORDS:
        k -= 1
    # a target that has a solution in the box, or one of another shape
    word_shape = draw(st.sampled_from([shape, shape, "lower"]))
    xs = tuple(box[i] for i in draw(st.lists(
        st.integers(0, len(box) - 1), min_size=k, max_size=k)))
    return word_to_matrix(Word(word_shape, xs), ring=ring), k, shape, bound


@settings(max_examples=80, deadline=None)
@given(enumeration_cases())
def test_enumerate_matches_naive_everywhere(case):
    A, k, shape, bound = case
    got = enumerate_points_bounded(A, k, shape, bound)
    assert [P.entries for P in got] == naive_solutions(A, k, shape, bound)
    assert all(P.shape == shape for P in got)


def test_walk_is_product_order(Z, Z_half):
    box = coordinate_box(Z_half, HeightBound(1, 1))
    start = (Z_half.el(2), Z_half.el(3), Z_half.el(3), Z_half.el(5))
    for kinds in ([], ["L"], ["U", "L"], ["L", "U", "D"]):
        got = list(_walk(start, kinds, box))
        assert [idx for idx, _ in got] == list(
            itertools.product(range(len(box)), repeat=len(kinds)))
        for idx, m in got:
            M = Mat2(*start)
            for kind, i in zip(kinds, idx):
                M = M @ elem(kind, box[i])
            assert Mat2(*m) == M
    # a deep walk over one letter needs no recursion
    (idx, m), = _walk((Z.one, Z.zero, Z.zero, Z.one), ["L"] * 6000,
                      [Z.el(1)])
    assert idx == (0,) * 6000 and Mat2(*m) == elem("L", Z.el(6000))


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


def test_enumerate_budget(Z, monkeypatch):
    # the cap is read at call time
    monkeypatch.setattr(varieties, "ENUM_HALF_CAP", 10)
    with pytest.raises(BudgetError):
        enumerate_points_bounded(identity(Z), 4, "lower", HeightBound(3))
    # over the box {0} a half of e letters costs e: 10 letters pass, 11 do not
    got = enumerate_points_bounded(identity(Z), 20, "lower", HeightBound(0))
    assert [P.entries for P in got] == [(Z.zero,) * 20]
    with pytest.raises(BudgetError):
        enumerate_points_bounded(identity(Z), 22, "lower", HeightBound(0))


def test_enumerate_over_zero_with_any_denominators(Z_half):
    # MAX 0 is the box {0}: no power of 2 is formed for 10^8 denominators
    got = enumerate_points_bounded(identity(Z_half), 2, "lower",
                                   HeightBound(0, 10**8))
    assert [P.entries for P in got] == [(Z_half.zero,) * 2]


def test_error_hierarchy():
    assert issubclass(MembershipError, ValueError)
    assert issubclass(BudgetError, RuntimeError)
