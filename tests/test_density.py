"""Monomial evaluation, exact rank, vanishing spaces, density verdicts."""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2factor import (
    Mat2,
    Word,
    density_report,
    factor_euclid,
    generic_variety_baseline,
    make_ring,
    monomial_exponents,
    monomial_matrix,
    orbit_run,
    pad,
    vanishing_basis,
    vanishing_space_dim,
)
from sl2factor import density
from sl2factor.cli import main
from sl2factor.density import _points_kernel, certified_kernel, random_unit_points


def els(ring, *vals):
    return tuple(ring.el(v) for v in vals)


# -- monomial order ---------------------------------------------------------


def test_monomial_exponents_k2_d2():
    assert monomial_exponents(2, 2) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)
    ]


def test_monomial_exponents_count():
    for k in (1, 2, 3, 5):
        for D in (0, 1, 2, 3):
            exps = monomial_exponents(k, D)
            assert len(exps) == comb(k + D, D)
            assert len(set(exps)) == len(exps)
            assert all(len(e) == k and sum(e) <= D for e in exps)


def test_monomial_order_is_pinned(Z):
    # sha256 of the exponent lists for k <= 8, D <= 5 and of the step
    # tables for k <= 7, D <= 4, recorded from a recursive composition
    # generator and a first-nonzero-variable step search
    exps, steps = hashlib.sha256(), hashlib.sha256()
    for k, D in itertools.product(range(1, 9), range(6)):
        exps.update(repr(monomial_exponents(k, D)).encode())
        if k <= 7 and D <= 4:
            plan = density._evaluation_plan([(Z.one,) * k], D)
            steps.update(repr(plan[2]).encode())
    assert exps.hexdigest() == (
        "b3194cd9c0fd1064296fc1c91b179b4ea077cacf67968a4aaeff66a751e51e0c")
    assert steps.hexdigest() == (
        "ef0f74cd9b9dc740ef1183e0e39407e30ec9f4fa39394489375cdc4e51222c3d")


def test_monomial_exponents_gates():
    with pytest.raises(ValueError):
        monomial_exponents(0, 2)
    with pytest.raises(ValueError):
        monomial_exponents(2, -1)


def test_monomial_matrix_row(Z):
    rows, exps = monomial_matrix([els(Z, 2, 3)], 2)
    assert exps == monomial_exponents(2, 2)
    assert [x.a for x in rows[0]] == [1, 2, 3, 4, 6, 9]


@st.composite
def monomial_inputs(draw):
    ring = make_ring(draw(st.sampled_from(KERNEL_RINGS)))
    k = draw(st.integers(1, 4))
    coef_b = st.integers(-5, 5) if ring.is_quadratic else st.just(0)
    points = [tuple(ring.el(draw(st.integers(-5, 5)), draw(coef_b),
                            draw(st.integers(1, 4))) for _ in range(k))
              for _ in range(draw(st.integers(1, 3)))]
    return points, draw(st.integers(0, 3))


@settings(max_examples=100, deadline=None)
@given(monomial_inputs())
def test_monomial_matrix_entries_are_products(data):
    points, degree = data
    rows, exps = monomial_matrix(points, degree)
    assert exps == monomial_exponents(len(points[0]), degree)
    for P, row in zip(points, rows):
        assert len(row) == len(exps)
        for e, val in zip(exps, row):
            want = P[0].ring.one
            for x, ei in zip(P, e):
                want = want * x ** ei
            assert val == want


def test_monomial_matrix_gates(Z):
    with pytest.raises(ValueError):
        monomial_matrix([], 2)
    with pytest.raises(ValueError):
        monomial_matrix([els(Z, 1, 2), els(Z, 1)], 1)


# -- the certified kernel -----------------------------------------------------


def gauss_kernel(d, rows, ncols):
    """Rank, pivots and reduced-row-echelon kernel basis by plain
    Gauss-Jordan over Q(sqrt(d)), with elements as Fraction pairs
    (x, y) standing for x + y*w."""

    def mul(u, v):
        return (u[0] * v[0] + d * u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    def inv(u):
        n = u[0] * u[0] - d * u[1] * u[1]
        return (u[0] / n, -u[1] / n)

    zero = (Fraction(0), Fraction(0))
    M = [[(Fraction(x.a, x.r), Fraction(x.b, x.r)) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        top = len(pivots)
        piv = next((i for i in range(top, len(M)) if M[i][c] != zero), None)
        if piv is None:
            continue
        M[top], M[piv] = M[piv], M[top]
        s = inv(M[top][c])
        M[top] = [mul(x, s) for x in M[top]]
        for i in range(len(M)):
            if i != top and M[i][c] != zero:
                f = M[i][c]
                M[i] = [(a[0] - g[0], a[1] - g[1])
                        for a, g in zip(M[i], (mul(f, b) for b in M[top]))]
        pivots.append(c)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [zero] * ncols
        vec[free] = (Fraction(1), Fraction(0))
        for i, c in enumerate(pivots):
            vec[c] = (-M[i][free][0], -M[i][free][1])
        basis.append(vec)
    return len(pivots), tuple(pivots), basis


def as_pairs(basis):
    return [[(Fraction(x.a, x.r), Fraction(x.b, x.r)) for x in vec]
            for vec in basis]


def assert_kernel_matches_gauss(rows, ncols):
    got = certified_kernel(rows, ncols)
    ring = rows[0][0].ring
    rank, pivots, basis = gauss_kernel(ring.d or 0, rows, ncols)
    assert (got.rank, got.pivots) == (rank, pivots)
    assert as_pairs(got.basis) == basis
    return got


KERNEL_RINGS = ["Z", "Z[1/6]", "Z[sqrt(2)]", "Z[sqrt(3),1/2]"]


@st.composite
def kernel_inputs(draw):
    ring = make_ring(draw(st.sampled_from(KERNEL_RINGS)))
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    small = st.integers(-6, 6)
    coef_b = small if ring.is_quadratic else st.just(0)

    def element(scale=1):
        return ring.el(draw(small) * scale, draw(coef_b) * scale,
                       draw(st.integers(1, 4)))

    # a huge column scale leaves the rank alone but gives kernel entries
    # too large to reconstruct from one prime
    scales = [draw(st.sampled_from([1, 1, 1, 3**50])) for _ in range(ncols)]
    rows = [[element(sc) for sc in scales] for _ in range(nrows)]
    # plant dependent rows: ring combinations of two earlier rows
    for i in range(2, nrows):
        if draw(st.booleans()):
            a, b = element(), element()
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(kernel_inputs())
def test_kernel_matches_gauss(data):
    rows, ncols = data
    got = assert_kernel_matches_gauss(rows, ncols)
    assert got.method in ("modular", "lifted", "exact")
    assert (got.method == "modular") == (got.rank == ncols)


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_kernel_bad_prime_is_exact(spec):
    ring = make_ring(spec)
    p = certified_kernel([[ring.one]], 1).prime
    assert p.bit_length() == 61
    w = ring.el(0, 1) if ring.is_quadratic else ring.el(2)
    # column 0 is divisible by p, so its pivot vanishes mod p: the rank
    # drops from 3 to 2 there and the lifted kernel fails verification
    rows = [[ring.el(p) * (w + 1), ring.el(1), w, ring.el(3)],
            [ring.zero, ring.el(1), ring.el(1), w],
            [ring.zero, ring.el(2), ring.el(2), w * 2],
            [ring.el(p), w, ring.zero, ring.el(5)]]
    got = assert_kernel_matches_gauss(rows, 4)
    assert got.prime == p and got.method == "exact"
    assert got.rank == 3 and got.pivots == (0, 1, 2)
    assert len(got.basis) == 1
    # the point x = p: rank 1 both ways, but the mod-p kernel (0, 1) is
    # wrong and must be caught by the exact check
    basis, _ = vanishing_basis([(ring.el(p),)], 1)
    assert basis == [[ring.el(-p), ring.one]]


def test_kernel_unliftable_entries_are_exact(Z):
    big = 3**50
    got = assert_kernel_matches_gauss([[Z.one, Z.el(-big)]], 2)
    assert got.method == "exact"
    assert got.basis == [[Z.el(big), Z.one]]


def test_kernel_exact_path_at_evaluation_size(Z_half):
    # an evaluation matrix of orbit points whose kernel entries are too
    # large to reconstruct from one prime, so the exact elimination runs
    A = Mat2(Z_half.el(2), Z_half.el(3), Z_half.el(3), Z_half.el(5))
    pts = orbit_run(A, pad(factor_euclid(A), A, 6), 60).points
    rows, exps = monomial_matrix(pts, 2)
    big = Z_half.el(3**60)
    rows = [[x * big if j == 1 else x for j, x in enumerate(row)] for row in rows]
    got = assert_kernel_matches_gauss(rows, len(exps))
    assert got.method == "exact" and got.rank == 25


def test_kernel_rejects_ragged_rows(Z):
    for rows in ([[Z.el(1), Z.el(2), Z.el(3)]],
                 [[Z.el(1), Z.el(2)], [Z.el(3)]]):
        with pytest.raises(ValueError, match="every row needs 2 entries"):
            certified_kernel(rows, 2)


# -- elimination mod p ----------------------------------------------------------


def gauss_mod_p(rows, ncols, p):
    """Pivots and reduced row echelon rows of `rows` by plain Gauss-Jordan
    over F_p, one list entry at a time."""
    M = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        top = len(pivots)
        piv = next((i for i in range(top, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[top], M[piv] = M[piv], M[top]
        s = pow(M[top][c], -1, p)
        M[top] = [x * s % p for x in M[top]]
        for i in range(len(M)):
            if i != top and M[i][c]:
                f = M[i][c]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[top])]
        pivots.append(c)
    return pivots, M[:len(pivots)]


def rref_mod_p(rows, ncols, p):
    """`density._rref` on `rows` fed through a generator, and how many
    rows it pulled."""
    pulled = 0

    def feed():
        nonlocal pulled
        for row in rows:
            pulled += 1
            yield row

    return density._rref(feed(), ncols, p), pulled


# a packed slot has 2*bits(p) + bits(ncols) + 1 bits rounded up to whole
# bytes; for these primes some column counts need no rounding, so a slot
# one byte narrower could not hold even one step: 16-31 columns for
# 2^61 - 1 and 8191, 64-127 for the 60-bit prime and 251, 4-7 for 61
# and 2, 1 for 7
RREF_PRIMES = [2**61 - 1, 2**60 - 93, 8191, 251, 61, 7, 2]


@st.composite
def residue_matrices(draw):
    p = draw(st.sampled_from(RREF_PRIMES))
    ncols = draw(st.integers(1, 150))
    rnd = random.Random(draw(st.integers(0, 2**32)))

    def entry():
        return rnd.choice([0, 1, p - 1, rnd.randrange(p)])

    # independent rows, then zero rows, duplicates and combinations of
    # them, shuffled: rank below ncols runs the back pass
    rows = [[entry() for _ in range(ncols)]
            for _ in range(draw(st.integers(0, min(ncols, 12))))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["zero", "copy", "combination"]))
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        elif kind == "copy":
            rows.append(list(rnd.choice(rows)))
        else:
            a, b, u, v = entry(), entry(), rnd.choice(rows), rnd.choice(rows)
            rows.append([(a * x + b * y) % p for x, y in zip(u, v)])
    rnd.shuffle(rows)
    return rows, ncols, p


@settings(max_examples=300, deadline=None)
@given(residue_matrices())
def test_rref_mod_p_matches_gauss(data):
    rows, ncols, p = data
    (pivots, R), pulled = rref_mod_p(rows, ncols, p)
    assert (pivots, R) == gauss_mod_p(rows, ncols, p)
    # rows past full rank are never pulled from the input
    full = next((m for m in range(ncols, len(rows) + 1)
                 if len(gauss_mod_p(rows[:m], ncols, p)[0]) == ncols), None)
    assert pulled == (len(rows) if full is None else full)


@pytest.mark.parametrize("p", RREF_PRIMES)
@pytest.mark.parametrize("ncols", [2, 5, 31, 127, 150])
def test_rref_mod_p_fullest_slots(p, ncols):
    # rows e_j - e_last, then all ones: the last row takes ncols - 1
    # steps that each add (p - 1)^2 to its last slot, close to the
    # p + ncols*p^2 the slot width is sized for; then rows of p - 1
    last = ncols - 1
    stairs = [[1 if j == i else p - 1 if j == last else 0 for j in range(ncols)]
              for i in range(last)]
    for rows in (stairs + [[1] * ncols], stairs + [[p - 1] * ncols],
                 [[p - 1] * ncols] * 3):
        (pivots, R), pulled = rref_mod_p(rows, ncols, p)
        assert (pivots, R) == gauss_mod_p(rows, ncols, p)
        assert pulled == len(rows)


def test_kernel_fast_paths(Z, Zr2):
    full = certified_kernel([[Z.el(1), Z.el(2)], [Z.el(3), Z.el(4)]], 2)
    assert (full.rank, full.method, full.basis) == (2, "modular", [])
    w = Zr2.el(0, 1)
    got = assert_kernel_matches_gauss([[Zr2.one, w, w + 1]], 3)
    assert got.method == "lifted"
    assert [[str(x) for x in vec] for vec in got.basis] == [
        ["(0-1*w)", "1", "0"], ["(-1-1*w)", "0", "1"]]


# -- vanishing spaces ---------------------------------------------------------


@st.composite
def point_sets(draw):
    """Points with fraction coordinates: random ones, or on a random line
    or conic, drawn with replacement so that duplicates occur."""
    ring = make_ring(draw(st.sampled_from(KERNEL_RINGS)))
    k = draw(st.integers(1, 4))
    coef_b = st.integers(-5, 5) if ring.is_quadratic else st.just(0)

    def element():
        return ring.el(draw(st.integers(-5, 5)), draw(coef_b),
                       draw(st.integers(1, 4)))

    curve = draw(st.sampled_from([None, 1, 2]))  # None: random, 1: line, 2: conic
    pool = []
    for _ in range(draw(st.integers(1, 8))):
        if curve is None:
            pool.append(tuple(element() for _ in range(k)))
        else:
            t = element()
            coefs = [[element() for _ in range(curve + 1)] for _ in range(k)]
            pool.append(tuple(sum((c * t**e for e, c in enumerate(cs)), ring.zero)
                              for cs in coefs))
    points = [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 12)))]
    return points, draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_points_kernel_matches_monomial_matrix(data):
    # F_p rows built from the coordinates certify the same kernel as the
    # exact evaluation matrix
    points, degree = data
    rows, exps = monomial_matrix(points, degree)
    want = certified_kernel(rows, len(exps))
    assert vanishing_basis(points, degree) == (want.basis, exps)
    if degree >= 1:
        assert vanishing_space_dim(points, degree) == len(exps) - want.rank
        assert _points_kernel(points, degree) == (want, exps)


def test_full_rank_report_builds_no_exact_rows(monkeypatch, Z_half):
    # criterion 9's points reach full rank mod p, so the exact evaluation
    # matrix is never needed
    A = Mat2(Z_half.el(2), Z_half.el(3), Z_half.el(3), Z_half.el(5))
    seed = pad(Word("lower", els(Z_half, 1, 1, 1, 1)), A, 9)
    pts = orbit_run(A, seed, 600, units_per_window=1).points

    def refuse(*args, **kwargs):
        raise AssertionError("monomial_matrix called at full rank")

    monkeypatch.setattr(density, "monomial_matrix", refuse)
    assert density_report(pts, 2) == {
        "k": 9, "D": 2, "monomials": 55, "points": 600,
        "nullity": 0, "baseline": 0, "dense_at_D": True}


def test_readme_k6_density_is_lifted(capsys, Z_half):
    # the README's k=6 density (nullity 3) is certified by lifting the
    # mod-p kernel, and its line is unchanged
    A = Mat2(Z_half.el(2), Z_half.el(3), Z_half.el(3), Z_half.el(5))
    pts = orbit_run(A, pad(factor_euclid(A), A, 6), 100).points
    kernel, exps = _points_kernel(pts, 2)
    assert (len(exps) - kernel.rank, kernel.method) == (3, "lifted")
    assert main(["density", "--ring", "Z[1/2]", "--matrix",
                 '{"a":"2","c":"3","b":"3","d":"5"}', "--k", "6",
                 "--degree", "2", "-n", "100"]) == 0
    assert capsys.readouterr().out == (
        '{"k":6,"D":2,"monomials":28,"points":100,"nullity":3,'
        '"baseline":3,"dense_at_D":true}\n')


def test_single_point_line(Z):
    assert vanishing_space_dim([els(Z, 5)], 1) == 1


def test_collinear_points(Z):
    pts = [els(Z, t, t) for t in (0, 1, 2)]
    assert vanishing_space_dim(pts, 1) == 1
    assert density_report(pts, 1, baseline=1)["dense_at_D"]
    assert not density_report(pts, 1, baseline=0)["dense_at_D"]


def test_parabola_relation(Z):
    pts = [els(Z, i, i * i) for i in range(6)]
    assert vanishing_space_dim(pts, 2) == 1
    basis, exps = vanishing_basis(pts, 2)
    assert exps == monomial_exponents(2, 2)
    assert [[x.a for x in vec] for vec in basis] == [[0, 0, -1, 1, 0, 0]]


def test_unit_curve_relation(Z_half):
    pts = [(Z_half.el(2) ** n, Z_half.el(1, 0, 2) ** n) for n in range(6)]
    assert vanishing_space_dim(pts, 2) == 1
    basis, _ = vanishing_basis(pts, 2)
    assert len(basis) == 1
    assert [str(x) for x in basis[0]] == ["-1", "0", "0", "0", "1", "0"]


def test_nullity_monotone_and_stable(rng, Z):
    pts = [els(Z, rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(5)]
    base = vanishing_space_dim(pts, 2)
    assert vanishing_space_dim(pts + [pts[0]], 2) == base  # duplicate no-op
    more = pts + [els(Z, 9, -7)]
    assert vanishing_space_dim(more, 2) <= base
    shuffled = pts[:]
    rng.shuffle(shuffled)
    assert vanishing_space_dim(shuffled, 2) == base


def test_quadratic_ring_points(Zr2):
    # three points on the line x2 = sqrt(2) * x1
    w = Zr2.el(0, 1)
    pts = [(Zr2.el(t), Zr2.el(t) * w) for t in (1, 2, 3)]
    assert vanishing_space_dim(pts, 1) == 1
    basis, _ = vanishing_basis(pts, 1)
    vec = basis[0]
    # the relation is x2 - sqrt(2) x1 up to scale
    assert vec[0] == 0 and vec[2] != 0
    assert vec[1] == -vec[2] * Zr2.el(0, 1)


def test_quadratic_basis_pinned(Zr2_half):
    # reduced-row-echelon bases as the exact elimination gave them
    R = Zr2_half
    w, half = R.el(0, 1), R.el(1, 0, 2)
    line = [(R.el(t), w * t + half, R.el(1, 1, 2) * t - 3) for t in (1, 2, 3, -1)]
    basis, exps = vanishing_basis(line, 1)
    assert exps == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert [[str(x) for x in vec] for vec in basis] == [
        ["-1/2", "(0-1*w)", "1", "0"], ["3", "(-1-1*w)/2", "0", "1"]]
    conic = [(R.el(t) * half, w * t * t / 2 + R.el(1, -1)) for t in range(-3, 4)]
    basis, _ = vanishing_basis(conic, 2)
    assert [[str(x) for x in vec] for vec in basis] == [
        ["(-2+1*w)/4", "0", "(0-1*w)/4", "1", "0", "0"]]
    rows, exps = monomial_matrix(conic, 2)
    assert certified_kernel(rows, len(exps)).method == "lifted"


def test_vanishing_gates(Z):
    with pytest.raises(ValueError):
        vanishing_space_dim([els(Z, 1, 2)], 0)
    with pytest.raises(ValueError):
        vanishing_space_dim([], 2)


def test_basis_vectors_annihilate(rng, Z):
    pts = [els(Z, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
           for _ in range(4)]
    basis, exps = vanishing_basis(pts, 2)
    rows, _ = monomial_matrix(pts, 2)
    for vec in basis:
        for row in rows:
            acc = Z.zero
            for coef, val in zip(vec, row):
                acc = acc + coef * val
            assert acc == 0


# -- reports and baselines ----------------------------------------------------


def test_density_report_shape(Z):
    pts = [els(Z, i, i * i) for i in range(6)]
    rep = density_report(pts, 2, baseline=1)
    assert rep == {
        "k": 2, "D": 2, "monomials": 6, "points": 6,
        "nullity": 1, "baseline": 1, "dense_at_D": True,
    }
    rep = density_report(pts, 2)
    assert rep["baseline"] == 0 and rep["dense_at_D"] is False


def test_generic_baselines_deterministic(Z_half):
    A = Mat2(Z_half.el(2), Z_half.el(3), Z_half.el(3), Z_half.el(5))
    b1 = generic_variety_baseline(A, 4, 2, 20, 99)
    b2 = generic_variety_baseline(A, 4, 2, 20, 99)
    assert b1 == b2
    # the curve x1*x2 = 1 carries exactly one quadric, and unit mode's
    # closed-form baseline C(D, k) says so
    u1 = vanishing_space_dim(random_unit_points(Z_half, 2, 8, 5), 2)
    assert u1 == vanishing_space_dim(random_unit_points(Z_half, 2, 8, 5), 2)
    assert u1 == comb(2, 2) == 1


def test_generic_baseline_needs_k3(Z):
    # samples are lifted through the length-3 fibration, so below k = 3
    # they would not lie in the space of k-variable polynomials
    A = Mat2(Z.el(1), Z.el(1), Z.el(1), Z.el(2))
    for k in (2, 1, 0, -1):
        with pytest.raises(ValueError, match="k >= 3"):
            generic_variety_baseline(A, k, 2, 5, 0)
    # k = 3 keeps its one fiber: the point (1, 1, 0) repeated
    assert generic_variety_baseline(A, 3, 2, 5, 0) == 9


def test_generic_baseline_k3_line_and_empty(Z_half):
    # V_3(I) is the line (-t, 0, t): its degree <= 2 vanishing space has
    # the 10 - 3 = 7 dimensions of the ideal (x2, x1 + x3), not the 9 of
    # one point
    I = Mat2(Z_half.el(1), Z_half.el(0), Z_half.el(0), Z_half.el(1))
    assert generic_variety_baseline(I, 3, 2, 20, 1) == 7
    # c = 0 and a != 1: no length-3 word, whatever the sampling
    A = Mat2(Z_half.el(2), Z_half.el(0), Z_half.el(0), Z_half.el(1, 0, 2))
    with pytest.raises(ValueError, match="no length-3 word"):
        generic_variety_baseline(A, 3, 2, 5, 0)


def test_random_unit_points(Z_half):
    pts = random_unit_points(Z_half, 3, 5, 7)
    assert pts == random_unit_points(Z_half, 3, 5, 7)
    assert len(pts) == 5 and all(len(P) == 3 for P in pts)
    for P in pts:
        assert all(x.is_unit() for x in P)
        assert P[0] * P[1] * P[2] == 1


@pytest.mark.parametrize("spec", ["Z[1/2]", "Z[1/6]", "Z[sqrt(2)]",
                                  "Z[sqrt(2),1/2]"])
def test_unit_points_nullity_is_closed_form(spec):
    # unit mode's baseline: x1*...*xk - 1 generates the ideal of the
    # unit-product variety, and its unit points are Zariski dense when
    # the unit group is infinite, so the nullity is C(D, k)
    ring = make_ring(spec)
    for k, D in [(2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (4, 4)]:
        pts = random_unit_points(ring, k, comb(k + D, D) + 10, k * D)
        assert vanishing_space_dim(pts, D) == comb(D, k), (k, D)


def test_orbit_points_match_generic_baseline(Z_half):
    # integral points produced by the window actions should impose the
    # same degree-2 conditions as generic field points of the variety
    A = Mat2(Z_half.el(2), Z_half.el(3), Z_half.el(3), Z_half.el(5))
    seed = Word("lower", els(Z_half, 1, 1, 1, 1))
    pts = orbit_run(A, seed, 40).points
    baseline = generic_variety_baseline(A, 4, 2, 20, 1234)
    assert vanishing_space_dim(pts, 2) == baseline
