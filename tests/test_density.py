"""Monomial evaluation, exact rank, vanishing spaces, density verdicts."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2factor import (
    Mat2,
    Word,
    density_report,
    generic_unit_variety_baseline,
    generic_variety_baseline,
    make_ring,
    monomial_exponents,
    monomial_matrix,
    orbit_run,
    vanishing_basis,
    vanishing_space_dim,
)
from sl2factor.density import certified_kernel


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


def test_monomial_exponents_gates():
    with pytest.raises(ValueError):
        monomial_exponents(0, 2)
    with pytest.raises(ValueError):
        monomial_exponents(2, -1)


def test_monomial_matrix_row(Z):
    rows, exps = monomial_matrix([els(Z, 2, 3)], 2)
    assert exps == monomial_exponents(2, 2)
    assert [x.a for x in rows[0]] == [1, 2, 3, 4, 6, 9]


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
    w = ring.root if ring.is_quadratic else ring.el(2)
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


def test_kernel_fast_paths(Z, Zr2):
    full = certified_kernel([[Z.el(1), Z.el(2)], [Z.el(3), Z.el(4)]], 2)
    assert (full.rank, full.method, full.basis) == (2, "modular", [])
    w = Zr2.root
    got = assert_kernel_matches_gauss([[Zr2.one, w, w + 1]], 3)
    assert got.method == "lifted"
    assert [[str(x) for x in vec] for vec in got.basis] == [
        ["(0-1*w)", "1", "0"], ["(-1-1*w)", "0", "1"]]


# -- vanishing spaces ---------------------------------------------------------


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
    w, half = R.root, R.el(1, 0, 2)
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
    u1 = generic_unit_variety_baseline(Z_half, 2, 2, 8, 5)
    assert u1 == generic_unit_variety_baseline(Z_half, 2, 2, 8, 5)
    assert u1 == 1  # the curve x1*x2 = 1 carries exactly one quadric


def test_orbit_points_match_generic_baseline(Z_half):
    # integral points produced by the window actions should impose the
    # same degree-2 conditions as generic field points of the variety
    A = Mat2(Z_half.el(2), Z_half.el(3), Z_half.el(3), Z_half.el(5))
    seed = Word("lower", els(Z_half, 1, 1, 1, 1))
    pts = orbit_run(A, seed, 40).points
    baseline = generic_variety_baseline(A, 4, 2, 20, 1234)
    assert vanishing_space_dim(pts, 2) == baseline
