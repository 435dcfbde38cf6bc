"""Verification battery: twelve pass/fail checks over the whole stack.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion.  Each check is exact (no tolerances); the timed ones assert
their wall-clock budget as part of the criterion.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from sl2factor import (
    Mat2,
    Word,
    a1_families,
    act_v,
    convert_shape,
    density_report,
    enumerate_points_bounded,
    factor_euclid,
    fiber_lift,
    generic_variety_baseline,
    HeightBound,
    identity,
    make_ring,
    orbit_run,
    pad,
    reverse_point,
    solve_k3,
    t_matrix,
    units_congruent_one,
    vanishing_basis,
    vanishing_space_dim,
    vk_membership,
    window_modulus,
    word_matrix_by_continuants,
    word_to_matrix,
)

Z = make_ring("Z")
Z_HALF = make_ring("Z[1/2]")
ZR2 = make_ring("Z[sqrt(2)]")


@contextmanager
def criterion(num: int, desc: str, limit: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    dt = time.perf_counter() - t0
    ok = limit is None or dt < limit
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc} ({dt:.2f}s)")
    assert ok, f"criterion {num} took {dt:.2f}s, budget {limit}s"


def rand_word(rng, ring, k, span):
    return tuple(ring.el(rng.randint(-span, span)) for _ in range(k))


@pytest.fixture(scope="module")
def word_corpus():
    rng = random.Random(101)
    return [rand_word(rng, Z, rng.randint(0, 12), 50) for _ in range(1000)]


def test_criterion_01(word_corpus):
    with criterion(1, "continuant assembly equals direct product on 1000 "
                      "words (k <= 12, entries <= 50)", limit=5.0):
        for xs in word_corpus:
            assert word_matrix_by_continuants(Z, xs) == word_to_matrix(
                Word("lower", xs), ring=Z
            )


def test_criterion_02(word_corpus):
    with criterion(2, "determinant is exactly 1 on the same 1000 words"):
        for xs in word_corpus:
            assert word_matrix_by_continuants(Z, xs).det() == 1


def test_criterion_03():
    rng = random.Random(303)
    with criterion(3, "all six involution identities on 1000 unimodular "
                      "matrices over Z and Z[sqrt(2)]"):
        for trial in range(1000):
            ring = Z if trial % 2 == 0 else ZR2
            A = word_to_matrix(Word("lower", rand_word(rng, ring, 6, 5)),
                               ring=ring)
            if trial % 3 == 0:
                A = A @ t_matrix(ring)  # cover determinant -1
            assert A.prime().transpose() == A.star()
            assert A.transpose().star() == A.prime()
            assert A.star().prime() == A.transpose()
            assert A.prime().star() == A.transpose()
            assert A.transpose().prime() == A.star()
            assert A.star().transpose() == A.prime()


def test_criterion_04():
    rng = random.Random(404)
    with criterion(4, "shape conversion and reversal re-verify on 500 "
                      "points per parity"):
        for parity in (0, 1):
            for _ in range(500):
                k = rng.choice([4, 6, 8] if parity == 0 else [3, 5, 7])
                xs = rand_word(rng, Z, k, 10)
                A = word_to_matrix(Word("lower", xs))
                P = Word("lower", xs)
                B, Q = convert_shape(P, A)  # re-verifies both sides
                assert B == A.prime() and Q.shape == "upper"
                C, R = reverse_point(P, A)  # re-verifies both sides
                assert C == (A.star() if k % 2 else A.transpose())


def test_criterion_05():
    rng = random.Random(505)
    with criterion(5, "window action preserves the product on 1000 "
                      "rational windows with v = +-2^n", limit=5.0):
        done = 0
        while done < 1000:
            entries = tuple(
                Z.el(rng.randint(-20, 20), 0, rng.randint(1, 8))
                for _ in range(4)
            )
            P = Word("lower", entries)
            if window_modulus(P, 1) == 0:
                continue
            v = Z.el(2) ** rng.randint(0, 10) * rng.choice([1, -1])
            if rng.random() < 0.5:
                v = v.inverse()
            Q = act_v(P, 1, v)
            assert word_to_matrix(Word("lower", Q.entries)) == word_to_matrix(
                Word("lower", P.entries)
            )
            done += 1


def test_criterion_06():
    rng = random.Random(606)
    with criterion(6, "unit action keeps 200 integral points per ring "
                      "integral for three units congruent 1 mod the window"):
        for ring, span in ((Z_HALF, 4), (ZR2, 2)):
            done = 0
            while done < 200:
                if ring.is_quadratic:
                    xs = tuple(ring.el(rng.randint(-span, span),
                                       rng.randint(-span, span))
                               for _ in range(4))
                else:
                    xs = rand_word(rng, ring, 4, span)
                P = Word("lower", xs)
                alpha = window_modulus(P, 1)
                if not alpha or alpha.is_unit():
                    continue
                found = units_congruent_one(alpha, 3)
                assert len(found.units) == 3 and not found.stalled
                A = word_to_matrix(Word("lower", xs))
                for v in found.units:
                    Q = act_v(P, 1, v)
                    assert Q.integral
                    assert vk_membership(A, Q.entries)
                done += 1


def test_criterion_07():
    with criterion(7, "closed-form length-3 solutions match bounded "
                      "enumeration on every word matrix with entries <= 3"):
        bound = HeightBound(3)
        box = [Z.el(v) for v in range(-3, 4)]
        targets = {}
        for x1 in box:
            for x2 in box:
                for x3 in box:
                    A = word_to_matrix(Word("lower", (x1, x2, x3)))
                    targets[A] = True
        # realized matrices with c = 0 always have a = 1; add matrices
        # with empty solution sets by hand so all three solver outcomes
        # are exercised
        targets[-identity(Z)] = False
        targets[Mat2(Z.el(-1), Z.el(-2), Z.el(0), Z.el(-1))] = False
        for A, realized in targets.items():
            sol = solve_k3(A)
            got = {P.entries for P in
                   enumerate_points_bounded(A, 3, "lower", bound)}
            if sol.kind == "unique":
                inside = all(abs(x.a) <= 3 and x.r == 1
                             for x in sol.point.entries)
                assert got == ({sol.point.entries} if inside else set())
            elif sol.kind == "family":
                want = set()
                for t in box:
                    first = sol.family_sum - t
                    if abs(first.a) <= 3:
                        want.add((first, Z.zero, t))
                assert got == want
            else:
                assert not realized and got == set()


def test_criterion_08():
    rng = random.Random(808)
    with criterion(8, "Euclidean factorization round-trips 500 integer "
                      "matrices from words (k <= 10, entries <= 20)",
                   limit=10.0):
        for _ in range(500):
            xs = rand_word(rng, Z, rng.randint(0, 10), 20)
            A = word_to_matrix(Word("lower", xs), ring=Z)
            w = factor_euclid(A)
            assert word_to_matrix(w, ring=Z) == A


def test_criterion_09():
    with criterion(9, "orbit points of the length-9 variety over Z[1/2] "
                      "are dense at degree 2 against the generic baseline",
                   limit=60.0):
        A = Mat2(Z_HALF.el(2), Z_HALF.el(3), Z_HALF.el(3), Z_HALF.el(5))
        seed = pad(Word("lower", tuple(Z_HALF.el(1) for _ in range(4))),
                   A, 9)
        pts = orbit_run(A, seed, 600, units_per_window=1).points
        assert len(set(pts)) >= 120
        assert all(P.integral for P in pts)
        baseline = generic_variety_baseline(A, 9, 2, 65, 12345)
        report = density_report(pts, 2, baseline=baseline)
        assert report["monomials"] == 55
        assert report["dense_at_D"] is True


def test_criterion_10():
    with criterion(10, "the powers-of-two curve carries exactly the single "
                       "relation x1*x2 - 1 at degree 2"):
        two = Z_HALF.el(2)
        half = Z_HALF.el(1, 0, 2)
        pts = [(two**n, half**n) for n in range(10)]
        assert vanishing_space_dim(pts, 2) == 1
        basis, exps = vanishing_basis(pts, 2)
        assert exps == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert [[str(x) for x in vec] for vec in basis] == [
            ["-1", "0", "0", "0", "1", "0"]
        ]


def test_criterion_11():
    with criterion(11, "the a = 1 length-4 variety splits into the two "
                       "coordinate-plane families"):
        A = Mat2(Z.el(1), Z.el(3), Z.el(2), Z.el(7))
        for u in range(-2, 3):
            for P in a1_families(A, u):
                assert vk_membership(A, P.entries)
        found = enumerate_points_bounded(A, 4, "lower", HeightBound(4))
        assert found
        for P in found:
            assert P.entries[1] == 0 or P.entries[2] == 0


def test_criterion_12():
    rng = random.Random(1212)
    with criterion(12, "padding verified points by one to five zeros "
                       "re-verifies in every ring and shape"):
        for ring in (Z, Z_HALF, ZR2):
            for shape in ("lower", "upper", "D"):
                for _ in range(25):
                    k = rng.randint(1, 6)
                    xs = rand_word(rng, ring, k, 8)
                    A = word_to_matrix(Word(shape, xs), ring=ring)
                    P = Word(shape, xs)
                    for extra in range(1, 6):
                        Q = pad(P, A, k + extra)  # verifies internally
                        assert Q.k == k + extra
                        assert vk_membership(A, Q.entries, shape)
