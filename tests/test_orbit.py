"""Window actions and the breadth-first orbit generator."""

from __future__ import annotations

import importlib
import pkgutil

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sl2factor
from sl2factor import (
    Mat2,
    MembershipError,
    Word,
    a1_families,
    act_a0,
    act_v,
    make_ring,
    orbit_run,
    vk_membership,
    window_modulus,
    word_to_matrix,
)


def mat(ring, a, c, b, d):
    return Mat2(ring.el(a), ring.el(c), ring.el(b), ring.el(d))


def els(ring, *vals):
    return tuple(ring.el(v) for v in vals)


def pt(ring, *vals):
    return Word("lower", els(ring, *vals))


# -- window modulus -------------------------------------------------------


def test_window_modulus(Z):
    P = pt(Z, 1, 2, 3, 4, 5)
    assert window_modulus(P, 1) == 7
    assert window_modulus(P, 2) == 13
    for bad in (0, 3):
        with pytest.raises(IndexError):
            window_modulus(P, bad)


# -- unit action ----------------------------------------------------------


def test_act_v_frozen_examples(Z):
    P = pt(Z, 1, 1, 1, 1)
    assert act_v(P, 1, -1) == pt(Z, 2, -1, -1, 2)
    got = act_v(P, 1, 2)
    assert [str(x) for x in got.entries] == ["5/4", "2", "1/2", "1/2"]


def test_act_v_identity_parameter(Z):
    P = pt(Z, 1, 2, 3, 4)
    assert act_v(P, 1, 1) == P


def test_act_v_gates(Z):
    P = pt(Z, 0, 1, -1, 0)  # modulus 0
    with pytest.raises(ValueError):
        act_v(P, 1, -1)
    with pytest.raises(ValueError):
        act_v(pt(Z, 1, 1, 1, 1), 1, 0)


def test_act_v_quadratic_integral_transfer(Zr2):
    # eps^2 = 3 + 2*sqrt(2) is congruent to 1 mod 2, so the action keeps
    # the all-ones point integral despite dividing by the modulus
    eps2 = Zr2.el(3, 2)
    P = pt(Zr2, 1, 1, 1, 1)
    got = act_v(P, 1, eps2)
    assert got.entries == (Zr2.el(0, 1), Zr2.el(3, 2), Zr2.el(3, -2),
                           Zr2.el(0, -1))
    assert got.integral


def test_act_v_half_ring_transfer(Z_half):
    # over Z[1/2] the modulus 2 is itself a unit, so even v = 2 lands
    # back in the ring
    got = act_v(pt(Z_half, 1, 1, 1, 1), 1, 2)
    assert got.integral


@settings(max_examples=80)
@given(
    vals=st.lists(st.integers(-5, 5), min_size=6, max_size=6),
    i=st.integers(1, 3),
    num=st.integers(-8, 8).filter(bool),
    den=st.integers(1, 8),
    shape=st.sampled_from(["lower", "upper"]),
)
def test_act_v_preserves_matrix(vals, i, num, den, shape):
    ring = make_ring("Z")
    P = Word(shape, els(ring, *vals))
    assume(window_modulus(P, i) != 0)
    Q = act_v(P, i, ring.el(num, 0, den))
    assert word_to_matrix(Word(shape, Q.entries)) == word_to_matrix(
        Word(shape, P.entries)
    )


@settings(max_examples=50)
@given(
    vals=st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    v=st.sampled_from([1, -1, 2, -2, 4]),
    w=st.sampled_from([1, -1, 2, 3]),
)
def test_act_v_composition(vals, v, w):
    ring = make_ring("Z")
    P = pt(ring, *vals)
    assume(window_modulus(P, 1) != 0)
    assert act_v(act_v(P, 1, v), 1, w) == act_v(P, 1, v * w)
    assert act_v(act_v(P, 1, v), 1, ring.el(1, 0, v)) == P


# -- shear action ---------------------------------------------------------


def test_act_a0_frozen_example(Z):
    P = pt(Z, 0, 1, -1, 0)
    assert act_a0(P, 1, 1) == pt(Z, -1, 1, -1, -1)
    assert act_a0(P, 1, 0) == P


def test_act_a0_additive(Z):
    P = pt(Z, 0, 1, -1, 0)
    assert act_a0(act_a0(P, 1, 3), 1, -3) == P
    assert act_a0(act_a0(P, 1, 2), 1, 5) == act_a0(P, 1, 7)


def test_act_a0_preserves_matrix(Z):
    P = pt(Z, 0, 1, -1, 0)
    A = word_to_matrix(Word("lower", P.entries))
    for u in (-2, 1, 4):
        Q = act_a0(P, 1, u)
        assert word_to_matrix(Word("lower", Q.entries)) == A


def test_act_a0_gate(Z):
    with pytest.raises(ValueError):
        act_a0(pt(Z, 1, 1, 1, 1), 1, 1)


# -- explicit families ------------------------------------------------------


def test_a1_families_examples(Z):
    A = mat(Z, 1, 3, 2, 7)
    first, second = a1_families(A, 0)
    assert first == pt(Z, 0, 0, 2, 3)
    assert second == pt(Z, 2, 3, 0, 0)
    first, _ = a1_families(A, 5)
    assert first == pt(Z, 5, 0, -3, 3)
    for u in range(-3, 4):
        for P in a1_families(A, u):
            assert vk_membership(A, P.entries)
    assert all(a1_families(A, u)[0].entries[1] == 0 for u in range(5))


def test_a1_families_gate(Z):
    with pytest.raises(ValueError):
        a1_families(mat(Z, 2, 3, 3, 5), 0)


# -- orbit search -----------------------------------------------------------


def test_orbit_single_point_is_seed(Z):
    A = mat(Z, 2, 3, 3, 5)
    seed = pt(Z, 1, 1, 1, 1)
    run = orbit_run(A, seed, 1)
    assert run.points == [seed]
    assert run.records[0].action == "seed"
    assert not run.exhausted


def test_orbit_gates(Z):
    A = mat(Z, 2, 3, 3, 5)
    with pytest.raises(ValueError):
        orbit_run(A, pt(Z, 1, 1, 1, 1), 0)
    with pytest.raises(MembershipError):
        orbit_run(A, pt(Z, 1, 1, 1, 2), 3)


def test_orbit_rejects_non_integral_seed(Z):
    A = mat(Z, 7, 30, 10, 43)
    entries = (type(A.a)(Z, 42, 0, 30), Z.el(30), type(A.a)(Z, 6, 0, 30))
    seed = Word("lower", entries)
    assert vk_membership(A, seed.entries)
    with pytest.raises(MembershipError):
        orbit_run(A, seed, 2)


def test_orbit_over_half_ring(Z_half):
    A = mat(Z_half, 2, 3, 3, 5)
    seed = pt(Z_half, 1, 1, 1, 1)
    got = orbit_run(A, seed, 3).points
    assert len(got) == 3
    assert len(set(got)) == 3
    for P in got:
        assert P.integral
        assert vk_membership(A, P.entries)


def test_orbit_unit_moves_over_integers(Z):
    # modulus 2 window admits v = -1 even over Z
    A = mat(Z, 2, 3, 3, 5)
    got = orbit_run(A, pt(Z, 1, 1, 1, 1), 2).points
    assert pt(Z, 2, -1, -1, 2) in got


def test_orbit_family_fallback(Z):
    A = mat(Z, 1, 3, 2, 7)
    run = orbit_run(A, pt(Z, 0, 0, 2, 3), 5)
    assert len(run.points) == 5
    assert not run.exhausted
    assert any(rec.action == "family" for rec in run.records)
    for P in run.points:
        assert P.integral and vk_membership(A, P.entries)


def test_orbit_closes_without_units(Z):
    # all window moduli exceed 2, so no integer units apply and there is
    # no family to fall back on (a = 7); the run closes at the seed
    A = mat(Z, 7, 30, 10, 43)
    run = orbit_run(A, pt(Z, 1, 2, 3, 4), 3)
    assert run.points == [pt(Z, 1, 2, 3, 4)]
    assert not run.exhausted


def test_orbit_budget_exhaustion(Z_half):
    A = mat(Z_half, 2, 3, 3, 5)
    run = orbit_run(A, pt(Z_half, 1, 1, 1, 1), 50, budget=1)
    assert run.exhausted
    assert len(run.points) < 50


def test_orbit_deterministic(Z_half):
    A = mat(Z_half, 2, 3, 3, 5)
    seed = pt(Z_half, 1, 1, 1, 1)
    r1 = orbit_run(A, seed, 8)
    r2 = orbit_run(A, seed, 8)
    assert r1 == r2


def test_orbit_provenance(Z_half):
    A = mat(Z_half, 2, 3, 3, 5)
    run = orbit_run(A, pt(Z_half, 1, 1, 1, 1), 6)
    assert run.records[0].action == "seed"
    for rec in run.records[1:]:
        assert rec.action in ("unit", "shear", "family")
        if rec.action == "unit":
            assert rec.window is not None and rec.parameter.is_unit()


def package_cache_sizes() -> dict[str, int]:
    """Entry counts of every functools cache in the package's modules,
    found the way the benchmark's clear_caches finds them."""
    mods = [sl2factor] + [importlib.import_module(f"sl2factor.{info.name}")
                          for info in pkgutil.iter_modules(sl2factor.__path__)]
    return {f"{mod.__name__}.{name}": value.cache_info().currsize
            for mod in mods for name, value in vars(mod).items()
            if callable(getattr(value, "cache_info", None))}


def test_orbit_run_leaves_package_caches_alone(Z_half):
    # unit searches are shared within one run, not kept for the process
    before = package_cache_sizes()
    assert before  # the scan finds the caches that remain
    for j in range(1, 6):
        seed = pt(Z_half, 1, j, 1, 1)
        A = word_to_matrix(seed)
        assert len(orbit_run(A, seed, 20).points) == 20
    assert package_cache_sizes() == before
