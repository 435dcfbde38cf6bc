"""Grow integral solution points by the window actions over Z[1/2].

The window (x1, x2, x3, x4) with modulus a = 1 + x2*x3 != 0 can be
rewritten by any unit v congruent to 1 mod a without changing the
matrix; over Z[1/2] the powers of 2 supply infinitely many such units.

Run: python3 demos/03_unit_orbit_walk.py
"""

from sl2factor import (
    Mat2,
    Word,
    make_ring,
    orbit_run,
    units_congruent_one,
    window_modulus,
)


def main():
    R = make_ring("Z[1/2]")
    A = Mat2(R.el(2), R.el(3), R.el(3), R.el(5))
    seed = Word("lower", tuple(R.el(1) for _ in range(4)))

    a = window_modulus(seed, 1)
    print(f"seed {seed}, window modulus {a}")
    found = units_congruent_one(a, 4)
    print(f"units = 1 mod {a}: {[str(u) for u in found.units]}")
    print()

    run = orbit_run(A, seed, 12)
    print(f"first {len(run.records)} orbit points of {A}:")
    for rec in run.records:
        move = (f"window {rec.window}, {rec.action} {rec.parameter}"
                if rec.window else rec.action)
        print(f"  {str(rec.point):42s} <- {move}")
    print()
    print("every point is integral over Z[1/2] and re-verified against")
    print("the factorization equations before being recorded")


if __name__ == "__main__":
    main()
