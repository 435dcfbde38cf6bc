"""Degree-bounded density certificates for generated point sets.

Two experiments, all arithmetic exact:

  1. points (2^n, 2^-n) on the unit-product curve x1*x2 = 1: the
     vanishing space at degree 2 is exactly the span of x1*x2 - 1
  2. orbit-generated integral points of a length-6 factorization
     variety: their degree-2 nullity matches the generic baseline, so
     no unexpected relation survives

Run: python3 demos/04_density_experiment.py
"""

from sl2factor import (
    Mat2,
    PointTuple,
    density_report,
    generic_variety_baseline,
    make_ring,
    orbit_run,
    pad,
    vanishing_basis,
)


def poly(vec, exps):
    terms = []
    for coef, e in zip(vec, exps):
        if coef == 0:
            continue
        mono = "*".join(f"x{i + 1}^{ei}" if ei > 1 else f"x{i + 1}"
                        for i, ei in enumerate(e) if ei)
        terms.append(f"({coef})" + ("*" + mono if mono else ""))
    return " + ".join(terms)


def main():
    R = make_ring("Z[1/2]")

    two, half = R.el(2), R.el(1, 0, 2)
    pts = [(two**n, half**n) for n in range(10)]
    basis, exps = vanishing_basis(pts, 2)
    print("unit curve points (2^n, 2^-n), n = 0..9")
    print(f"  degree-2 relations: {len(basis)}")
    for vec in basis:
        print(f"  {poly(vec, exps)} = 0")
    print()

    A = Mat2(R.el(2), R.el(3), R.el(3), R.el(5))
    seed = pad(PointTuple("lower", tuple(R.el(1) for _ in range(4))), A, 6)
    pts = orbit_run(A, seed, 80).points
    baseline = generic_variety_baseline(A, 6, 2, 38, 2024)
    report = density_report(pts, 2, baseline=baseline)
    print(f"length-6 variety of {A} over Z[1/2]")
    for key, val in report.items():
        print(f"  {key}: {val}")


if __name__ == "__main__":
    main()
