"""Command-line front end.

Subcommands: factor, verify, orbit, enum, density, units.  Output is
JSON lines with a fixed key order, so identical inputs and seeds give
byte-identical output.  Every point printed anywhere is re-verified
against the factorization equations immediately before printing.

Exit codes: 0 success, 1 invalid input, 2 empty result within the given
bounds, 3 search budget exhausted.  Codes 2 and 3 are deliberately
distinct: "no point exists in this box" and "the search gave up" are
different findings.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from math import comb

from .continuants import membership_residuals, vk_membership
from .density import (density_report, generic_unit_variety_baseline,
                      generic_variety_baseline)
from .matrices import (WORD_SHAPES, Mat2, Word, matrix_from_json,
                       shape_target, word_from_json, word_to_json)
from .orbits import orbit_run
from .rings import ParseError, make_ring, units_congruent_one
from .varieties import (BudgetError, HeightBound, enumerate_points_bounded,
                        factor_euclid, pad, unit_product_points)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_EMPTY = 2
EXIT_BUDGET = 3

DENSITY_BASELINE_MARGIN = 10


def _emit(out, obj):
    out.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _parse_bound(text: str) -> HeightBound:
    parts = text.split(",")
    if len(parts) == 1:
        return HeightBound(int(parts[0]))
    if len(parts) == 2:
        return HeightBound(int(parts[0]), int(parts[1]))
    raise ParseError(f"bad bound {text!r}: expected MAX or MAX,DENOM_EXP")


def _matrix(ring, args) -> Mat2:
    if args.matrix is None:
        raise ParseError("--matrix is required for this subcommand")
    return matrix_from_json(ring, json.loads(args.matrix))


def _point(ring, args) -> Word:
    if args.point is None:
        raise ParseError("--point is required for this subcommand")
    return word_from_json(ring, json.loads(args.point), args.shape)


def _verified_point_json(A: Mat2, P: Word) -> dict:
    # fail closed: nothing is printed that does not satisfy the
    # equations at print time
    if not vk_membership(A, P.entries, P.shape):
        raise AssertionError(f"refusing to print non-member point {P}")
    return word_to_json(P)


def cmd_factor(args, out) -> int:
    ring = make_ring(args.ring)
    A = _matrix(ring, args)
    if A.det() != 1:
        raise ParseError("factorization targets must have determinant 1")
    if args.k is not None or args.bound is not None:
        if args.k is None or args.bound is None:
            raise ParseError("bounded search needs both --k and --bound")
        points = enumerate_points_bounded(A, args.k, args.shape,
                                          _parse_bound(args.bound))
        if not points:
            print("no factorization within the given bounds", file=sys.stderr)
            return EXIT_EMPTY
        word = points[0]
    else:
        word = factor_euclid(A)
    payload = _verified_point_json(A, word)
    _emit(out, {"shape": payload["shape"], "k": word.k,
                "entries": payload["entries"]})
    return EXIT_OK


def cmd_verify(args, out) -> int:
    ring = make_ring(args.ring)
    A = _matrix(ring, args)
    P = _point(ring, args)
    res = membership_residuals(A, P.entries, P.shape)
    _emit(out, {"member": not any(res),
                "integral": P.integral,
                "residuals": [str(x) for x in res]})
    return EXIT_OK


def cmd_orbit(args, out) -> int:
    ring = make_ring(args.ring)
    A = _matrix(ring, args)
    seed = _point(ring, args)
    run = orbit_run(A, seed, args.count)
    for rec in run.records:
        line = _verified_point_json(A, rec.point)
        line["window"] = rec.window
        line["action"] = rec.action
        line["parameter"] = None if rec.parameter is None else str(rec.parameter)
        _emit(out, line)
    if run.stalled:
        print("unit search stalled at moduli: "
              + ", ".join(str(m) for m in run.stalled), file=sys.stderr)
    if run.exhausted:
        print(f"budget exhausted after {len(run.records)} points",
              file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_enum(args, out) -> int:
    ring = make_ring(args.ring)
    A = _matrix(ring, args)
    if args.k is None or args.bound is None:
        raise ParseError("enum needs both --k and --bound")
    points = enumerate_points_bounded(A, args.k, args.shape,
                                      _parse_bound(args.bound))
    for P in points:
        _emit(out, _verified_point_json(A, P))
    return EXIT_OK if points else EXIT_EMPTY


def cmd_density(args, out) -> int:
    ring = make_ring(args.ring)
    if args.k is None:
        raise ParseError("density needs --k")
    k, degree = args.k, args.degree
    baseline_count = comb(k + degree, degree) + DENSITY_BASELINE_MARGIN
    if args.matrix is not None:
        A = _matrix(ring, args)
        if args.point is not None:
            seed_point = _point(ring, args)
        else:
            seed_point = factor_euclid(A)
        if seed_point.k > k:
            raise ParseError(f"seed has length {seed_point.k} > --k {k}")
        seed_point = pad(seed_point, A, k)
        run = orbit_run(A, seed_point, args.count)
        points = run.points
        # upper and D points of A are lower points of A.prime(), and the
        # baseline samples lower points
        baseline = generic_variety_baseline(shape_target(A, seed_point.shape),
                                            k, degree, baseline_count,
                                            args.seed + 1)
    else:
        rng = random.Random(args.seed)
        points = [unit_product_points(ring, k,
                                      [ring.random_unit(rng)
                                       for _ in range(k - 1)])
                  for _ in range(args.count)]
        baseline = generic_unit_variety_baseline(ring, k, degree,
                                                 baseline_count, args.seed + 1)
    _emit(out, density_report(points, degree, baseline=baseline))
    return EXIT_OK


def cmd_units(args, out) -> int:
    ring = make_ring(args.ring)
    if args.modulus is None:
        raise ParseError("units needs --modulus")
    modulus = ring.parse(args.modulus)
    res = units_congruent_one(ring, modulus, args.count)
    _emit(out, {"units": [str(u) for u in res.units],
                "finite_group": res.finite_group,
                "stalled": [str(g) for g in res.stalled]})
    if not res.units:
        return EXIT_EMPTY
    if len(res.units) < args.count and res.stalled:
        return EXIT_BUDGET
    return EXIT_OK


_COMMANDS = {
    "factor": cmd_factor,
    "verify": cmd_verify,
    "orbit": cmd_orbit,
    "enum": cmd_enum,
    "density": cmd_density,
    "units": cmd_units,
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sl2factor",
        description="Factor 2x2 unimodular matrices into elementary shears "
                    "over S-integer rings, generate integral points of the "
                    "factorization varieties, and certify density.")
    sub = top.add_subparsers(dest="command", required=True)
    specs = {
        "factor": "factor a matrix into an alternating elementary word",
        "verify": "check a point against the factorization equations",
        "orbit": "grow an orbit of integral points from a seed point",
        "enum": "list all points inside a height box",
        "density": "degree-bounded density report for generated points",
        "units": "units congruent to 1 modulo a given element",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--ring", required=True,
                       help="ring spec: Z, Z[1/m], Z[sqrt(d)], Z[sqrt(d),1/m]")
        p.add_argument("--matrix", help='matrix JSON {"a":..,"c":..,"b":..,"d":..}'
                                        " (a c over b d)")
        p.add_argument("--point",
                       help="point JSON: entry list or {shape, entries}")
        p.add_argument("--shape", default="lower",
                       choices=WORD_SHAPES,
                       help="word shape (default lower)")
        p.add_argument("--k", type=int, help="word length")
        p.add_argument("--bound",
                       help="height box MAX or MAX,DENOM_EXP for enumeration")
        p.add_argument("--degree", type=int, default=2,
                       help="degree cap for density checks (default 2)")
        p.add_argument("--count", "-n", type=int, default=10,
                       help="how many points/units to produce (default 10)")
        p.add_argument("--seed", type=int, default=0,
                       help="pseudorandom seed; fixes all sampled values")
        p.add_argument("--output",
                       help="write JSON lines here instead of stdout")
        if name == "units":
            p.add_argument("--modulus", help="ring element the units must "
                                             "be congruent to 1 against")
        p.set_defaults(func=_COMMANDS[name])
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INVALID if e.code not in (0, None) else 0
    try:
        if args.output:
            try:
                out = open(args.output, "w")
            except OSError as e:
                print(f"error: {e}", file=sys.stderr)
                return EXIT_INVALID
            with out:
                return args.func(args, out)
        return args.func(args, sys.stdout)
    except BudgetError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ZeroDivisionError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
