"""Command-line front end.

Subcommands: factor, verify, orbit, enum, density, units.  Output is
JSON lines on stdout (redirect it to keep them) with a fixed key order,
so identical inputs and seeds give byte-identical output.  Every point
printed anywhere is re-verified against the factorization equations
immediately before printing, by the output gate of `varieties`.  Each
subcommand accepts only the flags it reads (`_COMMANDS`); any other
flag exits 1, and `sl2factor <subcommand> --help` lists them.

Exit codes: 0 success, 1 invalid input, 2 empty result within the given
bounds, 3 search budget exhausted, 4 internal error.  Codes 2 and 3 are
deliberately distinct: "no point exists in this box" and "the search
gave up" are different findings, and one rule (`_gave_up`) decides the
latter for `orbit`, `units` and `density`.  Code 4 reports a fault of the
program, not of the input: a fail-closed check refused a result (a
point that fails the equations is never printed), a bounded
computation such as the Pell unit search did not finish, or a
TypeError or KeyError escaped (parsing makes every malformed input a
ValueError first).  The console script ends like any Unix filter when
its reader goes away (`| head`): it restores the default SIGPIPE
action, so a closed stdout stops it quietly, with no traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from .continuants import membership_residuals
from .density import (density_report, generic_variety_baseline,
                      random_unit_points)
from .matrices import (WORD_SHAPES, Mat2, Word, matrix_from_json,
                       shape_target, word_from_json, word_to_json)
from .orbits import orbit_run
from .rings import ParseError, make_ring, units_congruent_one
from .varieties import (BudgetError, HeightBound, _verified,
                        enumerate_points_bounded, factor_euclid, pad)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_EMPTY = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

DENSITY_BASELINE_MARGIN = 10


def _emit(obj):
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _gave_up(exhausted: bool, stalled, found: int, count: int) -> bool:
    # the budget ran out, or a stalled unit search left the answer short
    return exhausted or (bool(stalled) and found < count)


def _parse_bound(text: str) -> HeightBound:
    parts = text.split(",")
    if len(parts) > 2:
        raise ParseError(f"bad bound {text!r}: expected MAX or MAX,DENOM_EXP")
    return HeightBound(*map(int, parts))


def _json(text: str, flag: str):
    try:
        return json.loads(text)
    except RecursionError:  # not a ValueError, so main would not catch it
        raise ParseError(f"{flag} JSON is nested too deeply") from None


def _matrix(ring, args) -> Mat2:
    return matrix_from_json(ring, _json(args.matrix, "--matrix"))


def _point(ring, args) -> Word:
    return word_from_json(ring, _json(args.point, "--point"), args.shape)


def _euclid_word(A: Mat2, shape: str) -> Word:
    # a lower word for shape_target(A, S) is an S-word for A
    return Word(shape, factor_euclid(shape_target(A, shape)).entries)


def cmd_factor(ring, args) -> int:
    A = _matrix(ring, args)
    word = _euclid_word(A, args.shape)
    payload = word_to_json(_verified(A, word))
    _emit({"shape": payload["shape"], "k": word.k,
           "entries": payload["entries"]})
    return EXIT_OK


def cmd_verify(ring, args) -> int:
    A = _matrix(ring, args)
    P = _point(ring, args)
    res = membership_residuals(A, P.entries, P.shape)
    _emit({"member": not any(res), "integral": P.integral,
           "residuals": [str(x) for x in res]})
    return EXIT_OK


def _orbit_exit(run, count: int) -> int:
    if run.stalled:
        print("unit search stalled at moduli: "
              + ", ".join(str(m) for m in run.stalled), file=sys.stderr)
    if _gave_up(run.exhausted, run.stalled, len(run.records), count):
        print(f"budget exhausted after {len(run.records)} points",
              file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_orbit(ring, args) -> int:
    A = _matrix(ring, args)
    run = orbit_run(A, _point(ring, args), args.count)
    for rec in run.records:
        line = word_to_json(_verified(A, rec.point))
        line["window"] = rec.window
        line["action"] = rec.action
        line["parameter"] = None if rec.parameter is None else str(rec.parameter)
        _emit(line)
    return _orbit_exit(run, args.count)


def cmd_enum(ring, args) -> int:
    A = _matrix(ring, args)
    points = enumerate_points_bounded(A, args.k, args.shape,
                                      _parse_bound(args.bound))
    for P in points:
        _emit(word_to_json(_verified(A, P)))
    return EXIT_OK if points else EXIT_EMPTY


def cmd_density(ring, args) -> int:
    k, degree = args.k, args.degree
    if degree < 1:
        raise ParseError(f"--degree must be at least 1, got {degree}")
    if args.count < 1:
        raise ParseError(f"--count must be at least 1, got {args.count}")
    # in each mode every flag is checked before any orbit or baseline work
    if args.matrix is None:
        for flag in ("point", "shape"):
            if getattr(args, flag) is not None:
                raise ParseError(f"--{flag} needs --matrix")
        if k < 2:
            raise ParseError(f"--k must be at least 2 without --matrix, got {k}")
        points = random_unit_points(ring, k, args.count, args.seed)
        # x1*...*xk - 1 is irreducible and generates the ideal of the
        # unit-product variety, so its degree <= D part is that
        # polynomial times every monomial of degree <= D - k
        baseline = comb(degree, k)
    else:
        A = _matrix(ring, args)
        shape = args.shape or "lower"
        seed_point = (_euclid_word(A, shape) if args.point is None else
                      word_from_json(ring, _json(args.point, "--point"), shape))
        if seed_point.k > k:
            raise ParseError(f"seed has length {seed_point.k} > --k {k}")
        if k < 3:
            raise ParseError(f"--k must be at least 3 with --matrix, got {k}")
        seed_point = pad(seed_point, A, k)
        run = orbit_run(A, seed_point, args.count)
        if _gave_up(run.exhausted, run.stalled, len(run.records), args.count):
            return _orbit_exit(run, args.count)
        points = run.points
        # upper and D points of A are lower points of A.prime(), and the
        # baseline samples lower points
        baseline = generic_variety_baseline(
            shape_target(A, seed_point.shape), k, degree,
            comb(k + degree, degree) + DENSITY_BASELINE_MARGIN, args.seed + 1)
    _emit(density_report(points, degree, baseline=baseline))
    return EXIT_OK


def cmd_units(ring, args) -> int:
    modulus = ring.parse(args.modulus)
    res = units_congruent_one(modulus, args.count)
    _emit({"units": [str(u) for u in res.units],
           "finite_group": not ring.has_infinite_units,
           "stalled": [str(g) for g in res.stalled]})
    # a stall explains a short answer, so it is read before "no units"
    if _gave_up(False, res.stalled, len(res.units), args.count):
        return EXIT_BUDGET
    return EXIT_OK if res.units else EXIT_EMPTY


# every flag any subcommand reads: option strings, add_argument keywords
_FLAGS = {
    "ring": (["--ring"], dict(
        help="ring spec: Z, Z[1/m], Z[sqrt(d)], Z[sqrt(d),1/m]")),
    "matrix": (["--matrix"], dict(
        help='matrix JSON {"a":..,"c":..,"b":..,"d":..} (a c over b d)')),
    "point": (["--point"], dict(
        help="point JSON: entry list or {shape, entries}")),
    "shape": (["--shape"], dict(
        default="lower", choices=WORD_SHAPES,
        help="word shape (default lower)")),
    "k": (["--k"], dict(type=int, help="word length")),
    "bound": (["--bound"], dict(
        help="height box MAX or MAX,DENOM_EXP for enumeration")),
    "degree": (["--degree"], dict(
        type=int, default=2,
        help="degree cap for density checks (default 2)")),
    "count": (["--count", "-n"], dict(
        type=int, default=10,
        help="how many points/units to produce (default 10)")),
    "seed": (["--seed"], dict(
        type=int, default=0,
        help="pseudorandom seed; fixes all sampled values")),
    "modulus": (["--modulus"], dict(
        help="ring element the units must be congruent to 1 against")),
}

# subcommand -> (function, flags it reads besides --ring!, help); "!"
# marks a required flag, "?" one that defaults to None so the command
# can tell whether it was given
_COMMANDS = {
    "factor": (cmd_factor, "matrix! shape",
               "factor a matrix into an alternating elementary word"),
    "verify": (cmd_verify, "matrix! point! shape",
               "check a point against the factorization equations"),
    "orbit": (cmd_orbit, "matrix! point! shape count",
              "grow an orbit of integral points from a seed point"),
    "enum": (cmd_enum, "matrix! shape k! bound!",
             "list all points inside a height box"),
    "density": (cmd_density, "matrix point shape? k! degree count seed",
                "degree-bounded density report for generated points"),
    "units": (cmd_units, "modulus! count",
              "units congruent to 1 modulo a given element"),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sl2factor",
        description="Factor 2x2 unimodular matrices into elementary shears "
                    "over S-integer rings, generate integral points of the "
                    "factorization varieties, and certify density.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (func, flags, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in ("ring!", *flags.split()):
            names, kwargs = _FLAGS[flag.rstrip("!?")]
            if flag.endswith("?"):
                kwargs = {**kwargs, "default": None}
            p.add_argument(*names, required=flag.endswith("!"), **kwargs)
        p.set_defaults(func=func)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INVALID if e.code not in (0, None) else 0
    try:
        return args.func(make_ring(args.ring), args)
    except BudgetError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("budget exhausted: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (AssertionError, RuntimeError, TypeError, KeyError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint():
    import signal  # here, so in-process main() callers skip its 1 ms import
    if hasattr(signal, "SIGPIPE"):  # not on Windows
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
