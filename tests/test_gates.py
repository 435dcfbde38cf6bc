"""Input gates of the library and the CLI, one case each."""

from __future__ import annotations

import contextlib
import io

import pytest

from sl2factor import (HeightBound, Ring, Word, enumerate_points_bounded,
                       identity, make_ring, reverse_point, units_congruent_one)
from sl2factor.cli import main
from sl2factor.density import certified_kernel

Z = make_ring("Z")
Z_HALF = make_ring("Z[1/2]")
IDENTITY = '{"a":"1","c":"0","b":"0","d":"1"}'


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _outcome(call):
    """("returned", value), or the name and message of what `call` raised."""
    try:
        return "returned", call()
    except Exception as e:
        return type(e).__name__, str(e)


GATES = {
    "kernel-no-rows": (lambda: certified_kernel([], 1),
                       ("ValueError", "need at least one row")),
    "mat2-matmul-int": (lambda: identity(Z) @ 1, (
        "TypeError", "unsupported operand type(s) for @: 'Mat2' and 'int'")),
    "reverse-upper-point": (
        lambda: reverse_point(Word("upper", ()), identity(Z)),
        ("ValueError", "reverse_point starts from a lower-start point")),
    "enum-negative-k": (
        lambda: enumerate_points_bounded(identity(Z), -1, "lower",
                                         HeightBound(1)),
        ("ValueError", "k must be >= 0")),
    "cli-enum-negative-k": (
        lambda: _cli("enum", "--ring", "Z", "--matrix", IDENTITY,
                     "--k", "-1", "--bound", "1"),
        ("returned", (1, "", "error: k must be >= 0\n"))),
    "units-zero-modulus": (lambda: units_congruent_one(Z_HALF.zero, 3),
                           ("ZeroDivisionError", "zero modulus")),
    "units-negative-count": (lambda: units_congruent_one(Z_HALF.el(3), -1),
                             ("ValueError", "count must be >= 0")),
    "cli-units-zero-modulus": (
        lambda: _cli("units", "--ring", "Z[1/2]", "--modulus", "0"),
        ("returned", (1, "", "error: zero modulus\n"))),
    "div-exact-zero": (lambda: Z.el(3).div_exact(0),
                       ("ZeroDivisionError", "division by zero")),
    "el-foreign-ring": (lambda: Z.el(Z_HALF.one),
                        ("RingMismatchError", "element of Z[1/2] used in Z")),
    "ring-zero-m": (lambda: Ring(None, 0),
                    ("ValueError", "m must be >= 1, got 0")),
    "zero-is-not-a-unit": (lambda: Z.zero.is_unit(), ("returned", False)),
}


@pytest.mark.parametrize("call, want", GATES.values(), ids=GATES.keys())
def test_input_gate(call, want):
    assert _outcome(call) == want
