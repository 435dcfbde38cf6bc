"""End-to-end CLI behavior through main(argv)."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import signal
import string
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2factor import Mat2, Word, make_ring, vk_membership, word_to_matrix
from sl2factor import cli, orbits, rings
from sl2factor.cli import main

A_2335 = '{"a":"2","c":"3","b":"3","d":"5"}'
IDENTITY = '{"a":"1","c":"0","b":"0","d":"1"}'
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines()]
    return code, lines, captured.err


# -- factor -----------------------------------------------------------------


def test_factor_example(capsys):
    code, lines, _ = run(capsys, "factor", "--ring", "Z", "--matrix", A_2335)
    assert code == 0
    assert len(lines) == 1
    obj = lines[0]
    assert obj["shape"] == "lower" and obj["k"] == len(obj["entries"])
    ring = make_ring("Z")
    word = Word("lower", tuple(ring.parse(v) for v in obj["entries"]))
    got = word_to_matrix(word, ring=ring)
    assert (str(got.a), str(got.c), str(got.b), str(got.d)) == ("2", "3", "3", "5")


@pytest.mark.parametrize("shape", ["upper", "D"])
def test_factor_euclid_honours_shape(capsys, shape):
    ring = make_ring("Z")
    code, lines, _ = run(capsys, "factor", "--ring", "Z", "--matrix", A_2335,
                         "--shape", shape)
    assert code == 0 and len(lines) == 1
    assert lines[0]["shape"] == shape
    word = Word(shape, tuple(ring.parse(v) for v in lines[0]["entries"]))
    got = word_to_matrix(word, ring=ring)
    assert (str(got.a), str(got.c), str(got.b), str(got.d)) == ("2", "3", "3", "5")


@pytest.mark.parametrize("shape, line", [
    ("lower", '{"shape":"lower","k":6,"entries":["1","-1","2","-1","1","-5"]}'),
    ("upper", '{"shape":"upper","k":6,"entries":["-5","1","-1","2","-1","1"]}'),
])
def test_factor_minus_identity_residual(capsys, shape, line):
    # (-1 5; 0 -1) is -I times U(-5): the fixed -I word, merged with U(-5)
    # when the word starts upper
    code = main(["factor", "--ring", "Z", "--shape", shape,
                 "--matrix", '{"a":"-1","c":"5","b":"0","d":"-1"}'])
    assert code == 0 and capsys.readouterr().out == line + "\n"


def test_factor_identity(capsys):
    code, lines, _ = run(capsys, "factor", "--ring", "Z", "--matrix", IDENTITY)
    assert code == 0
    assert lines == [{"shape": "lower", "k": 0, "entries": []}]


def test_factor_rejects_det_minus_one(capsys):
    code, lines, err = run(capsys, "factor", "--ring", "Z", "--matrix",
                           '{"a":"0","c":"1","b":"1","d":"0"}')
    assert code == 1 and not lines and "determinant" in err


DET_MINUS_ONE = '{"a":"0","c":"1","b":"1","d":"0"}'


@pytest.mark.parametrize("argv", [
    ["factor"], ["enum", "--k", "3", "--bound", "1"],
    ["verify", "--point", '["1","1","1"]'],
    ["orbit", "--point", '["1","1","1","1"]'],
    ["density", "--k", "4"], ["density", "--k", "4", "--shape", "upper"],
], ids=["factor", "enum", "verify", "orbit", "density", "density-upper"])
def test_det_minus_one_target_has_one_message(capsys, argv):
    code, lines, err = run(capsys, *argv, "--ring", "Z",
                           "--matrix", DET_MINUS_ONE)
    assert code == 1 and not lines
    assert err == "error: target matrix must have determinant 1\n"


# -- verify -------------------------------------------------------------------


def test_verify_member(capsys):
    code, lines, _ = run(capsys, "verify", "--ring", "Z", "--matrix", A_2335,
                         "--point", '["1","1","1","1"]')
    assert code == 0
    assert lines == [{"member": True, "integral": True,
                      "residuals": ["0", "0", "0", "0"]}]


def test_verify_non_member(capsys):
    code, lines, _ = run(capsys, "verify", "--ring", "Z", "--matrix", A_2335,
                         "--point", '["1","1","1","2"]')
    assert code == 0
    assert lines[0]["member"] is False
    assert any(v != "0" for v in lines[0]["residuals"])


def test_verify_empty_point_against_identity(capsys):
    code, lines, _ = run(capsys, "verify", "--ring", "Z",
                         "--matrix", IDENTITY, "--point", "[]")
    assert code == 0 and lines[0]["member"] is True


def test_verify_fractional_point(capsys):
    code, lines, _ = run(capsys, "verify", "--ring", "Z",
                         "--matrix", '{"a":"7","c":"30","b":"10","d":"43"}',
                         "--point", '["42/30","30","6/30"]')
    assert code == 0
    assert lines[0] == {"member": True, "integral": False,
                        "residuals": ["0", "0", "0", "0"]}


# -- orbit ----------------------------------------------------------------------


def test_orbit_run(capsys):
    code, lines, err = run(capsys, "orbit", "--ring", "Z[1/2]",
                           "--matrix", A_2335, "--point", '["1","1","1","1"]',
                           "-n", "5")
    assert code == 0 and err == ""
    assert len(lines) == 5
    assert lines[0]["action"] == "seed" and lines[0]["window"] is None
    assert all(obj["integral"] for obj in lines)
    assert all(obj["action"] in ("seed", "unit", "shear", "family")
               for obj in lines)
    entries = [tuple(obj["entries"]) for obj in lines]
    assert len(set(entries)) == 5


def test_orbit_k6_over_z_sixth_completes(capsys):
    # every coordinate must stay printable: int->str stops at 4300 digits
    code, lines, err = run(capsys, "orbit", "--ring", "Z[1/6]",
                           "--matrix", A_2335,
                           "--point", '["1","1","1","1","0","0"]', "-n", "600")
    assert code == 0 and err == ""
    assert len(lines) == 600
    assert len({tuple(obj["entries"]) for obj in lines}) == 600
    ring = make_ring("Z[1/6]")
    A = Mat2(ring.el(2), ring.el(3), ring.el(3), ring.el(5))
    for obj in lines:
        P = Word(obj["shape"], tuple(ring.parse(v) for v in obj["entries"]))
        assert P.integral and obj["integral"]
        assert vk_membership(A, P.entries, P.shape)


def test_orbit_closed_set_is_not_an_error(capsys):
    code, lines, _ = run(capsys, "orbit", "--ring", "Z",
                         "--matrix", '{"a":"7","c":"30","b":"10","d":"43"}',
                         "--point", '["1","2","3","4"]', "-n", "4")
    assert code == 0
    assert len(lines) == 1  # nothing reachable beyond the seed over Z


def test_orbit_budget_exhausted(capsys, monkeypatch):
    # three window attempts make the README orbit's first five points
    monkeypatch.setattr(orbits, "ORBIT_BUDGET", 3)
    argv, stdout = README_CLI[3][:2]
    assert main(argv) == cli.EXIT_BUDGET == 3
    captured = capsys.readouterr()
    assert captured.out == "".join(stdout.splitlines(keepends=True)[:5])
    assert captured.err == "budget exhausted after 5 points\n"


def test_orbit_stall_that_cuts_the_run_short_exits_3(capsys):
    # the seed's one window has modulus 1000003, where the order of 2 is
    # 1000002, past ORDER_SEARCH_CAP: the search gave up, exit 3
    code, lines, err = run(
        capsys, "orbit", "--ring", "Z[1/2]", "--matrix",
        '{"a":"1000003","c":"2000005","b":"1000004","d":"2000007"}',
        "--point", '["1","1000002","1","1"]', "-n", "5")
    assert code == 3 and [obj["action"] for obj in lines] == ["seed"]
    assert err == ("unit search stalled at moduli: 1000003\n"
                   "budget exhausted after 1 points\n")


def test_density_stall_that_cuts_the_orbit_short_exits_3(capsys):
    # the orbit above, asked for 50 points: no verdict on the 1 it found,
    # but orbit's exit and stderr
    code, lines, err = run(
        capsys, "density", "--ring", "Z[1/2]", "--matrix",
        '{"a":"1000003","c":"2000005","b":"1000004","d":"2000007"}',
        "--point", '["1","1000002","1","1"]', "--k", "4", "--degree", "2",
        "-n", "50")
    assert (code, lines) == (3, [])
    assert err == ("unit search stalled at moduli: 1000003\n"
                   "budget exhausted after 1 points\n")


def test_orbit_rejects_non_member_seed(capsys):
    code, lines, err = run(capsys, "orbit", "--ring", "Z", "--matrix", A_2335,
                           "--point", '["1","1","1","2"]')
    assert code == 1 and not lines and "does not solve" in err


def refuse_members(monkeypatch, accept=lambda xs: False):
    # the membership test behind both gates of varieties
    monkeypatch.setattr("sl2factor.varieties.vk_membership",
                        lambda A, xs, shape="lower": accept(tuple(xs)))


@pytest.mark.parametrize("module", ["orbits", "cli"])
def test_orbit_refused_point_is_internal_error(capsys, monkeypatch, module):
    # a fail-closed refusal at emission (orbits) or at print time (cli)
    # exits 4 with one error line, never a traceback or a printed point
    ring = make_ring("Z[1/2]")
    seed = tuple(ring.el(1) for _ in range(4))
    if module == "orbits":  # the seed passes the input gate, children fail
        refuse_members(monkeypatch, lambda xs: xs == seed)
    else:
        orbit_run = cli.orbit_run

        def run_then_refuse(*args):
            run = orbit_run(*args)
            assert len(run.records) == 5
            refuse_members(monkeypatch)
            return run

        monkeypatch.setattr(cli, "orbit_run", run_then_refuse)
    code = main(["orbit", "--ring", "Z[1/2]", "--matrix", A_2335,
                 "--point", '["1","1","1","1"]', "-n", "5"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4 and captured.out == ""
    assert captured.err.startswith("internal error:")
    assert "non-member" in captured.err and "Traceback" not in captured.err


def test_enum_refused_match_is_internal_error(capsys, monkeypatch):
    # a box-search match that fails its recheck is a fault, not an empty box
    refuse_members(monkeypatch)
    code = main(["enum", "--ring", "Z", "--matrix", IDENTITY,
                 "--k", "3", "--bound", "2"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("internal error:")
    assert "non-member" in captured.err and captured.err.count("\n") == 1


def test_unclosed_unit_search_is_internal_error(capsys, monkeypatch):
    def unclosed(d):
        raise RuntimeError(f"continued fraction of sqrt({d}) did not close")

    monkeypatch.setattr("sl2factor.rings._pell_min_unit", unclosed)
    code = main(["units", "--ring", "Z[sqrt(2)]", "--modulus", "3"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == ("internal error: continued fraction of sqrt(2) "
                            "did not close\n")


def test_huge_pell_search_is_internal_error(capsys):
    t = time.perf_counter()
    code = main(["units", "--ring", "Z[sqrt(1000000000000000009)]",
                 "--modulus", "3", "-n", "1"])
    captured = capsys.readouterr()
    assert time.perf_counter() - t < 10
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("internal error: continued fraction")
    assert captured.err.count("\n") == 1


# -- enum -----------------------------------------------------------------------


def test_enum_identity_line(capsys):
    code, lines, _ = run(capsys, "enum", "--ring", "Z", "--matrix", IDENTITY,
                         "--k", "3", "--bound", "2")
    assert code == 0
    assert [obj["entries"] for obj in lines] == [
        ["-2", "0", "2"], ["-1", "0", "1"], ["0", "0", "0"],
        ["1", "0", "-1"], ["2", "0", "-2"],
    ]


def test_enum_empty(capsys):
    code, lines, _ = run(capsys, "enum", "--ring", "Z",
                         "--matrix", '{"a":"-1","c":"0","b":"0","d":"-1"}',
                         "--k", "3", "--bound", "2")
    assert code == 2 and lines == []


def test_enum_missing_flags(capsys):
    code, _, err = run(capsys, "enum", "--ring", "Z", "--matrix", IDENTITY)
    assert code == 1 and "--k" in err


def test_enum_budget_exhausted(capsys):
    code, lines, err = run(capsys, "enum", "--ring", "Z", "--matrix", IDENTITY,
                           "--k", "12", "--bound", "20")
    assert code == 3 and not lines
    assert "budget" in err.lower()


@pytest.mark.parametrize("k, bound", [("200000000", "1"), ("2000000000", "0")])
def test_enum_budget_gate_is_cheap(k, bound):
    # a huge half (3^(10^8) words) and a one-element box (10^9 letters
    # per half) are refused before any power or half-word is formed
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-m", "sl2factor.cli", "enum", "--ring", "Z",
           "--matrix", A_2335, "--k", k, "--bound", bound]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=2)
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.startswith("budget exhausted:")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def _refused(message):
    return 3, "", f"budget exhausted: {message} exceed the cap\n"


@pytest.mark.parametrize("ring, k, bound, want", [
    # boxes of 2*10^6 + 1 and 4001^2 values, counted and never built
    ("Z", "1", "1000000", _refused("2000001^1 half-words of 1 letters")),
    ("Z[sqrt(2)]", "1", "2000", _refused("16008001^1 half-words of 1 letters")),
    # MAX 0 is the box {0}, whatever DENOM_EXP allows
    ("Z[1/2]", "2", "0,100000000",
     (0, '{"shape":"lower","entries":["0","0"],"integral":true}\n', "")),
    # 500000501 values, counted by inclusion-exclusion
    ("Z[1/2]", "2", "500,999999", _refused("500000501^1 half-words of 1 letters")),
    # 10^8 + 1 denominators: a lower bound on the box past the cap
    ("Z[1/2]", "2", "1,100000000",
     _refused("more than 1000000^1 half-words of 1 letters")),
    # (2*MAX+1)^2 has more digits than Python prints: counted, not printed
    pytest.param("Z[sqrt(2)]", "1", "9" * 2200,
                 _refused("more than 1000000^1 half-words of 1 letters"),
                 id="Z[sqrt(2)]-1-2200-nines"),
])
def test_box_gate_is_decided_before_the_box(ring, k, bound, want):
    # no large box or power of a prime is formed to decide the gate: the
    # process, interpreter start included, ends within 1 s
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-m", "sl2factor.cli", "enum", "--ring", ring,
           "--matrix", IDENTITY, "--k", k, "--bound", bound]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=2)
    assert time.perf_counter() - start < 1.0
    assert (done.returncode, done.stdout, done.stderr) == want


def test_enum_rejects_a_bound_of_three_parts(capsys):
    code, lines, err = run(capsys, "enum", "--ring", "Z", "--matrix", IDENTITY,
                           "--k", "3", "--bound", "1,2,3")
    assert code == 1 and not lines
    assert err == "error: bad bound '1,2,3': expected MAX or MAX,DENOM_EXP\n"


def test_enum_cap_refuses_past_a_million_letters(capsys):
    # 10^6 + 1 letters per half over the box {0} is one past ENUM_HALF_CAP
    # and refused before the walk; a search at the cap walks in about 10 s
    start = time.perf_counter()
    code, lines, err = run(capsys, "enum", "--ring", "Z", "--matrix", A_2335,
                           "--k", "2000002", "--bound", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and not lines
    assert err == ("budget exhausted: 1^1000001 half-words of 1000001 "
                   "letters exceed the cap\n")


def test_enum_long_word_over_one_letter(capsys):
    # 1500 letters per half over the box {0}: walked without recursion
    code, lines, err = run(capsys, "enum", "--ring", "Z", "--matrix", A_2335,
                           "--k", "3000", "--bound", "0")
    assert code == 2 and not lines
    assert "Traceback" not in err


# box searches whose stdout and exit codes are pinned by one sha256, taken
# on the code before `factor` lost its box mode
GOLDEN_BOX_SEARCHES = [
    ["enum", "--ring", "Z", "--matrix", IDENTITY, "--k", "3", "--bound", "2"],
    ["enum", "--ring", "Z", "--matrix", '{"a":"2","c":"1","b":"1","d":"1"}',
     "--k", "3", "--bound", "2"],
    ["enum", "--ring", "Z[1/2]", "--matrix", A_2335, "--k", "4",
     "--bound", "1,1"],
    ["enum", "--ring", "Z[1/2]", "--matrix", A_2335, "--k", "5",
     "--bound", "1,1", "--shape", "upper"],
    ["enum", "--ring", "Z[1/2]", "--matrix", IDENTITY, "--k", "4",
     "--bound", "1,1", "--shape", "D"],
    ["enum", "--ring", "Z", "--matrix", A_2335, "--k", "4", "--bound", "2",
     "--shape", "upper"],
    ["enum", "--ring", "Z", "--matrix", A_2335, "--k", "5", "--bound", "2",
     "--shape", "D"],
    ["enum", "--ring", "Z", "--matrix", '{"a":"0","c":"1","b":"-1","d":"0"}',
     "--k", "3", "--bound", "2", "--shape", "D"],
    ["enum", "--ring", "Z[sqrt(2)]", "--matrix", IDENTITY, "--k", "2",
     "--bound", "1"],
    ["enum", "--ring", "Z", "--matrix", IDENTITY, "--k", "0", "--bound", "1"],
    ["enum", "--ring", "Z", "--matrix", '{"a":"-1","c":"0","b":"0","d":"-1"}',
     "--k", "3", "--bound", "2"],
    ["enum", "--ring", "Z", "--matrix", IDENTITY, "--k", "12", "--bound", "20"],
    ["enum", "--ring", "Z[1/2]", "--matrix", A_2335, "--k", "4",
     "--bound", "1,1", "--shape", "upper"],
    ["enum", "--ring", "Z", "--matrix", A_2335, "--k", "2", "--bound", "3"],
    ["enum", "--ring", "Z", "--matrix", A_2335, "--k", "5", "--bound", "2",
     "--shape", "D"],
]
GOLDEN_BOX_SHA256 = (
    "33b412deb89d367f672207d479dce73c8189fef5d5d56f11997071cdffa7b486")


def test_box_searches_are_pinned(capsys):
    text, codes = "", []
    for argv in GOLDEN_BOX_SEARCHES:
        codes.append(main(argv))
        text += f"{codes[-1]}\n{capsys.readouterr().out}"
    assert codes == [0] * 10 + [2, 3, 2, 2, 0]
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_BOX_SHA256


# -- density ----------------------------------------------------------------------


def test_density_matrix_mode(capsys):
    code, lines, _ = run(capsys, "density", "--ring", "Z[1/2]",
                         "--matrix", A_2335, "--point", '["1","1","1","1"]',
                         "--k", "4", "--degree", "2", "-n", "40", "--seed", "3")
    assert code == 0
    assert lines == [{"k": 4, "D": 2, "monomials": 15, "points": 40,
                      "nullity": 10, "baseline": 10, "dense_at_D": True}]


def test_density_matrix_mode_euclid_seed(capsys):
    code, lines, _ = run(capsys, "density", "--ring", "Z[1/2]",
                         "--matrix", A_2335, "--k", "6", "--degree", "2",
                         "-n", "60", "--seed", "3")
    assert code == 0
    assert lines[0]["dense_at_D"] is True
    assert lines[0]["nullity"] == lines[0]["baseline"] == 3


def test_density_unit_mode(capsys):
    code, lines, _ = run(capsys, "density", "--ring", "Z[1/2]", "--k", "2",
                         "--degree", "2", "-n", "12", "--seed", "1")
    assert code == 0
    assert lines == [{"k": 2, "D": 2, "monomials": 6, "points": 12,
                      "nullity": 1, "baseline": 1, "dense_at_D": True}]


def test_density_unit_mode_over_z_is_not_dense(capsys):
    # Z has the units 1 and -1 only, so the unit points are the two
    # points (1, 1) and (-1, -1), not a dense subset of x1*x2 = 1;
    # "points" counts the 100 points passed in, repeats included
    assert main(["density", "--ring", "Z", "--k", "2", "--degree", "2",
                 "-n", "100"]) == 0
    assert capsys.readouterr().out == (
        '{"k":2,"D":2,"monomials":6,"points":100,"nullity":4,"baseline":1,'
        '"dense_at_D":false}\n')


def test_density_baseline_follows_seed_shape(capsys):
    # upper and D points of A are lower points of A.prime(), so the
    # baseline must be sampled from that variety
    prime_line = ('{"k":4,"D":2,"monomials":15,"points":100,"nullity":12,'
                  '"baseline":12,"dense_at_D":true}\n')
    point = ["--point", '["1","2","0","0"]', "--k", "4", "-n", "100"]
    assert main(["density", "--ring", "Z[1/2]", "--matrix",
                 '{"a":"1","c":"2","b":"1","d":"3"}', "--shape", "lower",
                 *point]) == 0
    assert capsys.readouterr().out == prime_line
    for shape in ("upper", "D"):
        assert main(["density", "--ring", "Z[1/2]", "--matrix",
                     '{"a":"3","c":"1","b":"2","d":"1"}', "--shape", shape,
                     *point]) == 0
        assert capsys.readouterr().out == prime_line
    # over Z the lower variety of A itself has no generic points at all
    code, lines, err = run(capsys, "density", "--ring", "Z", "--matrix",
                           '{"a":"-1","c":"0","b":"2","d":"-1"}', "--k", "3",
                           "--shape", "upper", "--point", '["-1","2","-1"]')
    assert code == 0 and err == "" and lines[0]["dense_at_D"] is True


@pytest.mark.parametrize("shape", ["upper", "D"])
def test_density_euclid_seed_honours_shape(capsys, shape):
    # without --point the seed is the Euclid word of the requested shape,
    # which for (2 3; 3 5) has length 8 (the lower one has length 5)
    argv = ["density", "--ring", "Z[1/2]", "--matrix", A_2335, "-n", "100",
            "--shape", shape]
    code, lines, err = run(capsys, *argv, "--k", "6")
    assert code == 1 and not lines and "seed has length 8 > --k 6" in err
    code, lines, _ = run(capsys, "factor", "--ring", "Z", "--matrix", A_2335,
                         "--shape", shape)
    assert code == 0 and lines[0]["k"] == 8
    word = json.dumps(lines[0]["entries"])
    assert main([*argv, "--k", "8"]) == 0
    seedless = capsys.readouterr().out
    assert main([*argv, "--k", "8", "--point", word]) == 0
    assert capsys.readouterr().out == seedless == (
        '{"k":8,"D":2,"monomials":45,"points":100,"nullity":0,'
        '"baseline":0,"dense_at_D":true}\n')


def test_density_unit_mode_rejects_point(capsys):
    code, lines, err = run(capsys, "density", "--ring", "Z[1/2]", "--k", "2",
                           "--point", '["9","9"]')
    assert code == 1 and not lines
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--point" in err


@pytest.mark.parametrize("shape", ["lower", "upper", "D"])
def test_density_unit_mode_rejects_shape(capsys, shape):
    code, lines, err = run(capsys, "density", "--ring", "Z[1/2]", "--k", "2",
                           "-n", "8", "--shape", shape)
    assert code == 1 and not lines
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--shape" in err


@pytest.mark.parametrize("mode", [["--k", "2"], ["--matrix", A_2335, "--k", "6"]],
                         ids=["unit", "matrix"])
@pytest.mark.parametrize("degree", ["0", "-1"])
def test_density_rejects_degree_below_one(capsys, mode, degree):
    code, lines, err = run(capsys, "density", "--ring", "Z[1/2]", *mode,
                           "-n", "8", "--degree", degree)
    assert code == 1 and not lines
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--degree" in err


def _fail_if_called(*args, **kwargs):
    pytest.fail("density did orbit or baseline work before rejecting a flag")


@pytest.fixture
def no_density_work(monkeypatch):
    for name in ("orbit_run", "random_unit_points", "generic_variety_baseline"):
        monkeypatch.setattr(cli, name, _fail_if_called)


@pytest.mark.parametrize("mode", [["--k", "2"], ["--matrix", A_2335, "--k", "6"]],
                         ids=["unit", "matrix"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_density_rejects_count_below_one(capsys, no_density_work, mode, count):
    code, lines, err = run(capsys, "density", "--ring", "Z[1/2]", *mode,
                           "-n", count)
    assert code == 1 and not lines
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--count" in err


@pytest.mark.parametrize("k", ["1", "0", "-5"])
def test_density_unit_mode_rejects_k_below_two(capsys, no_density_work, k):
    code, lines, err = run(capsys, "density", "--ring", "Z[1/2]", "--k", k,
                           "-n", "8")
    assert code == 1 and not lines
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--k" in err


def test_density_needs_k(capsys):
    code, _, err = run(capsys, "density", "--ring", "Z[1/2]")
    assert code == 1 and "--k" in err


def test_density_rejects_long_seed(capsys):
    code, _, err = run(capsys, "density", "--ring", "Z[1/2]",
                       "--matrix", A_2335, "--k", "4")
    assert code == 1 and "length 5" in err
    # a negative --k is a too-short word too, not a failure inside comb
    code, _, err = run(capsys, "density", "--ring", "Z[1/2]",
                       "--matrix", A_2335, "--k", "-5")
    assert code == 1 and "length 5 > --k -5" in err


@pytest.mark.parametrize("seed", [["--point", '["1","1"]'], []],
                         ids=["point", "euclid"])
def test_density_matrix_mode_rejects_k_below_three(capsys, no_density_work, seed):
    # (1 1; 1 2) = L(1)U(1) has a length-2 word, but the baseline lifts
    # points through the length-3 fibration, so k = 2 has no baseline
    code, lines, err = run(capsys, "density", "--ring", "Z", "--matrix",
                           '{"a":"1","c":"1","b":"1","d":"2"}', "--k", "2",
                           *seed, "-n", "5")
    assert code == 1 and not lines
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--k must be at least 3 with --matrix, got 2" in err


def test_density_matrix_mode_k3_line(capsys):
    # V_3(I) is the line (-t, 0, t); the baseline samples that line, so
    # the one seed point is not dense in it
    code, lines, _ = run(capsys, "density", "--ring", "Z[1/2]", "--matrix",
                         IDENTITY, "--k", "3", "-n", "5")
    assert code == 0 and lines == [
        {"k": 3, "D": 2, "monomials": 10, "points": 1, "nullity": 9,
         "baseline": 7, "dense_at_D": False}]


def test_density_matrix_mode_k3(capsys):
    code, lines, _ = run(capsys, "density", "--ring", "Z", "--matrix",
                         '{"a":"1","c":"1","b":"1","d":"2"}', "--k", "3",
                         "--point", '["1","1"]', "-n", "5")
    assert code == 0 and lines == [
        {"k": 3, "D": 2, "monomials": 10, "points": 1, "nullity": 9,
         "baseline": 9, "dense_at_D": True}]


def test_density_out_of_memory_exits_3():
    # C(49, 40), about 2*10^9 monomials, cannot be listed in 256 MiB of
    # address space: the MemoryError ends in one stderr line, not a traceback
    resource = pytest.importorskip("resource")
    limit = 256 * 2**20
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-m", "sl2factor.cli", "density", "--ring",
           "Z[1/2]", "--k", "9", "--degree", "40", "-n", "1"]
    done = subprocess.run(
        cmd, capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", "budget exhausted: out of memory\n")


# -- units ------------------------------------------------------------------------


def test_units_half_ring(capsys):
    code, lines, _ = run(capsys, "units", "--ring", "Z[1/2]",
                         "--modulus", "8", "-n", "3")
    assert code == 0
    assert lines == [{"units": ["2", "-1", "4"], "finite_group": False,
                      "stalled": []}]


def test_units_quadratic(capsys):
    code, lines, _ = run(capsys, "units", "--ring", "Z[sqrt(2)]",
                         "--modulus", "(3+2*w)", "-n", "2")
    assert code == 0
    assert lines == [{"units": ["(1+1*w)", "-1"], "finite_group": False,
                      "stalled": []}]


def test_units_empty_over_z(capsys):
    code, lines, _ = run(capsys, "units", "--ring", "Z", "--modulus", "3")
    assert code == 2
    assert lines == [{"units": [], "finite_group": True, "stalled": []}]


def test_units_stall_exits_3(capsys):
    # the order of 2 mod 1000003 is 1000002, past ORDER_SEARCH_CAP: the
    # search gave up, which is not the same finding as "no units"
    code, lines, err = run(capsys, "units", "--ring", "Z[1/2]",
                           "--modulus", "1000003", "-n", "3")
    assert code == 3 and err == ""
    assert lines == [{"units": [], "finite_group": False, "stalled": ["2"]}]


def test_units_needs_modulus(capsys):
    code, _, err = run(capsys, "units", "--ring", "Z")
    assert code == 1 and "--modulus" in err


def test_units_rejects_modulus_outside_ring(capsys):
    code, lines, err = run(capsys, "units", "--ring", "Z[1/2]",
                           "--modulus", "1/3")
    assert code == 1 and not lines
    assert err.startswith("error:") and "not in Z[1/2]" in err
    # a denominator on the inverted prime keeps the modulus in the ring
    code, lines, _ = run(capsys, "units", "--ring", "Z[1/2]",
                         "--modulus", "3/2", "-n", "2")
    assert code == 0 and lines[0]["units"] == ["4", "16"]


def test_units_large_prime_inverted_modulus(capsys):
    # 10^18 + 3 is prime: Miller-Rabin settles it without trial division
    start = time.perf_counter()
    code, lines, _ = run(capsys, "units", "--ring", "Z[1/1000000000000000003]",
                         "--modulus", "3", "-n", "1")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and lines[0]["units"] == ["1000000000000000003"]


def test_units_unfactorable_inverted_modulus(capsys):
    # both prime factors exceed the trial division bound
    m = (10**6 + 3) * (10**6 + 33)
    start = time.perf_counter()
    code, lines, err = run(capsys, "units", "--ring", f"Z[1/{m}]",
                           "--modulus", "3", "-n", "1")
    assert time.perf_counter() - start < 2.0
    assert code == 1 and not lines
    assert err.startswith("error:") and "cannot factor" in err


# -- README commands ------------------------------------------------------------

# every `sl2factor ...` line of the README with its exact stdout and exit code
README_CLI = [
    (['factor', '--ring', 'Z', '--matrix',
      '{"a":"2","c":"3","b":"3","d":"5"}'],
     '{"shape":"lower","k":5,"entries":["1","2","-1","-1","1"]}\n',
     0),
    (['enum', '--ring', 'Z', '--matrix',
      '{"a":"2","c":"1","b":"1","d":"1"}', '--k', '3', '--bound', '2'],
     '{"shape":"lower","entries":["0","1","1"],"integral":true}\n',
     0),
    (['verify', '--ring', 'Z', '--matrix',
      '{"a":"2","c":"3","b":"3","d":"5"}', '--point', '["1","1","1","1"]'],
     '{"member":true,"integral":true,"residuals":["0","0","0","0"]}\n',
     0),
    (['orbit', '--ring', 'Z[1/2]', '--matrix',
      '{"a":"2","c":"3","b":"3","d":"5"}', '--point', '["1","1","1","1"]',
      '-n', '20'],
     '{"shape":"lower","entries":["1","1","1","1"],'
     '"integral":true,"window":null,"action":"seed","parameter":null}\n'
     '{"shape":"lower","entries":["5/4","2","1/2","1/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["2","-1","-1","2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"-1"}\n'
     '{"shape":"lower","entries":["7/4","-2","-1/2","5/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["11/8","4","1/4","-1/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["13/8","-4","-1/4","7/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["23/16","8","1/8","-5/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["25/16","-8","-1/8","11/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["47/32","16","1/16","-13/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["49/32","-16","-1/16","19/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["95/64","32","1/32","-29/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["97/64","-32","-1/32","35/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["191/128","64","1/64","-61/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["193/128","-64","-1/64","67/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["383/256","128","1/128","-125/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["385/256","-128","-1/128","131/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["767/512","256","1/256","-253/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["769/512","-256","-1/256","259/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["1535/1024","512","1/512","-509/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["1537/1024","-512","-1/512","515/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n',
     0),
    (['enum', '--ring', 'Z', '--matrix', '{"a":"1","c":"0","b":"0","d":"1"}',
      '--k', '3', '--bound', '2'],
     '{"shape":"lower","entries":["-2","0","2"],"integral":true}\n'
     '{"shape":"lower","entries":["-1","0","1"],"integral":true}\n'
     '{"shape":"lower","entries":["0","0","0"],"integral":true}\n'
     '{"shape":"lower","entries":["1","0","-1"],"integral":true}\n'
     '{"shape":"lower","entries":["2","0","-2"],"integral":true}\n',
     0),
    (['density', '--ring', 'Z[1/2]', '--matrix',
      '{"a":"2","c":"3","b":"3","d":"5"}', '--k', '6', '--degree', '2', '-n',
      '100'],
     '{"k":6,"D":2,"monomials":28,"points":100,"nullity":3,'
     '"baseline":3,"dense_at_D":true}\n',
     0),
    (['density', '--ring', 'Z[1/2]', '--k', '2', '--degree', '2', '-n',
      '100'],
     '{"k":2,"D":2,"monomials":6,"points":100,"nullity":1,'
     '"baseline":1,"dense_at_D":true}\n',
     0),
    (['units', '--ring', 'Z[sqrt(2)]', '--modulus', '(3+2*w)', '-n', '4'],
     '{"units":["(1+1*w)","-1","(3+2*w)","(7+5*w)"],'
     '"finite_group":false,"stalled":[]}\n',
     0),
]


def readme_cli_lines() -> list[list[str]]:
    text = README.read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("sl2factor ")]


def test_readme_cli_lines(capsys):
    assert [argv for argv, _, _ in README_CLI] == readme_cli_lines()
    for argv, stdout, code in README_CLI:
        assert main(argv) == code, argv
        assert capsys.readouterr().out == stdout, argv


# -- plumbing ---------------------------------------------------------------------


def test_seeded_runs_are_byte_identical(capsys):
    argv = ["density", "--ring", "Z[1/2]", "--k", "2", "-n", "8", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first

    argv = ["orbit", "--ring", "Z[1/2]", "--matrix", A_2335,
            "--point", '["1","1","1","1"]', "-n", "6"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_invalid_inputs(capsys):
    code, _, err = run(capsys, "factor", "--ring", "Z[frac(2)]",
                       "--matrix", IDENTITY)
    assert code == 1 and err

    code, _, err = run(capsys, "factor", "--ring", "Z", "--matrix", "{oops")
    assert code == 1 and err

    code, _, err = run(capsys, "verify", "--ring", "Z", "--matrix", IDENTITY)
    assert code == 1 and "--point" in err


@pytest.mark.parametrize("flag", ["--matrix", "--point"])
def test_deeply_nested_json_is_invalid_input(capsys, flag):
    deep = "[" * 200_000
    if flag == "--matrix":
        code = main(["factor", "--ring", "Z", "--matrix", deep])
    else:
        code = main(["verify", "--ring", "Z", "--matrix", IDENTITY,
                     "--point", deep])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert flag in captured.err


@pytest.mark.parametrize("entries", ['"1111"', '{"1":1}', "5", "null"])
def test_point_entries_must_be_a_list(capsys, entries):
    # a string or an object used to be read as its characters or keys
    code = main(["verify", "--ring", "Z", "--matrix", A_2335,
                 "--point", '{"entries":%s}' % entries])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: point entries must be a list\n"


@pytest.mark.parametrize("error", [TypeError, KeyError])
def test_type_and_key_errors_are_internal(capsys, monkeypatch, error):
    # every malformed input becomes a ValueError before these can arise,
    # so they are faults of the program
    def fault(*args):
        raise error("fault")

    monkeypatch.setattr(cli, "membership_residuals", fault)
    code = main(["verify", "--ring", "Z", "--matrix", A_2335,
                 "--point", '["1","1","1","1"]'])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4 and captured.out == ""
    assert captured.err.startswith("internal error:")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


# -- hostile payloads -----------------------------------------------------------

ELEMENT_STRINGS = sorted({text for _, text, _ in json.loads(
    (ROOT / "tests" / "element_corpus.json").read_text())})
# an explicit alphabet (ASCII, non-ASCII digits, NUL, a lone surrogate),
# and no st.from_regex, spare hypothesis building its Unicode tables on
# a fresh checkout
TEXT = st.text(string.printable + "\u0661\u0662\u00bd\x00\ud800\u00e9",
               max_size=8)


def _element_text(a: int, b: int | None, r: int | None) -> str:
    """The integer a, or (a+b*w), then /r unless r is None (r <= 0 is
    malformed)."""
    core = str(a) if b is None else f"({a}{b:+d}*w)"
    return core if r is None else f"{core}/{r}"


ELEMENTS = st.one_of(
    st.sampled_from(ELEMENT_STRINGS),
    st.builds(_element_text, st.integers(-999, 999),
              st.none() | st.integers(-999, 999), st.none() | st.integers(-9, 999)),
    st.integers(-10**40, 10**40), TEXT)
SCALARS = st.none() | st.booleans() | st.floats() | ELEMENTS
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["a", "c", "b", "d", "entries", "shape"])
                      | TEXT, inner, max_size=4),
    max_leaves=8)


def _dump(value) -> str:
    return json.dumps(value, allow_nan=True)


def _weighted(*choices):
    """One of the strategies, drawn with the integer weight paired with
    it, so that most calls get past ring parsing to the payloads."""
    return st.sampled_from([s for s, w in choices for _ in range(w)]
                           ).flatmap(lambda s: s)


# JSON texts beside dumped values: malformed, a 5000-digit literal,
# nesting past the parser's depth
RAW_JSON = st.sampled_from(["{oops", "", "[1,", '{"a":1}}', "1" * 5000,
                            "[" * 5000, "NaN", "-Infinity", '"\\ud800"'])
# well-formed payloads of both determinants, a huge entry, entries with
# a sqrt part or a denominator
GOOD_MATRICES = st.sampled_from(
    [A_2335, IDENTITY, '{"a":"0","c":"1","b":"1","d":"0"}',
     '{"a":"1","c":"%d","b":"0","d":"1"}' % 10**60,
     '{"a":"(1+1*w)","c":"0","b":"0","d":"(-1+1*w)"}',
     '{"a":"1/2","c":"0","b":"0","d":"2"}'])
MATRICES = _weighted(
    (GOOD_MATRICES, 6),
    (st.fixed_dictionaries({k: ELEMENTS | JSON_VALUES for k in "acbd"}
                           ).map(_dump), 2),
    (JSON_VALUES.map(_dump), 1), (RAW_JSON, 1))
GOOD_ENTRIES = st.sampled_from([["1", "1", "1", "1"], ["2", "1", "1", "1"],
                                [], ["0"], [1, 1, 1, 1]])
POINTS = _weighted(
    (GOOD_ENTRIES.map(_dump), 2), (st.lists(ELEMENTS, max_size=5).map(_dump), 1),
    (st.fixed_dictionaries(
        {"entries": _weighted((GOOD_ENTRIES, 1), (SCALARS, 2),
                              (JSON_VALUES, 1))},
        optional={"shape": st.sampled_from(["lower", "upper", "D", "spiral"])
                  | JSON_VALUES}).map(_dump), 4),
    (JSON_VALUES.map(_dump), 1), (RAW_JSON, 1))
RING_SPECS = _weighted(
    (st.sampled_from(["Z", "Z[1/2]", "Z[1/6]", "Z[sqrt(2)]", "Z[sqrt(3),1/2]"]),
     6),
    (st.sampled_from(["", "Q", "Z[sqrt(4)]", "Z[1/1]", "Z[sqrt(2),1/0]", "Z[",
                      "z", " Z ", "Z[sqrt(1)]"]), 1),
    (TEXT, 1))
MODULI = _weighted((ELEMENTS.map(str), 3), (JSON_VALUES.map(_dump), 1))
INVOCATIONS = st.one_of(
    st.builds(lambda r, m, p: ["verify", "--ring=" + r, "--matrix=" + m,
                               "--point=" + p], RING_SPECS, MATRICES, POINTS),
    st.builds(lambda r, m: ["factor", "--ring=" + r, "--matrix=" + m],
              RING_SPECS, MATRICES),
    st.builds(lambda r, m, p, n: ["orbit", "--ring=" + r, "--matrix=" + m,
                                  "--point=" + p, "-n", n],
              RING_SPECS, MATRICES, POINTS, st.sampled_from(["1", "2"])),
    st.builds(lambda r, m, n: ["units", "--ring=" + r, "--modulus=" + m,
                               "-n", n],
              RING_SPECS, MODULI, st.sampled_from(["1", "3"])))


@settings(max_examples=200, deadline=None)
@given(argv=INVOCATIONS)
@example(argv=["orbit", "--ring=Z[1/2]", "--matrix=" + A_2335,
               "--point=" + '["1","1","1","1"]', "-n", "2"])
@example(argv=["units", "--ring=Z", "--modulus=3", "-n", "3"])
@example(argv=["units", "--ring=Z[sqrt(2)]", "--modulus=(3+2*w)", "-n", "3"])
def test_hostile_payloads_keep_the_exit_contract(argv):
    """Any --ring, --matrix, --point or --modulus value ends in a
    documented exit with the output that code promises, and never in a
    traceback.  The unit search's step cap is lowered so that a large
    valid modulus costs milliseconds: this test is about parsing
    payloads, not about search budgets."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "ORDER_SEARCH_CAP", 50)
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err and "internal error" not in err, argv
    lines = [json.loads(line) for line in out.splitlines()]
    if code == 1:
        assert not out and err.startswith("error:"), argv
        assert err.count("\n") == 1, argv
    elif code == 0:
        assert lines, argv
        # an orbit may report a stalled unit search beside its points
        assert all(line.startswith("unit search stalled")
                   for line in err.splitlines()), argv
    elif argv[0] == "units":  # its one line also reports no or too few units
        assert code in (2, 3) and len(lines) == 1, argv
        assert not lines[0]["units"] if code == 2 else lines[0]["stalled"]
    else:  # a search gave up: the points it found, then why
        assert code == 3, argv
        assert err.splitlines()[-1].startswith("budget exhausted"), argv


# every flag the parser knows, with a well-formed value, and --output,
# which no subcommand reads (stdout is redirected instead)
FLAG_VALUES = {
    "--ring": "Z", "--matrix": IDENTITY, "--point": "[]", "--shape": "lower",
    "--k": "3", "--bound": "1", "--degree": "2", "--count": "3",
    "--seed": "1", "--output": "unused.jsonl", "--modulus": "3",
}

# subcommand -> (a valid invocation, the flags it reads; "!" marks required)
FLAG_TABLE = {
    "factor": (["--ring", "Z", "--matrix", A_2335],
               "--ring! --matrix! --shape"),
    "verify": (["--ring", "Z", "--matrix", IDENTITY, "--point", "[]"],
               "--ring! --matrix! --point! --shape"),
    "orbit": (["--ring", "Z[1/2]", "--matrix", A_2335,
               "--point", '["1","1","1","1"]', "-n", "2"],
              "--ring! --matrix! --point! --shape --count"),
    "enum": (["--ring", "Z", "--matrix", IDENTITY, "--k", "3", "--bound", "1"],
             "--ring! --matrix! --shape --k! --bound!"),
    "density": (["--ring", "Z[1/2]", "--k", "2", "-n", "8"],
                "--ring! --matrix --point --shape --k! --degree --count "
                "--seed"),
    "units": (["--ring", "Z[1/2]", "--modulus", "8", "-n", "2"],
              "--ring! --modulus! --count"),
}


def test_subcommands_accept_only_their_flags(capsys):
    pairs = 0
    for sub, (valid, row) in FLAG_TABLE.items():
        accepted = {f.rstrip("!") for f in row.split()}
        assert main([sub, *valid]) == 0, sub
        capsys.readouterr()
        rejected = [f for f in FLAG_VALUES if f not in accepted]
        if "--count" not in accepted:
            rejected.append("-n")
        for flag in rejected:
            code, lines, err = run(capsys, sub, *valid, flag,
                                   FLAG_VALUES.get(flag, "3"))
            assert code == 1 and not lines, (sub, flag)
            assert flag in err.splitlines()[-1], (sub, flag)
        for flag in (f[:-1] for f in row.split() if f.endswith("!")):
            i = valid.index(flag)
            code, lines, err = run(capsys, sub, *valid[:i], *valid[i + 2:])
            assert code == 1 and not lines, (sub, flag)
            assert "required: " + flag in err, (sub, flag)
        assert main([sub, "--help"]) == 0
        text = capsys.readouterr().out
        listed = set(re.findall(r"^  (--?\w+)", text, re.M)) - {"-h"}
        assert listed == accepted, sub
        assert ("-n COUNT" in text) == ("--count" in accepted), sub
        pairs += len(listed)
    assert pairs == 28


def test_module_entrypoint_exit_codes():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv, stdout, code = README_CLI[0]
    cmd = [sys.executable, "-m", "sl2factor.cli", *argv]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (code, stdout)
    done = subprocess.run([*cmd, "--seed", "1"], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 1 and done.stdout == ""
    assert "--seed" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_closed_stdout_ends_quietly():
    # a reader that stops early (`| head -1`) ends the process like any
    # Unix filter, with nothing on stderr
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-m", "sl2factor.cli", "orbit", "--ring", "Z[1/2]",
           "--matrix", A_2335, "--point", '["1","1","1","1"]', "-n", "2000"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert json.loads(first)["action"] == "seed"
    assert err == b""


def test_argparse_exits_are_mapped(capsys):
    assert main(["nonsense"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()
    assert main(["--help"]) == 0  # argparse SystemExit(0) maps to success
    assert "factor" in capsys.readouterr().out
