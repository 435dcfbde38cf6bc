"""End-to-end CLI behavior through main(argv)."""

from __future__ import annotations

import json

import pytest

from sl2factor import Word, make_ring, word_to_matrix
from sl2factor.cli import main

A_2335 = '{"a":"2","c":"3","b":"3","d":"5"}'
IDENTITY = '{"a":"1","c":"0","b":"0","d":"1"}'


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


def test_factor_identity(capsys):
    code, lines, _ = run(capsys, "factor", "--ring", "Z", "--matrix", IDENTITY)
    assert code == 0
    assert lines == [{"shape": "lower", "k": 0, "entries": []}]


def test_factor_rejects_det_minus_one(capsys):
    code, lines, err = run(capsys, "factor", "--ring", "Z", "--matrix",
                           '{"a":"0","c":"1","b":"1","d":"0"}')
    assert code == 1 and not lines and "determinant" in err


def test_factor_bounded_search(capsys):
    code, lines, _ = run(capsys, "factor", "--ring", "Z",
                         "--matrix", '{"a":"2","c":"1","b":"1","d":"1"}',
                         "--k", "3", "--bound", "2")
    assert code == 0
    assert lines[0]["entries"] == ["0", "1", "1"]


def test_factor_bounded_search_empty(capsys):
    code, lines, err = run(capsys, "factor", "--ring", "Z",
                           "--matrix", '{"a":"1","c":"5","b":"0","d":"1"}',
                           "--k", "1", "--bound", "2")
    assert code == 2 and not lines
    assert "no factorization" in err


def test_factor_bounded_needs_both_flags(capsys):
    code, _, err = run(capsys, "factor", "--ring", "Z", "--matrix", A_2335,
                       "--k", "3")
    assert code == 1 and "both" in err


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


def test_orbit_closed_set_is_not_an_error(capsys):
    code, lines, _ = run(capsys, "orbit", "--ring", "Z",
                         "--matrix", '{"a":"7","c":"30","b":"10","d":"43"}',
                         "--point", '["1","2","3","4"]', "-n", "4")
    assert code == 0
    assert len(lines) == 1  # nothing reachable beyond the seed over Z


def test_orbit_rejects_non_member_seed(capsys):
    code, lines, err = run(capsys, "orbit", "--ring", "Z", "--matrix", A_2335,
                           "--point", '["1","1","1","2"]')
    assert code == 1 and not lines and "does not solve" in err


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


def test_density_unit_mode_readme_line(capsys):
    # the README's unit-product command, pinned byte for byte
    code = main(["density", "--ring", "Z[1/2]", "--k", "2", "--degree", "2",
                 "-n", "100"])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"k":2,"D":2,"monomials":6,"points":100,"nullity":1,"baseline":1,'
        '"dense_at_D":true}\n')


def test_density_needs_k(capsys):
    code, _, err = run(capsys, "density", "--ring", "Z[1/2]")
    assert code == 1 and "--k" in err


def test_density_rejects_long_seed(capsys):
    code, _, err = run(capsys, "density", "--ring", "Z[1/2]",
                       "--matrix", A_2335, "--k", "4")
    assert code == 1 and "length 5" in err


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


def test_output_file(tmp_path, capsys):
    target = tmp_path / "points.jsonl"
    code, lines, _ = run(capsys, "enum", "--ring", "Z", "--matrix", IDENTITY,
                         "--k", "3", "--bound", "1", "--output", str(target))
    assert code == 0 and lines == []  # nothing on stdout
    saved = [json.loads(line) for line in target.read_text().splitlines()]
    assert len(saved) == 3


def test_output_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing" / "points.jsonl"
    code, lines, err = run(capsys, "factor", "--ring", "Z", "--matrix", A_2335,
                           "--output", str(target))
    assert code == 1 and not lines
    assert err.startswith("error:") and "Traceback" not in err
    assert not target.exists()


def test_invalid_inputs(capsys):
    code, _, err = run(capsys, "factor", "--ring", "Z[frac(2)]",
                       "--matrix", IDENTITY)
    assert code == 1 and err

    code, _, err = run(capsys, "factor", "--ring", "Z", "--matrix", "{oops")
    assert code == 1 and err

    code, _, err = run(capsys, "verify", "--ring", "Z", "--matrix", IDENTITY)
    assert code == 1 and "--point" in err


def test_argparse_exits_are_mapped(capsys):
    assert main(["nonsense"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()
    assert main(["--help"]) == 0  # argparse SystemExit(0) maps to success
    assert "factor" in capsys.readouterr().out
