"""End-to-end CLI behavior through main(argv)."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

from sl2factor import Word, make_ring, word_to_matrix
from sl2factor.cli import main

A_2335 = '{"a":"2","c":"3","b":"3","d":"5"}'
IDENTITY = '{"a":"1","c":"0","b":"0","d":"1"}'
README = Path(__file__).resolve().parent.parent / "README.md"


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


# -- README commands ------------------------------------------------------------

# every `sl2factor ...` line of the README with its exact stdout and exit code
README_CLI = [
    (['factor', '--ring', 'Z', '--matrix',
      '{"a":"2","c":"3","b":"3","d":"5"}'],
     '{"shape":"lower","k":5,"entries":["1","2","-1","-1","1"]}\n',
     0),
    (['factor', '--ring', 'Z', '--matrix',
      '{"a":"2","c":"1","b":"1","d":"1"}', '--k', '3', '--bound', '2'],
     '{"shape":"lower","k":3,"entries":["0","1","1"]}\n',
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
     '{"shape":"lower","entries":["11/8","4","1/4","-1/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["7/4","-2","-1/2","5/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"-1"}\n'
     '{"shape":"lower","entries":["23/16","8","1/8","-5/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["13/8","-4","-1/4","7/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"-1"}\n'
     '{"shape":"lower","entries":["47/32","16","1/16","-13/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["25/16","-8","-1/8","11/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"-1"}\n'
     '{"shape":"lower","entries":["95/64","32","1/32","-29/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["49/32","-16","-1/16","19/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"-1"}\n'
     '{"shape":"lower","entries":["191/128","64","1/64","-61/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["97/64","-32","-1/32","35/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"-1"}\n'
     '{"shape":"lower","entries":["383/256","128","1/128","-125/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["193/128","-64","-1/64","67/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"-1"}\n'
     '{"shape":"lower","entries":["767/512","256","1/256","-253/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["385/256","-128","-1/128","131/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"-1"}\n'
     '{"shape":"lower","entries":["1535/1024","512","1/512","-509/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"2"}\n'
     '{"shape":"lower","entries":["769/512","-256","-1/256","259/2"],'
     '"integral":true,"window":1,"action":"unit","parameter":"-1"}\n'
     '{"shape":"lower","entries":["3071/2048","1024","1/1024","-1021/2"],'
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
