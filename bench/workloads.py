"""The three workloads of the sl2factor benchmark.

Each workload turns a seed into rounds of jobs.  A job has a timed part
(`run`) that only calls the library or `cli.main` in-process, and an
untimed oracle (`check`) that judges what the timed part returned.  The
oracles use routes the timed path does not rely on where one exists:
direct word multiplication for `factor`, the `solve_k3` closed form for
length-3 enumeration, and a fresh `vk_membership` + integrality check of
every point a job prints or returns.

The seed only varies inputs that leave a job's cost flat: the baseline
sampler's seed (`density_k9`), the random words behind the targets
(`cli_short`), and the job order inside a pass (`orbit_cli`).
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import comb

MATRIX = {"a": "2", "c": "3", "b": "3", "d": "5"}  # (2 3; 3 5) = (L(1)U(1))^2
SEED_WORD = (1, 1, 1, 1)

# orbit_cli jobs: (ring, k, -n).  Z[1/6] k=6 fails at the time this
# benchmark was written (a >4300-digit coordinate cannot be printed) and
# is kept on purpose so the defect stays counted.  Two further configs
# with the same defect (Z[1/2] k=6 n=600, Z[sqrt(2)] k=6 n=600) are left
# out because a single job of either outlasts a whole run.
ORBIT_JOBS = (
    ("Z[sqrt(2)]", 4, 1500),
    ("Z[sqrt(5)]", 4, 600),
    ("Z[sqrt(2),1/2]", 4, 600),
    ("Z[sqrt(2)]", 6, 300),
    ("Z[1/2]", 9, 600),
    ("Z[1/6]", 6, 600),
)

CLI_POOL = 50  # distinct targets per kind; rounds cycle through them


@dataclass
class Outcome:
    """What the oracle made of one job."""

    ok: bool = True  # expected exit code / return value and every check passed
    correct: bool = True  # nothing the job emitted failed an oracle
    points: int = 0  # verified point lines or returned points
    max_bits: int = 0  # largest numerator, sqrt coefficient or denominator
    notes: list[str] = field(default_factory=list)

    def fail(self, why: str, wrong_output: bool = True):
        self.ok = False
        if wrong_output:
            self.correct = False
        self.notes.append(why)


def _bits(x) -> int:
    return max(abs(x.a).bit_length(), abs(x.b).bit_length(), x.r.bit_length())


def _check_point(lib, outcome: Outcome, A, shape: str, entries) -> bool:
    """Re-verify one point with vk_membership and integrality."""
    if not all(x.is_integral() for x in entries):
        outcome.fail(f"non-integral point {[str(x) for x in entries]}")
        return False
    if not lib.continuants.vk_membership(A, entries, shape):
        outcome.fail(f"non-member point {[str(x) for x in entries]}")
        return False
    outcome.points += 1
    outcome.max_bits = max([outcome.max_bits] + [_bits(x) for x in entries])
    return True


def _check_point_lines(lib, outcome: Outcome, ring, A, lines) -> list[tuple]:
    """Parse and re-verify printed point lines; returns the entry tuples."""
    seen = []
    for line in lines:
        try:
            obj = json.loads(line)
            entries = tuple(ring.parse(s) for s in obj["entries"])
            shape = obj["shape"]
        except (ValueError, KeyError, TypeError) as e:
            outcome.fail(f"unreadable point line ({e}): {line[:80]}")
            continue
        if obj.get("integral", True) is not True:  # factor lines omit it
            outcome.fail(f"point line flagged non-integral: {line[:80]}")
        _check_point(lib, outcome, A, shape, entries)
        seen.append(entries)
    return seen


# -- CLI jobs ----------------------------------------------------------------


@dataclass
class CliJob:
    """One in-process `cli.main(argv)` call with an oracle for its output."""

    kind: str
    argv: list[str]
    ring_spec: str
    matrix: dict
    expect: object = None  # kind-specific expected value for the oracle
    label: str = ""  # names the job in failure notes

    def run(self, lib):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = lib.cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, lib, raw) -> Outcome:
        code, stdout, stderr = raw
        outcome = Outcome()
        if code != 0:
            outcome.fail(f"{self.kind} exited {code}: {stderr.strip()[:200]}",
                         wrong_output=False)
        ring = lib.rings.make_ring(self.ring_spec)
        A = lib.matrices.matrix_from_json(ring, self.matrix)
        check_lines = getattr(self, "_check_" + self.kind.partition("_")[0])
        check_lines(lib, outcome, ring, A, stdout.splitlines())
        return outcome

    def _check_factor(self, lib, outcome, ring, A, lines):
        if len(lines) != 1:
            outcome.fail(f"factor printed {len(lines)} lines")
            return
        for entries in _check_point_lines(lib, outcome, ring, A, lines):
            word = lib.matrices.Word("lower", entries)
            if lib.matrices.word_to_matrix(word, ring=ring) != A:
                outcome.fail("factor word does not multiply back to A")
            if json.loads(lines[0]).get("k") != len(entries):
                outcome.fail("factor line has a wrong k")

    def _check_verify(self, lib, outcome, ring, A, lines):
        want = {"member": True, "integral": True, "residuals": ["0"] * 4}
        try:
            got = json.loads(lines[0]) if len(lines) == 1 else None
        except ValueError:
            got = None
        if got != want:
            outcome.fail(f"verify printed {lines[:1]}, expected {want}")

    def _check_enum(self, lib, outcome, ring, A, lines):
        found = _check_point_lines(lib, outcome, ring, A, lines)
        max_abs, max_r = self.expect["box"]
        for entries in found:
            if any(x.b or abs(x.a) > max_abs or max_r % x.r for x in entries):
                outcome.fail(f"enum point outside the box: "
                             f"{[str(x) for x in entries]}")
        if len(set(found)) != len(found):
            outcome.fail("enum printed a point twice")
        if len(self.expect["word"]) == 3:
            if set(found) != _k3_closed_form(lib, ring, A, max_abs):
                outcome.fail("enum k=3 differs from the solve_k3 closed form")
        elif self.expect["word"] not in set(found):
            outcome.fail("enum missed the word the target was built from")

    def _check_orbit(self, lib, outcome, ring, A, lines):
        found = _check_point_lines(lib, outcome, ring, A, lines)
        seed = tuple(ring.el(v) for v in self.expect["seed"])
        if found and found[0] != seed:
            outcome.fail("first orbit line is not the seed")
        if len(set(found)) != len(found):
            outcome.fail("orbit printed a point twice")
        if outcome.ok and len(found) != self.expect["n"]:
            outcome.fail(f"orbit printed {len(found)} of {self.expect['n']} "
                         "points")


def _k3_closed_form(lib, ring, A, bound: int) -> set:
    """The criterion-7 oracle: the k=3 solutions over Z inside the box
    |x| <= bound, from the closed form instead of enumeration."""
    sol = lib.varieties.solve_k3(A)
    if sol.kind == "unique":
        inside = all(abs(x.a) <= bound and x.r == 1 for x in sol.point.entries)
        return {sol.point.entries} if inside else set()
    if sol.kind == "family":
        want = set()
        for v in range(-bound, bound + 1):
            t = ring.el(v)
            first = sol.family_sum - t
            if abs(first.a) <= bound:
                want.add((first, ring.zero, t))
        return want
    return set()


def _word_matrix(lib, ring, values):
    entries = tuple(ring.el(*v) if isinstance(v, tuple) else ring.el(v)
                    for v in values)
    A = lib.matrices.word_to_matrix(lib.matrices.Word("lower", entries),
                                    ring=ring)
    return entries, lib.matrices.matrix_to_json(A)


def _cli_kinds(lib, rng: random.Random):
    """One job of each cli_short kind, on fresh seeded targets."""
    Z = lib.rings.make_ring("Z")
    jobs = []

    xs, mat = _word_matrix(lib, Z, [rng.randint(-20, 20)
                                    for _ in range(rng.randint(0, 10))])
    jobs.append(CliJob("factor", ["factor", "--ring", "Z",
                                  "--matrix", json.dumps(mat)], "Z", mat,
                       label="factor Z"))

    xs, mat = _word_matrix(lib, Z, [rng.randint(-20, 20)
                                    for _ in range(rng.randint(0, 10))])
    jobs.append(CliJob("verify", ["verify", "--ring", "Z",
                                  "--matrix", json.dumps(mat),
                                  "--point", json.dumps([str(x) for x in xs])],
                       "Z", mat, label="verify Z"))

    for kind, spec, k, bound, values, box in (
            ("enum_k3", "Z", 3, "3", range(-3, 4), (3, 1)),
            ("enum_k4", "Z[1/2]", 4, "2,1",
             [(n, 0, r) for n in range(-2, 3) for r in (1, 2)], (2, 2)),
            ("enum_k5", "Z", 5, "3", range(-3, 4), (3, 1))):
        ring = lib.rings.make_ring(spec)
        word = [rng.choice(list(values)) for _ in range(k)]
        xs, mat = _word_matrix(lib, ring, word)
        jobs.append(CliJob(kind, ["enum", "--ring", spec,
                                  "--matrix", json.dumps(mat),
                                  "--k", str(k), "--bound", bound],
                           spec, mat, {"box": box, "word": xs},
                           f"{kind} {spec}"))
    rng.shuffle(jobs)  # interleave the kinds in a seeded order
    return jobs


def build_cli_short(lib, seed: int, tiny: bool):
    rng = random.Random(seed)
    return [_cli_kinds(lib, rng) for _ in range(5 if tiny else CLI_POOL)]


# -- orbit jobs --------------------------------------------------------------


def _orbit_job(spec: str, k: int, n: int) -> CliJob:
    seed = SEED_WORD + (0,) * (k - len(SEED_WORD))
    argv = ["orbit", "--ring", spec, "--matrix", json.dumps(MATRIX),
            "--point", json.dumps([str(v) for v in seed]), "-n", str(n)]
    return CliJob("orbit", argv, spec, MATRIX, {"seed": seed, "n": n},
                  f"orbit {spec} k={k} n={n}")


def build_orbit_cli(lib, seed: int, tiny: bool):
    jobs = [_orbit_job(spec, k, max(10, n // 10) if tiny else n)
            for spec, k, n in ORBIT_JOBS]
    random.Random(seed).shuffle(jobs)
    return [jobs]


# -- the criterion-9 density pipeline ---------------------------------------


@dataclass
class DensityJob:
    """orbit_run, then generic_variety_baseline, then density_report."""

    kind: str
    ring_spec: str
    k: int
    n: int
    baseline_count: int
    baseline_seed: int
    expect: dict

    @property
    def label(self) -> str:
        return f"{self.kind} {self.ring_spec} k={self.k} n={self.n}"

    def inputs(self, lib):
        ring = lib.rings.make_ring(self.ring_spec)
        A = lib.matrices.matrix_from_json(ring, MATRIX)
        seed = lib.varieties.PointTuple(
            "lower", tuple(ring.el(v) for v in SEED_WORD))
        return A, lib.varieties.pad(seed, A, self.k)

    def run(self, lib):
        A, seed = self.inputs(lib)
        run = lib.orbits.orbit_run(A, seed, self.n, units_per_window=1)
        points = run.points
        baseline = lib.density.generic_variety_baseline(
            A, self.k, 2, self.baseline_count, self.baseline_seed)
        report = lib.density.density_report(points, 2, baseline=baseline)
        return points, report

    def check(self, lib, raw) -> Outcome:
        points, report = raw
        outcome = Outcome()
        if report != self.expect:
            outcome.fail(f"density report {report}, expected {self.expect}")
        A, _ = self.inputs(lib)
        for P in points:
            _check_point(lib, outcome, A, P.shape, P.entries)
        if len(set(points)) != len(points) or len(points) != self.n:
            outcome.fail(f"orbit gave {len(set(points))} distinct of "
                         f"{self.n} points")
        return outcome


def build_density_k9(lib, seed: int, tiny: bool):
    if tiny:
        k, n, monomials, nullity = 6, 100, comb(8, 2), 3
    else:
        k, n, monomials, nullity = 9, 600, comb(11, 2), 0
    expect = {"k": k, "D": 2, "monomials": monomials, "points": n,
              "nullity": nullity, "baseline": nullity, "dense_at_D": True}
    return [[DensityJob("density", "Z[1/2]", k, n, monomials + 10, seed,
                        expect)]]


WORKLOADS = {
    "density_k9": build_density_k9,
    "cli_short": build_cli_short,
    "orbit_cli": build_orbit_cli,
}
