"""Smoke test of the benchmark itself.

    python3 bench/smoke_test.py

Runs a tiny-size pass of every workload, traced and untraced, and checks
that every metric BENCHMARK.json names is printed with its unit, next to
fail_ratio, and that a deliberately corrupted output line is counted as a
failed job.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import run
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _metric_lines(stdout: str) -> dict[str, str]:
    """name -> unit of every `metric NAME VALUE UNIT` line."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            float(value)
            out[name] = unit
    return out


class TinyPass(unittest.TestCase):
    def run_bench(self, workload: str, trace: int) -> str:
        proc = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload", workload,
             "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
             "--tiny"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    stdout = self.run_bench(workload, trace)
                    result = json.loads(stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    printed = _metric_lines(stdout)
                    for name, unit in want.items():
                        self.assertEqual(printed.get(name), unit, name)
                    if trace == 0:
                        self.assertEqual(printed.get("fail_ratio"), "ratio")
                    else:
                        self.assertEqual(printed.get("trace.overhead_s"), "s")

    def test_corrupted_output_line_counts_as_failed(self):
        lib, rounds, _ = run.set_up("orbit_cli", 1, tiny=True)
        job = rounds[0][0]
        honest = job.run

        def corrupted(lib):
            # move the last printed point off the variety: adding 1 to the
            # last letter multiplies the word's matrix by a shear
            code, stdout, stderr = honest(lib)
            lines = stdout.splitlines()
            point = json.loads(lines[-1])
            ring = lib.rings.make_ring(job.ring_spec)
            point["entries"][-1] = str(ring.parse(point["entries"][-1]) + 1)
            lines[-1] = json.dumps(point, separators=(",", ":"))
            return code, "\n".join(lines) + "\n", stderr

        job.run = corrupted
        samples = run.run_jobs(lib, [job]) + run.run_jobs(lib, rounds[0][1:])
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            run.report_end_to_end(samples, 0.0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertIs(result["correct"], False)
        self.assertEqual(result["failed"], 1)
        fail_ratio = [line for line in out.getvalue().splitlines()
                      if line.startswith("metric fail_ratio ")]
        self.assertEqual(fail_ratio, [f"metric fail_ratio {1 / len(samples)!r}"
                                      " ratio"])


if __name__ == "__main__":
    unittest.main()
