"""Benchmark of sl2factor.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see bench/workloads.py and BENCHMARK.json) in this
process, single-threaded, as a closed loop with one client: the next job
starts only when the previous one has returned.  Jobs run until their
summed time reaches S seconds, in whole rounds, so every kind of job in a
workload runs equally often.  Every job's output is checked by an oracle
outside the timed region.

Before every job all `functools.lru_cache`s of the package are cleared,
so no job reuses unit searches or Pell solutions an earlier identical job
left behind; a CLI user starts cold on every invocation.

setup_s is the median of five set-ups in the run, each a fresh import of
the package from src/ followed by building the workload's inputs.
Per-layer counts and seconds are per traced job.

--trace 0 prints the end-to-end metrics.  Throughputs divide by the
summed job time, which leaves out the untimed checks between jobs.
--trace 1 installs span wrappers around the package (bench/tracing.py),
runs the loop traced, replays the same jobs untraced to get the tracing
overhead, prints the per-layer metrics and writes the spans to
bench/out/<workload>.spans.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; `metrics` holds exactly the metrics
BENCHMARK.json lists for the mode.  The lines before it give the run's
metadata and every metric as `metric NAME VALUE UNIT`, together with
fail_ratio, points_per_s and, on runs of at least 100 jobs, job_ms_p90.
Those three stay out of BENCHMARK.json: fail_ratio is 0 on a clean
workload (ok_ratio carries it), points per job depend on the seed's
targets in cli_short, and job_ms_p90 has too few samples elsewhere.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import pkgutil
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer
from workloads import WORKLOADS, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
P90_MIN_JOBS = 100  # so that at least ten samples lie beyond the p90
# modules of the package whose summed self time is reported as a layer
LAYERS = ("cli", "density", "varieties", "matrices", "continuants", "orbits",
          "rings")


def import_library() -> SimpleNamespace:
    """Import sl2factor and all its modules from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("sl2factor")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"sl2factor came from {pkg.__file__}, not {SRC}")
    mods = {info.name: importlib.import_module(f"sl2factor.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)}
    return SimpleNamespace(modules=[pkg, *mods.values()], **mods)


def set_up(workload: str, seed: int, tiny: bool):
    """Import the package afresh and build the workload's inputs, several
    times; returns the last library and inputs and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules
                     if m == "sl2factor" or m.startswith("sl2factor.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        lib = import_library()
        rounds = WORKLOADS[workload](lib, seed, tiny)
        times.append(time.perf_counter() - t0)
    return lib, rounds, statistics.median(times)


def clear_caches(lib):
    for mod in lib.modules:
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_jobs(lib, jobs, tracer: Tracer | None = None):
    """Run jobs back to back; returns (job, seconds, outcome) per job."""
    samples = []
    for job in jobs:
        clear_caches(lib)
        gc.collect()  # so no job pays for collecting an earlier one's garbage
        if tracer:
            tracer.on = True
            root = tracer.begin("bench.job")
        t0 = time.perf_counter()
        try:
            raw, error = job.run(lib), None
        except Exception as e:  # a job that raises is a failed job
            raw, error = None, e
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.end(root)
            tracer.on = False
        if error is None:
            outcome = job.check(lib, raw)
        else:
            outcome = Outcome()
            outcome.fail(f"{job.kind} raised {error!r}", wrong_output=False)
        samples.append((job, seconds, outcome))
    return samples


def measure(lib, rounds, seconds: float, tracer: Tracer | None = None):
    """Whole rounds of jobs until their summed time reaches `seconds`."""
    samples, busy, i = [], 0.0, 0
    while busy < seconds or not samples:
        new = run_jobs(lib, rounds[i % len(rounds)], tracer)
        busy += sum(s for _, s, _ in new)
        samples += new
        i += 1
    return samples


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "python": platform.python_version(),
            "int_max_str_digits": sys.get_int_max_str_digits(),
            "nproc": len(os.sched_getaffinity(0)), "host": platform.node(),
            "commit": git_commit()}


def end_to_end(samples, setup_s: float) -> dict:
    times = [s for _, s, _ in samples]
    busy = sum(times)
    ok = sum(o.ok for _, _, o in samples)
    return {
        "setup_s": (setup_s, "s"),
        "job_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "jobs_per_s": (ok / busy, "1/s"),
        "ok_ratio": (ok / len(samples), "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
    }


def report_end_to_end(samples, setup_s: float):
    times = [s for _, s, _ in samples]
    busy = sum(times)
    extra = {"jobs": (len(samples), "count"),
             "points_per_s": (sum(o.points for _, _, o in samples) / busy,
                              "1/s"),
             "fail_ratio": (sum(not o.ok for _, _, o in samples)
                            / len(samples), "ratio")}
    if len(times) >= P90_MIN_JOBS:
        extra["job_ms_p90"] = (statistics.quantiles(times, n=10)[8] * 1e3,
                               "ms")
    report(end_to_end(samples, setup_s), samples, extra)


def per_layer(tracer: Tracer, samples, traced_s: float,
              untraced_s: float) -> dict:
    """Counts and seconds per traced job, so that runs of different
    lengths compare; the trace.* totals cover the whole run."""
    spans = tracer.summary()
    jobs = len(samples)

    def span(name):
        return spans.get(name, (0, 0.0, 0.0))

    def calls(name):
        return span(name)[0] / jobs, "count"

    def total(name):
        return span(name)[1] / jobs, "s"

    def own(name):
        return span(name)[2] / jobs, "s"

    def count(name):
        return tracer.counts[name] / jobs, "count"

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    actions = span("orbits.act_v")[0] + span("orbits.act_a0")[0]
    layers = {}
    for module in LAYERS:
        busy = sum(stats[2] for name, stats in spans.items()
                   if name.startswith(module + "."))
        layers[f"{module}.self_s"] = busy / jobs, "s"
    return {**layers,
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": own("cli.main"),
        "density.density_report.s": total("density.density_report"),
        "density.monomial_matrix.self_s": own("density.monomial_matrix"),
        "density.evaluation_rank.calls": calls("density.evaluation_rank"),
        "density.evaluation_rank.rows": count("density.rank_rows"),
        "density.evaluation_rank.self_s": own("density.evaluation_rank"),
        "density.generic_variety_baseline.s":
            total("density.generic_variety_baseline"),
        "varieties.fiber_lift.calls": calls("varieties.fiber_lift"),
        "varieties.fiber_lift.hit_ratio": ratio(
            tracer.counts["varieties.fiber_lift.hits"],
            span("varieties.fiber_lift")[0]),
        "varieties.enumerate_points_bounded.calls":
            calls("varieties.enumerate_points_bounded"),
        "varieties.enumerate_points_bounded.self_s":
            own("varieties.enumerate_points_bounded"),
        "varieties.half_words": count("varieties.half_words"),
        "varieties.factor_euclid.self_s": own("varieties.factor_euclid"),
        "matrices.matmul.calls": calls("matrices.matmul"),
        "matrices.matmul.self_s": own("matrices.matmul"),
        "continuants.vk_membership.calls": calls("continuants.vk_membership"),
        "continuants.vk_membership.s": total("continuants.vk_membership"),
        "continuants.vk_membership.self_s": own("continuants.vk_membership"),
        "orbits.orbit_run.calls": calls("orbits.orbit_run"),
        "orbits.orbit_run.self_s": own("orbits.orbit_run"),
        "orbits.act_v.calls": calls("orbits.act_v"),
        "orbits.act_a0.calls": calls("orbits.act_a0"),
        "orbits.accept_ratio": ratio(tracer.counts["orbits.emitted"], actions),
        "rings.units_congruent_one.calls": calls("rings.units_congruent_one"),
        "rings.units_congruent_one.self_s": own("rings.units_congruent_one"),
        "rings.ops": (tracer.ops / jobs, "count"),
        "rings.max_coeff_bits": (max(o.max_bits for _, _, o in samples),
                                 "bits"),
        "trace.traced_s": (traced_s, "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }


def report(metrics: dict, samples, extra: dict):
    """Print every metric as `metric NAME VALUE UNIT`, then the result line."""
    attempted = len(samples)
    failed = sum(not o.ok for _, _, o in samples)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} {value!r} {unit}")
    for job, _, outcome in samples:
        for note in outcome.notes:
            print(f"failed {job.label}: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": all(o.correct for _, _, o in samples),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="scaled-down inputs, for the benchmark's own "
                             "smoke test")
    args = parser.parse_args(argv)

    lib, rounds, setup_s = set_up(args.workload, args.seed, args.tiny)
    meta = run_metadata(args)
    print("meta " + json.dumps(meta))

    if not args.trace:
        report_end_to_end(measure(lib, rounds, args.seconds), setup_s)
        return 0

    tracer = Tracer()
    tracer.install(lib)
    try:
        samples = measure(lib, rounds, args.seconds, tracer)
    finally:
        tracer.uninstall()
    replay = run_jobs(lib, [job for job, _, _ in samples])
    traced_s = sum(s for _, s, _ in samples)
    untraced_s = sum(s for _, s, _ in replay)
    tracer.dump(BENCH / "out" / args.workload, meta)
    metrics = per_layer(tracer, samples, traced_s, untraced_s)
    report(metrics, samples + replay, {"spans": (len(tracer.spans) // 4,
                                                 "count")})
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as e:
        print(f"cannot import sl2factor from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
