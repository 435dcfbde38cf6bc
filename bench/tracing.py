"""Span tracing of sl2factor from outside the package.

`Tracer.install` replaces every public function defined in a module of
the package, at every module binding that refers to it (a function that
`cli`, `orbits` or `varieties` imports by name is traced there too), with
a wrapper that records a span.  `Mat2.__matmul__` gets a span as well, and
the `RElem` arithmetic operators a call counter.  Nothing under `src/` is
edited, and `uninstall` puts the originals back, so an untraced run never
goes through a wrapper.

Spans are kept in memory in one flat int64 array of (name id, start ns,
end ns, parent span index) and written out by `dump` when the run ends.
A span's self time is its duration minus the durations of its direct
children; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
import types
from array import array
from collections import Counter
from pathlib import Path

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent")

# RElem operators counted by `rings.ops`, reflected aliases included
RELEM_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "inverse")


def _fiber_lift(tracer, result, args, kwargs):
    tracer.counts["varieties.fiber_lift.hits"] += result is not None


def _coordinate_box(tracer, result, args, kwargs):
    tracer.last_box = len(result)


def _enumerate(tracer, result, args, kwargs):
    k = args[1] if len(args) > 1 else kwargs["k"]
    if k > 0:  # k = 0 builds no box
        j = k // 2
        tracer.counts["varieties.half_words"] += (tracer.last_box ** j
                                                  + tracer.last_box ** (k - j))


def _orbit_run(tracer, result, args, kwargs):
    tracer.counts["orbits.emitted"] += sum(
        rec.action in ("unit", "shear") for rec in result.records)


def _rank_pass(tracer, result, args, kwargs):
    tracer.counts["density.rank_rows"] += len(args[0])


# counters read off the return values and arguments of traced calls
HOOKS = {
    "varieties.fiber_lift": _fiber_lift,
    "varieties.coordinate_box": _coordinate_box,
    "varieties.enumerate_points_bounded": _enumerate,
    "orbits.orbit_run": _orbit_run,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.on = False
        self.ops = 0
        self.counts: Counter = Counter()
        self.last_box = 0

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.spans) >> 2
        self.spans.extend((self._name_id(name), time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[4 * idx + 2] = time.perf_counter_ns()
        self._stack.pop()

    def _spanned(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):  # begin/end inlined: runs on every call
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans) >> 2
            spans.extend((nid, clock(), 0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * idx + 2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            if self.on:
                self.ops += 1
            return fn(*args)

        return wrapper

    def _hooked(self, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.on:
                hook(self, result, args, kwargs)
            return result

        return wrapper

    # -- installing the wrappers ------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, lib):
        """Wrap the package whose modules are `lib.modules`."""
        wrappers: dict[object, object] = {}
        for mod in lib.modules:
            for attr, value in list(vars(mod).items()):
                if (not isinstance(value, types.FunctionType)
                        or value.__name__.startswith("_")
                        or not value.__module__.startswith("sl2factor.")):
                    continue
                if value not in wrappers:
                    name = (value.__module__.rpartition(".")[2] + "."
                            + value.__name__)
                    wrappers[value] = self._spanned(name, value,
                                                    HOOKS.get(name))
                self._patch(mod, attr, wrappers[value])
        # a count-only hook on the private elimination kernel: rows it is
        # handed over all prefix passes (reads 0 once that kernel is gone)
        if hasattr(lib.density, "_rank_bareiss"):
            self._patch(lib.density, "_rank_bareiss",
                        self._hooked(lib.density._rank_bareiss, _rank_pass))
        Mat2 = lib.matrices.Mat2
        self._patch(Mat2, "__matmul__",
                    self._spanned("matrices.matmul", Mat2.__matmul__))
        RElem = lib.rings.RElem
        for op in RELEM_OPS:
            self._patch(RElem, op, self._counted(getattr(RElem, op)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        spans = self.spans
        names, starts, ends, parents = (spans[i::4] for i in range(4))
        durations = [e - s for s, e in zip(starts, ends)]
        covered = [0] * len(durations)
        for parent, dur in zip(parents, durations):
            if parent >= 0:
                covered[parent] += dur
        calls, total, own = Counter(), Counter(), Counter()
        for nid, dur, cov in zip(names, durations, covered):
            calls[nid] += 1
            total[nid] += dur
            own[nid] += dur - cov
        return {self.names[nid]: (calls[nid], total[nid] / 1e9, own[nid] / 1e9)
                for nid in calls}

    def dump(self, stem: Path, meta: dict):
        """Write the spans to stem.spans (native int64, four per span) and
        their name table and layout to stem.json."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as f:
            self.spans.tofile(f)
        with open(stem.with_suffix(".json"), "w") as f:
            json.dump({"meta": meta, "fields": SPAN_FIELDS,
                       "itemsize": self.spans.itemsize, "names": self.names,
                       "spans": len(self.spans) // 4}, f, indent=1)
