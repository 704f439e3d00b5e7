"""In-memory spans around the toolkit's public functions, for the traced run.

A span is (name, parent span, request id, start, end). Each wrapped function
is patched at the name its caller looks it up under, so the toolkit itself
is unchanged; the patches are installed only around traced requests and
removed afterwards, which keeps the untraced requests free of tracing cost.
Spans are appended to typed arrays (28 bytes each) and written out at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from array import array
from collections import defaultdict

SETUP_REQUEST = -1

# (module whose attribute the caller looks up, attribute, span name). The span
# name is "<defining module>.<function>": ratio_report lives in oracle but
# gen_bench calls it through its own module globals, so it is patched there.
TARGETS = (
    ("makespan.cli", "parse_instance_text", "cli.parse_instance_text"),
    ("makespan.gen_bench", "generate", "gen_bench.generate"),
    ("makespan.gen_bench", "write_instance", "gen_bench.write_instance"),
    ("makespan.gen_bench", "ratio_sweep", "gen_bench.ratio_sweep"),
    ("makespan.gen_bench", "ratio_report", "oracle.ratio_report"),
    ("makespan.scheduler", "run_scheduler", "scheduler.run_scheduler"),
    ("makespan.scheduler", "build_schedule", "model.build_schedule"),
    ("makespan.oracle", "build_schedule", "model.build_schedule"),
    ("makespan.oracle", "brute_force_opt", "oracle.brute_force_opt"),
    ("makespan.oracle", "makespan_lower_bound", "oracle.makespan_lower_bound"),
    ("makespan.model", "validate", "model.validate"),
    ("makespan.envelope.LowerEnvelope", "insert", "envelope.insert"),
    ("makespan.envelope.LowerEnvelope", "delete", "envelope.delete"),
    ("makespan.envelope.LowerEnvelope", "query_min", "envelope.query_min"),
)


def _owner(path: str):
    """The module, or the class inside a module, that holds a patch target."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class SpanRecorder:
    """Collects spans in memory; one recorder per traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.requests = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._current = [SETUP_REQUEST]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        """Return fn wrapped in a span; observe(args, result) sees each result."""
        nid = self._name_id(name)
        stack, current = self._stack, self._current
        names, parents, requests = self.name_ids, self.parents, self.requests
        starts, ends = self.starts, self.ends
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(current[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, e.g. a whole request."""
        sid = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1])
        self.requests.append(self._current[0])
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.ends[sid] = time.perf_counter()

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Tag every span opened inside with request_id, under a root span."""
        self._current[0] = request_id
        try:
            with self.span("bench.request"):
                yield
        finally:
            self._current[0] = SETUP_REQUEST

    @contextlib.contextmanager
    def installed(self, observers=None):
        """Patch every target with its traced wrapper; restore on exit."""
        observers = observers or {}
        saved = []
        try:
            for path, attr, name in TARGETS:
                owner = _owner(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, observers.get(name)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict:
        """{(name, is_setup): [span count, total self seconds]}.

        A span's self time is its duration minus the durations of its direct
        children; children never overlap since there is one thread.
        """
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                child[parent] += duration
        out = defaultdict(lambda: [0, 0.0])
        for nid, request, duration, inner in zip(self.name_ids, self.requests,
                                                 durations, child):
            cell = out[(self.names[nid], request == SETUP_REQUEST)]
            cell[0] += 1
            cell[1] += duration - inner
        return out

    def write(self, prefix: str) -> None:
        """Write <prefix>.json (names, layout) and <prefix>.bin (the columns)."""
        columns = ("name_ids", "parents", "requests", "starts", "ends")
        with open(prefix + ".bin", "wb") as handle:
            for col in columns:
                getattr(self, col).tofile(handle)
        meta = {
            "spans": len(self.starts),
            "names": self.names,
            "columns": [[col, getattr(self, col).typecode] for col in columns],
            "layout": "column after column, native byte order; parent -1 is a root, "
                      f"request {SETUP_REQUEST} is set-up",
        }
        with open(prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=1)
