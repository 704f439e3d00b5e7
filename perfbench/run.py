"""Request-level benchmark of the makespan toolkit.

    python3 perfbench/run.py --workload fleet-distinct --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) as a closed loop: one client in this one
process sends the next request only after the previous one completed and was
checked. It imports the toolkit from the src/ directory next to perfbench/.
With --trace 0 it reports the end-to-end metrics; with --trace 1 every request
runs once untraced and once with spans around the toolkit's public functions,
and it reports the per-layer metrics. Human-readable lines come first; the last
line of stdout is one JSON object. Reports, span files and the per-seed digests
that must repeat across runs go to .bench_build/perfbench/.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 3
SETUP_CALIBRATIONS = 200
# The first requests of a run form its reference set: they run even past the
# deadline, and their fingerprints and envelope counters must repeat exactly
# across runs of one seed.
REFERENCE_REQUESTS = 6
TAIL_BEYOND = 10
WALL_CAP = 3
COUNTERS = ("releases", "hull_pops", "comparisons")
MAX_TRACEBACKS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet-distinct", "dispatch-shared", "verify-exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def import_toolkit():
    """Import makespan from this checkout's src/, and nothing installed elsewhere."""
    if not (SRC / "makespan" / "__init__.py").is_file():
        raise ImportError(f"no makespan package under {SRC}")
    sys.path.insert(0, str(SRC))
    import makespan
    if Path(makespan.__file__).resolve().parent != SRC / "makespan":
        raise ImportError(f"makespan was imported from {makespan.__file__}")


def source_digest() -> str:
    """Hash of the toolkit's and the benchmark's source: stored digests are
    only compared between runs of the same code."""
    h = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted((SRC / "makespan").glob("*.py")) + sorted(here.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Run:
    """Outcome bookkeeping shared by the plain and the traced loop."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.keys = []           # input key of each latency
        self.job_counts = []     # jobs covered by each latency's request
        self.loops = []          # calibration loop times, in the order taken
        self.loop_index = []     # the loop taken just before each latency
        self.fingerprints = {}   # key -> first fingerprint seen
        self.reference = []      # fingerprints of the reference requests
        self.tracebacks = 0

    def fail(self, r, message):
        self.failed += 1
        if self.tracebacks < MAX_TRACEBACKS:
            self.tracebacks += 1
            print(f"request {r} failed: {message}", file=sys.stderr)

    def timed(self, r, span=None):
        """Run and check request r; return its latency, or None if it failed.

        The untraced run of a reference request also gets the deep check.
        """
        wl = self.workload
        self.attempted += 1
        self.calibrate()
        try:
            t0 = time.perf_counter()
            out = wl.request(r) if span is None else wl.request(r, span)
            latency = time.perf_counter() - t0
            jobs, fingerprint = wl.check(r, out, span is None and r < REFERENCE_REQUESTS)
        except Exception:  # the loop must go on; the failure is counted
            self.fail(r, traceback.format_exc())
            return None
        first = self.fingerprints.setdefault(wl.key(r), fingerprint)
        if first != fingerprint:
            self.fail(r, f"result differs from an earlier run of the same input: "
                         f"{fingerprint!r} != {first!r}")
            return None
        if r < REFERENCE_REQUESTS and len(self.reference) == r:
            self.reference.append(fingerprint)
        self.latencies.append(latency)
        self.keys.append(wl.key(r))
        self.loop_index.append(len(self.loops) - 1)
        self.job_counts.append(jobs)
        return latency

    def calibrate(self):
        """Time the calibration loop; every request is preceded by one, and
        the run ends with one."""
        self.loops.append(calibrate.sample(self.workload.calibration_runs))

    def scaled_latencies(self):
        """Latencies at the reference machine speed: each is scaled by the
        mean of the calibration loops just before and just after it."""
        loops = self.loops
        last = len(loops) - 1
        return [latency * calibrate.speed((loops[i] + loops[min(i + 1, last)]) / 2)
                for i, latency in zip(self.loop_index, self.latencies)]

    def measured_s(self):
        """Summed request latency at the reference machine speed."""
        return sum(self.scaled_latencies())


def closed_loop(seconds, serve, window, measured):
    """Serve requests 0, 1, ... until `measured()`, the request time so far at
    the reference machine speed, reaches `seconds`, stopping only at the end
    of a window of `window` requests; each window spans the workload's input
    sizes evenly, so every run sees them in the same mix. Budgeting reference
    time rather than wall time keeps the request count, and with it the tail
    percentile, independent of how fast the host runs at the moment. A wall
    clock cap ends a run whose requests keep failing."""
    cap = time.perf_counter() + WALL_CAP * seconds
    r = 0
    while True:
        serve(r)
        r += 1
        if (r >= REFERENCE_REQUESTS and r % window == 0
                and (measured() >= seconds or time.perf_counter() >= cap)):
            return


def tail(latencies):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def check_digest(key, content):
    """Compare this run's reference digest with the one stored for its key."""
    digest = hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()
    path = OUT_DIR / "digests.json"
    try:
        stored = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        stored = {}
    if key in stored and stored[key] != digest:
        print(f"digest {digest} for {key} differs from the stored {stored[key]}",
              file=sys.stderr)
        return digest, False
    stored[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return digest, True


def plain_metrics(run, setup_s):
    """End-to-end metrics; times are scaled to the reference machine speed
    (calibrate.py), the raw ones go to the report."""
    scaled = run.scaled_latencies()
    pct, tail_s = tail(scaled)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (sum(run.job_counts) / sum(scaled), "1/s"),
        "request_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "request_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "tail_percentile": pct,
        "samples": len(run.latencies),
        "raw_jobs_per_s": sum(run.job_counts) / sum(run.latencies),
        "raw_request_p50_ms": statistics.median(run.latencies) * 1e3,
        "raw_request_tail_ms": tail(run.latencies)[1] * 1e3,
        "busy_s": sum(run.latencies),
        "latencies_s": run.latencies,
        "latency_keys": run.keys,
        "loop_s": run.loops,
        "loop_index": run.loop_index,
    }
    return metrics, info


def traced_metrics(recorder, stats, pairs, refs):
    """Per-layer metrics from the spans and counters of the traced requests."""
    self_times = recorder.self_times()

    def total(name, setup=False):
        return self_times.get((name, setup), (0, 0.0))

    requests = max(1, len(pairs))

    def per_request_ms(name):
        return total(name)[1] / requests * 1e3

    env_ops = [total(f"envelope.{op}") for op in ("insert", "delete", "query_min")]
    env_count = sum(c for c, _ in env_ops)
    env_self = sum(s for _, s in env_ops)
    sched_count, sched_self = total("scheduler.run_scheduler")
    bf_count, _ = total("oracle.brute_force_opt")
    lb_count, _ = total("oracle.makespan_lower_bound")
    ref_jobs = sum(stats[r]["jobs"] for r in range(REFERENCE_REQUESTS))
    traced_jobs = sum(s["jobs"] for s in stats.values())

    metrics = {}
    for name in COUNTERS:
        metrics[f"envelope.{name}_per_job"] = (
            sum(stats[r]["counters"].get(name, 0) for r in range(REFERENCE_REQUESTS))
            / max(1, ref_jobs), "count")
    metrics.update({
        "envelope.self_ms": (env_self / requests * 1e3, "ms"),
        "envelope.ops": (env_count / requests, "count"),
        "envelope.ns_per_op": (env_self / max(1, env_count) * 1e9, "ns"),
        "scheduler.self_ms": (sched_self / requests * 1e3, "ms"),
        "scheduler.us_per_job": (sched_self / max(1, traced_jobs) * 1e6, "us"),
        "scheduler.naive_ref_ms": (refs["lpt-naive"] * 1e3, "ms"),
        "scheduler.fast_ref_ms": (refs["lpt-fast"] * 1e3, "ms"),
        "cli.parse_ms": (per_request_ms("cli.parse_instance_text"), "ms"),
        "cli.serialize_ms": (per_request_ms("cli.serialize"), "ms"),
        "model.validate_ms": (per_request_ms("model.validate"), "ms"),
        "model.build_schedule_ms": (per_request_ms("model.build_schedule"), "ms"),
        "oracle.brute_force_ms": (per_request_ms("oracle.brute_force_opt"), "ms"),
        "oracle.lower_bound_ms": (per_request_ms("oracle.makespan_lower_bound"), "ms"),
        "oracle.exact_share": (bf_count / max(1, bf_count + lb_count), "fraction"),
    })
    for fn in ("generate", "write_instance"):
        name = f"gen_bench.{fn}"
        metrics[f"{name}_ms"] = (total(name, setup=True)[1] * 1e3 + per_request_ms(name), "ms")
    untraced = sum(u for u, _ in pairs)
    traced = sum(t for _, t in pairs)
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "fraction")
    info = {
        "traced_requests": requests,
        "scheduler_calls": sched_count,
        "reference_counters": {str(r): stats[r] for r in range(REFERENCE_REQUESTS)},
        "spans": len(recorder.starts),
    }
    return metrics, info


def traced_loop(run, recorder, seconds):
    """Closed loop running each request untraced, then traced.

    Returns per-request scheduler stats of the traced runs (jobs scheduled and
    summed LptTrace counters) and the (untraced, traced) latency pairs.
    """
    stats = {}
    pairs = []
    current = [None]

    def observe(call_args, trace):  # run_scheduler(name, instance, ...)
        cell = stats[current[0]]
        cell["jobs"] += call_args[1].n
        for name, value in trace.counters.items():
            cell["counters"][name] = cell["counters"].get(name, 0) + value

    observers = {"scheduler.run_scheduler": observe}

    def serve_pair(r):
        untraced = run.timed(r)
        current[0] = r
        stats[r] = {"jobs": 0, "counters": {}}
        with recorder.installed(observers), recorder.request(r):
            traced = run.timed(r, recorder.span)
        if untraced is not None and traced is not None:
            pairs.append((untraced, traced))

    closed_loop(seconds, serve_pair, run.workload.window, run.measured_s)
    run.calibrate()
    return stats, pairs


def reference_times(seed):
    """Median of three untraced runs of lpt-naive and lpt-fast on one instance."""
    import workloads
    from makespan import scheduler
    instance = workloads.median_fleet_instance(seed)
    out = {}
    for algorithm in ("lpt-naive", "lpt-fast"):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            trace = scheduler.run_scheduler(algorithm, instance, record_trace=False)
            times.append(time.perf_counter() - t0)
        workloads.check_schedule(instance, trace.schedule)
        out[algorithm] = statistics.median(times)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_toolkit()
    except ImportError as exc:
        print(f"error: cannot import the makespan toolkit: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads
    import_s = time.perf_counter() - T_START
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    recorder = spans.SpanRecorder() if args.trace else None
    # machine speed around each set-up: one calibration before it and after it
    loop_s = [calibrate.sample(SETUP_CALIBRATIONS)]
    setup_times = []
    for k in range(SETUP_REPEATS):
        traced = recorder is not None and k == SETUP_REPEATS - 1
        with recorder.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            wl = workloads.WORKLOADS[args.workload](args.seed)
            wl.warm_up()
            setup_times.append(time.perf_counter() - t0)
        loop_s.append(calibrate.sample(SETUP_CALIBRATIONS))
    raw_setup_s = import_s + statistics.median(setup_times)
    setup_speeds = [calibrate.speed((before + after) / 2)
                    for before, after in zip(loop_s, loop_s[1:])]
    setup_s = (import_s * calibrate.speed(loop_s[0])
               + statistics.median(t * v for t, v in zip(setup_times, setup_speeds)))
    # the inputs live for the whole run: keep the collector from rescanning them
    gc.collect()
    gc.freeze()

    run = Run(wl)
    if recorder is None:
        closed_loop(args.seconds, run.timed, wl.window, run.measured_s)
        run.calibrate()
        if not run.latencies:
            print(f"error: {run.failed} of {run.attempted} requests failed, too many to measure",
                  file=sys.stderr)
            return 1
        metrics, info = plain_metrics(run, setup_s)
        digest_content = run.reference
    else:
        stats, pairs = traced_loop(run, recorder, args.seconds)
        if not pairs:
            print(f"error: {run.failed} of {run.attempted} requests failed, too many to measure",
                  file=sys.stderr)
            return 1
        refs = reference_times(args.seed)
        metrics, info = traced_metrics(recorder, stats, pairs, refs)
        digest_content = [run.reference,
                          [stats[r] for r in range(REFERENCE_REQUESTS)]]

    key = f"{args.workload}/seed={args.seed}/trace={args.trace}/source={source_digest()}"
    info["digest"], info["digest_repeats"] = check_digest(key, digest_content)
    if not info["digest_repeats"]:
        # the reference requests gave other results than on an earlier run
        run.failed = min(run.attempted, run.failed + REFERENCE_REQUESTS)
    info.update(error_rate=run.failed / run.attempted, attempted=run.attempted,
                failed=run.failed, setup_runs_s=setup_times, import_s=import_s,
                raw_setup_s=raw_setup_s, setup_speeds=setup_speeds,
                nproc=os.cpu_count(),
                python=sys.version.split()[0])
    if recorder is not None:
        prefix = OUT_DIR / f"spans-{args.workload}"
        recorder.write(str(prefix))
        info["span_file"] = str(prefix.relative_to(ROOT)) + ".bin"

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{run.attempted} requests, {run.failed} failed, closed loop, one client")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:16.6f} {unit}")
    for name, value in info.items():
        if name not in ("reference_counters", "latencies_s", "latency_keys",
                        "loop_s", "loop_index"):
            print(f"  {name:28s} {value}")

    report = {"args": vars(args), "metrics": {k: {"value": v, "unit": u}
                                              for k, (v, u) in metrics.items()},
              "info": info}
    report_path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
