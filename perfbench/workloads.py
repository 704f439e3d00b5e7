"""The benchmark's workloads: seeded inputs, one request, and its checks.

Every workload builds its inputs from the benchmark seed alone, runs requests
through the toolkit's public functions (looked up as module attributes, so the
traced run's patches see them), and checks each result outside the request's
timed region. check() returns the jobs the request covered and a fingerprint
that must repeat whenever the same input is run again; with deep=True it also
replays the scheduler's decisions against the LPT rule (used on the reference
requests, since the replay costs O(n m)). `window` is the number of
consecutive requests at whose end the run may stop; a window spans the
workload's input sizes evenly.
`calibration_runs` is how many machine-speed loops (calibrate.py) run before
each request, outside its timed region.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
from fractions import Fraction

from makespan import cli, gen_bench, model, oracle, scheduler
from makespan.numeric import Mode, scalar_to_str

# float loads and the float lower bound are rounded separately
FLOAT_SLACK = 1e-9


class CheckFailed(Exception):
    """A request's output broke one of the benchmark's correctness checks."""


def no_span(_name):
    return contextlib.nullcontext()


def log_sizes(rng: random.Random, count: int, lo: int, hi: int) -> list:
    """`count` sizes on a log-spaced grid over [lo, hi], in a seeded balanced order.

    Sizes sit at the midpoints of `count` equal strata of log n, so every seed
    sees the same size mix. They are visited in bit-reversed stratum order
    rotated by a seeded offset, so any run of consecutive requests (count is
    a power of two) covers the range evenly, whole cycles or not.
    """
    bits = count.bit_length() - 1
    if count != 1 << bits:
        raise ValueError(f"count must be a power of two, got {count}")
    offset = rng.randrange(count)
    strata = [(int(format(k, f"0{bits}b")[::-1], 2) + offset) % count for k in range(count)]
    return [round(lo * (hi / lo) ** ((j + 0.5) / count)) for j in strata]


def check_lower_bound(instance, value) -> None:
    bound = oracle.makespan_lower_bound(instance)
    if value < bound * (1 - FLOAT_SLACK):
        raise CheckFailed(f"makespan {value!r} is below the lower bound {bound!r}")


def check_schedule(instance, schedule) -> None:
    report = model.validate(instance, schedule)
    if not report.ok:
        raise CheckFailed(f"invalid schedule: {report.violations[:3]}")
    check_lower_bound(instance, schedule.makespan)


def check_lpt_steps(instance, trace) -> None:
    """Replay a decision trace: jobs come in non-increasing length, and each
    lands on a machine whose battery covers it and whose finish time is the
    least among such machines, up to float rounding. O(n m)."""
    inv = [1 / v for v in instance.speeds]
    inf = float("inf")
    batteries = [inf if d is None else d for d in instance.batteries]
    by_battery = sorted(range(instance.m), key=batteries.__getitem__, reverse=True)
    finish = [0.0] * instance.m
    admitted = 0
    previous = inf
    decisions = 0
    for i, j, before, after in trace.decisions():
        length = instance.lengths[i]
        if length > previous:
            raise CheckFailed(f"job {i} breaks the non-increasing length order")
        previous = length
        while admitted < instance.m and batteries[by_battery[admitted]] >= length:
            admitted += 1
        best = min(finish[k] + length * inv[k] for k in by_battery[:admitted])
        own = finish[j] + length * inv[j]
        if (before != finish[j] or batteries[j] < length
                or abs(after - own) > FLOAT_SLACK * own
                or after > best * (1 + FLOAT_SLACK)):
            raise CheckFailed(f"job {i} on machine {j} is not an LPT step: "
                              f"finish {after!r}, best {best!r}")
        finish[j] = after
        decisions += 1
    if decisions != instance.n:
        raise CheckFailed(f"trace has {decisions} decisions for {instance.n} jobs")


def fleet_spec(n: int, seed: int) -> gen_bench.GenSpec:
    """uniform-usp with distinct speeds on a fine grid: 1..100 in steps of 1e-4."""
    return gen_bench.GenSpec(
        family="uniform-usp", n=n, m=max(1, n // 10), grid=10 ** 4,
        speed_range=(Fraction(1), Fraction(100)), distinct_speeds=True, seed=seed)


class FleetDistinct:
    """Float-mode lpt-fast on pooled distinct-speed instances, n 1e3..8e3."""

    name = "fleet-distinct"
    algorithm = "lpt-fast"
    pool_size = 64
    window = 32
    calibration_runs = 8
    sizes = (1000, 8000)

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        self.pool = [gen_bench.generate(fleet_spec(n, rng.getrandbits(32)), Mode.F64)
                     for n in log_sizes(rng, self.pool_size, *self.sizes)]

    def warm_up(self) -> None:
        instance = gen_bench.generate(fleet_spec(200, 0), Mode.F64)
        check_schedule(instance, scheduler.run_scheduler(
            self.algorithm, instance, record_trace=False).schedule)

    def key(self, r: int) -> int:
        return r % self.pool_size

    def request(self, r: int, span=no_span):
        return scheduler.run_scheduler(self.algorithm, self.pool[self.key(r)],
                                       record_trace=False)

    def check(self, r: int, trace, deep: bool = False):
        instance = self.pool[self.key(r)]
        check_schedule(instance, trace.schedule)
        if deep:
            full = scheduler.run_scheduler(self.algorithm, instance, record_trace=True)
            if full.schedule != trace.schedule:
                raise CheckFailed("the traced rerun gave another schedule")
            check_lpt_steps(instance, full)
        return instance.n, [repr(trace.schedule.makespan), sorted(trace.counters.items())]


class DispatchShared:
    """`makespan schedule --trace` requests on shared-slope instance texts."""

    name = "dispatch-shared"
    rotation = (("uniform-dwp", "dwp-lpt"), ("uniform-usp", "lpt-fast"),
                ("equal-speed", "lpt-fast"))
    pool_size = window = 24
    calibration_runs = 8
    sizes = (1000, 20000)

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        # each family gets its own evenly spread sizes, so the seed cannot
        # hand the slowest family all the large instances
        per_family = self.pool_size // len(self.rotation)
        sizes = [log_sizes(rng, per_family, *self.sizes) for _ in self.rotation]
        self.texts = []
        for k in range(self.pool_size):
            family, _ = self.rotation[k % len(self.rotation)]
            n = sizes[k % len(self.rotation)][k // len(self.rotation)]
            spec = gen_bench.GenSpec(family=family, n=n, m=max(1, n // 10),
                                     seed=rng.getrandbits(32))
            self.texts.append(gen_bench.write_instance(gen_bench.generate(spec, Mode.F64)))

    def warm_up(self) -> None:
        for family, algorithm in self.rotation:
            spec = gen_bench.GenSpec(family=family, n=200, m=20, seed=0)
            text = gen_bench.write_instance(gen_bench.generate(spec, Mode.F64))
            self.check(-1, self._serve(text, algorithm))

    def key(self, r: int) -> int:
        return r % self.pool_size

    def _serve(self, text: str, algorithm: str, span=no_span):
        instance = cli.parse_instance_text(text, Mode.F64)
        trace = scheduler.run_scheduler(algorithm, instance, record_trace=True)
        report = model.validate(instance, trace.schedule)
        with span("cli.serialize"):
            # the payload `makespan schedule --trace --numeric f64` prints
            body = json.dumps({
                "algorithm": algorithm,
                "numeric": Mode.F64.value,
                "makespan": scalar_to_str(trace.schedule.makespan),
                "assignment": [list(a) for a in trace.schedule.assignment],
                "trace": trace.decisions_json(),
            })
        return instance, trace, report, body

    def request(self, r: int, span=no_span):
        k = self.key(r)
        return self._serve(self.texts[k], self.rotation[k % len(self.rotation)][1], span)

    def check(self, r: int, served, deep: bool = False):
        instance, trace, report, body = served
        if not report.ok:
            raise CheckFailed(f"invalid schedule: {report.violations[:3]}")
        check_lower_bound(instance, trace.schedule.makespan)
        payload = json.loads(body)
        if payload["makespan"] != scalar_to_str(trace.schedule.makespan):
            raise CheckFailed("payload makespan differs from the schedule's")
        if len(payload["trace"]) != instance.n:
            raise CheckFailed(f"payload has {len(payload['trace'])} decisions for "
                              f"{instance.n} jobs")
        if deep:
            check_lpt_steps(instance, trace)
        return instance.n, [payload["makespan"], sorted(trace.counters.items())]


@contextlib.contextmanager
def counting_jobs(counts: list):
    """Append the job count of every instance gen_bench generates to `counts`."""
    original = gen_bench.generate

    def generate(spec, mode=Mode.RATIONAL):
        instance = original(spec, mode)
        counts.append(instance.n)
        return instance

    gen_bench.generate = generate
    try:
        yield
    finally:
        gen_bench.generate = original


class VerifyExact:
    """Rational ratio sweeps against the exact oracle, a fresh seed block each."""

    name = "verify-exact"
    # (family, bound, distinct speeds), the README's three verify examples
    rotation = (("uniform-dwp", "phi", False),
                ("equal-speed", Fraction(4, 3), False),
                ("uniform-usp", Fraction(158, 100), True))
    count = 50
    window = 10 * len(rotation)
    calibration_runs = 2

    def __init__(self, seed: int):
        self.base = random.Random(f"{self.name}/{seed}").getrandbits(40)

    def warm_up(self) -> None:
        for family, bound, distinct in self.rotation:
            gen_bench.ratio_sweep(family, 3, bound=bound, seed=0,
                                  distinct_speeds=distinct, threads=1)

    def key(self, r: int) -> int:
        return r

    def request(self, r: int, span=no_span):
        family, bound, distinct = self.rotation[r % len(self.rotation)]
        jobs = []
        with counting_jobs(jobs):
            result = gen_bench.ratio_sweep(family, self.count, bound=bound,
                                           seed=self.base + r * self.count,
                                           distinct_speeds=distinct, threads=1)
        return result, jobs

    def check(self, r: int, out, deep: bool = False):
        result, jobs = out
        _, bound, _ = self.rotation[r % len(self.rotation)]
        checked = sum(result.histogram.values())
        if result.count != self.count or checked != self.count or len(jobs) != self.count:
            raise CheckFailed(f"sweep covered {checked} of {self.count} instances")
        within = oracle.le_phi(result.max_ratio) if bound == "phi" else result.max_ratio <= bound
        if not (result.ok and within):
            raise CheckFailed(f"ratio {scalar_to_str(result.max_ratio)} exceeds {bound}")
        if result.max_ratio < 1:
            raise CheckFailed(f"ratio {scalar_to_str(result.max_ratio)} is below 1")
        return sum(jobs), [scalar_to_str(result.max_ratio),
                           sorted(result.histogram.items()), result.max_instance_text]


WORKLOADS = {cls.name: cls for cls in (FleetDistinct, DispatchShared, VerifyExact)}


def median_fleet_instance(seed: int):
    """The fleet-distinct request of median size (n = sqrt(1e3 * 8e3))."""
    lo, hi = FleetDistinct.sizes
    seed_bits = random.Random(f"median/{seed}").getrandbits(32)
    return gen_bench.generate(fleet_spec(round(math.sqrt(lo * hi)), seed_bits), Mode.F64)
