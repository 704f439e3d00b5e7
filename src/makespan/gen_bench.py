"""Seeded instance generators, the canonical instance text format, ratio
sweeps against the exact oracle, and the wall-clock/counter benchmark harness.

All random draws land on a decimal grid (default hundredths) so rational-mode
arithmetic stays fast and generated files round-trip exactly. The same spec
and seed always produce byte-identical output.

The draw order is the byte-stability contract: ``generate`` seeds one
``random.Random`` per spec and draws speeds, then lengths, then batteries,
each as ``randint`` draws over the range's grid points (or ``sample`` for
distinct speeds). Any change to that sequence or to its bounds changes every
generated file; tests/test_gen_bench.py pins a digest over all families.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import truediv
from typing import Optional

from .errors import SizeGuardError, UsageError
from .model import Instance, Kind
from .numeric import Mode, scalar_to_str
from .oracle import BRUTE_FORCE_GUARD, PHI, ratio_report
from .scheduler import run_scheduler

FAMILIES = (
    "uniform-usp", "uniform-dwp", "equal-speed",
    "two-class-adversarial", "paper-4.3", "graham-43",
)

#: Suggested scheduler per family (CLI default; callers may override).
DEFAULT_ALGORITHM = {
    "uniform-usp": "lpt-fast",
    "uniform-dwp": "dwp-lpt",
    "equal-speed": "lpt-fast",
    "two-class-adversarial": "lpt-fast",
    "paper-4.3": "lpt-restricted",
    "graham-43": "lpt-naive",
}


@dataclass(frozen=True)
class GenSpec:
    """Deterministic recipe for one instance; equal specs generate equal bytes.

    Each range must satisfy 0 < lo <= hi, decided on the ends' integer
    ratios (``_in_order``), not by comparing Fractions."""

    family: str
    n: int = 10
    m: int = 3
    length_range: tuple = (Fraction(1), Fraction(100))
    speed_range: tuple = (Fraction(1), Fraction(4))
    battery_range: tuple = (Fraction(1), Fraction(100))
    grid: int = 100
    eps: Fraction = Fraction(1, 10)
    seed: int = 0
    distinct_speeds: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UsageError(f"unknown family {self.family!r}; pick one of {FAMILIES}")
        if self.family not in ("paper-4.3", "graham-43") and (self.n < 1 or self.m < 1):
            raise UsageError("n and m must be >= 1")
        if self.grid < 1:
            raise UsageError("grid must be >= 1")
        for name in ("length_range", "speed_range", "battery_range"):
            lo, hi = getattr(self, name)
            if not _in_order(lo, hi):
                raise UsageError(f"{name} must satisfy 0 < lo <= hi, got {lo}..{hi}")


def _in_order(lo, hi) -> bool:
    """0 < lo <= hi, decided on integers: as_integer_ratio() gives p/q with
    q > 0 alike for an int, a float and a Fraction, and a Fraction compared
    to a number takes several Python calls. A value without a ratio (nan,
    inf, not a number) is compared as given."""
    try:
        (p, q), (r, s) = lo.as_integer_ratio(), hi.as_integer_ratio()
    except (AttributeError, OverflowError, ValueError):
        return 0 < lo <= hi
    return 0 < p and p * s <= r * q


def _grid_points(lo: Fraction, hi: Fraction, grid: int):
    """The least and greatest k with lo <= k / grid <= hi, by integer division."""
    lo_i = -(-lo.numerator * grid // lo.denominator)
    hi_i = hi.numerator * grid // hi.denominator
    if lo_i > hi_i:
        raise UsageError(f"range {lo}..{hi} contains no grid point at 1/{grid}")
    return lo_i, hi_i


def generate(spec: GenSpec, mode: Mode = Mode.RATIONAL) -> Instance:
    """Build the instance for a spec. Deterministic; DWP output is always
    feasible (the roomiest battery is raised to the longest parcel if needed).

    Draws happen in integer grid units and are materialized per mode at the
    end, so both modes see the same abstract instance for a given spec.

    Byte contract: the instance is fixed by the draw order (speeds, lengths,
    batteries) and ``randint``'s stream, reproduced in batches of
    ``getrandbits`` calls with randint's own rejection rule.
    ``test_generated_bytes_pinned`` pins the bytes on CPython 3.10-3.12.
    """
    rng = random.Random(spec.seed)
    g = spec.grid
    batteries_k = None

    if spec.family == "graham-43":
        g = 1
        speeds_k, lengths_k = [1, 1], [3] * 2 + [2] * 3
        kind, eligibility = Kind.USP, None
    elif spec.family == "paper-4.3":
        if spec.eps <= 0:
            raise UsageError("paper-4.3 needs eps > 0")
        g = spec.eps.denominator
        speeds_k = lengths_k = [10 * g, 10 * g + spec.eps.numerator]
        kind = Kind.RESTRICTED
        eligibility = (frozenset({1}), frozenset({0, 1}))
    else:
        kind = Kind.DWP if spec.family == "uniform-dwp" else Kind.USP
        eligibility = None

        def draws(bounds, count):
            # `count` randint(lo_i, hi_i) values, drawn in batches: randint
            # takes getrandbits(k), k = width.bit_length(), until r < width.
            # Each accepted value takes a draw, so a batch of as many draws
            # as values are missing never reads past randint's last draw.
            lo_i, hi_i = _grid_points(*bounds, g)
            width = hi_i - lo_i + 1
            bits = width.bit_length()
            values = []
            while len(values) < count:
                batch = map(rng.getrandbits, repeat(bits, count - len(values)))
                values.extend(map(lo_i.__add__, filter(width.__gt__, batch)))
            return values

        if spec.family == "equal-speed":
            speeds_k = draws(spec.speed_range, 1) * spec.m
        elif spec.family == "two-class-adversarial":
            # two speed classes and lengths spanning their critical ratios
            [v_hi] = draws((Fraction(3, 2), Fraction(3)), 1)
            speeds_k = [v_hi if rng.random() < 0.5 else g for _ in range(spec.m)]
        elif spec.distinct_speeds:
            lo_i, hi_i = _grid_points(*spec.speed_range, g)
            if hi_i - lo_i + 1 < spec.m:
                raise UsageError(
                    f"speed grid has {hi_i - lo_i + 1} points, need {spec.m} distinct")
            speeds_k = rng.sample(range(lo_i, hi_i + 1), spec.m)
        else:
            speeds_k = draws(spec.speed_range, spec.m)

        if spec.family == "two-class-adversarial":
            length_bounds = (Fraction(1), Fraction(max(speeds_k) * 2, g))
        else:
            length_bounds = spec.length_range
        lengths_k = draws(length_bounds, spec.n)

        if kind is Kind.DWP:
            batteries_k = draws(spec.battery_range, spec.m)
            longest = max(lengths_k)
            if max(batteries_k) < longest:
                roomiest = max(range(spec.m), key=lambda j: (batteries_k[j], -j))
                batteries_k[roomiest] = longest

    scale = Fraction if mode is Mode.RATIONAL else truediv

    def scaled(values_k):
        # tuple(map(...)) without the list raised verify-exact's peak RSS by 0.4 MB
        return tuple(list(map(scale, values_k, repeat(g))))

    return Instance(
        kind=kind,
        speeds=scaled(speeds_k),
        batteries=(None,) * len(speeds_k) if batteries_k is None else scaled(batteries_k),
        lengths=scaled(lengths_k),
        eligibility=eligibility,
    )


# -- canonical instance text --------------------------------------------------

def decimal_str(x: Fraction) -> str:
    """Exact decimal rendering when the denominator is 2^a 5^b, else 'p/q'."""
    den = x.denominator
    if den == 1:
        return str(x.numerator)
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{x.numerator}/{x.denominator}"
    k = max(twos, fives)
    digits = x.numerator * 10 ** k // den
    sign = "-" if digits < 0 else ""
    digits = abs(digits)
    whole, frac = divmod(digits, 10 ** k)
    return f"{sign}{whole}.{str(frac).zfill(k)}"


def write_instance(instance: Instance) -> str:
    """Serialize to the line-oriented instance format consumed by the CLI."""
    # an instance holds floats only or Fractions only
    render = repr if isinstance(instance.speeds[0], float) else decimal_str
    out = [f"{instance.kind.value} {instance.m} {instance.n}"]
    if instance.kind is Kind.DWP:
        if None in instance.batteries:
            raise UsageError("DWP text format needs a finite battery per drone")
        out.extend(map("{} {}".format, map(render, instance.speeds),
                       map(render, instance.batteries)))
    else:
        out.extend(map(render, instance.speeds))
    if instance.kind is Kind.RESTRICTED:
        for length, eligible in zip(instance.lengths, instance.eligibility):
            elig = sorted(eligible)
            out.append(f"{render(length)} {len(elig)} " + " ".join(map(str, elig)))
    else:
        out.extend(map(render, instance.lengths))
    return "\n".join(out) + "\n"


# -- ratio sweeps --------------------------------------------------------------

# bin k < 20 holds ratios in [1 + k/20, 1 + (k+1)/20), bin 0 also those below
_HIST_LABELS = [f"[{(100 + 5 * k) / 100:.2f},{(105 + 5 * k) / 100:.2f})"
                for k in range(20)] + [">=2.00"]


def _hist_bin(ratio) -> str:
    p, q = ratio.as_integer_ratio()
    return _HIST_LABELS[min(max(20 * p // q - 20, 0), 20)]


def _exceeds(bound):
    """The test "ratio p/q (q > 0) exceeds bound" on integers: for "phi",
    p >= 0 and p^2 > (p + q) q, the negation of ``oracle.le_phi``; never
    for None."""
    if bound is None:
        return lambda p, q: False
    if bound == "phi":
        return lambda p, q: p >= 0 and p * p > (p + q) * q
    r, s = bound.as_integer_ratio()
    return lambda p, q: p * s > r * q


def _sweep_spec(family: str, index: int, seed: int, n_max: int, m_max: int,
                eps: Fraction, distinct_speeds: bool) -> GenSpec:
    child = seed + index
    # distinct integer stream from the one generate() uses for the same seed
    rng = random.Random(child * 0x9E3779B97F4A7C15 % 2 ** 63)
    return GenSpec(
        family=family,
        n=rng.randint(1, n_max),
        m=rng.randint(1, m_max),
        seed=child,
        eps=eps,
        distinct_speeds=distinct_speeds,
    )


@dataclass
class SweepResult:
    family: str
    algorithm: str
    count: int
    bound: Optional[str]
    max_ratio: Fraction = Fraction(0)
    max_instance_text: str = ""
    violations: list = field(default_factory=list)  # (instance_text, ratio_str)
    histogram: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        if self.bound is None:
            bound_float = None
        elif self.bound == "phi":
            bound_float = PHI  # for reading only: decisions use the exact le_phi
        else:
            bound_float = float(self.bound)
        return {
            "family": self.family,
            "algorithm": self.algorithm,
            "count": self.count,
            "bound": None if self.bound is None else str(self.bound),
            "bound_float": bound_float,
            "max_ratio": scalar_to_str(self.max_ratio),
            "max_ratio_float": float(self.max_ratio),
            "max_instance": self.max_instance_text,
            "violations": [
                {"instance": text, "ratio": ratio} for text, ratio in self.violations
            ],
            "histogram": {k: self.histogram[k] for k in sorted(self.histogram)},
        }


# A sweep draws the specs of a block of instances and generates them all
# before it runs any, so each phase runs with its own code and data in
# cache: drawn and generated one at a time between the runs, a sweep
# instance took about 1.1x as long. A block ends once its instances hold
# _BLOCK_SIZE jobs and machines, so what it holds is bounded for any n_max
# and m_max.
_BLOCK_SIZE = 128


def _spec_blocks(family: str, seed: int, start: int, stop: int, n_max: int, m_max: int,
                 eps: Fraction, distinct_speeds: bool):
    """The specs of sweep instances start..stop-1, in blocks of at least
    _BLOCK_SIZE jobs and machines (the last block may hold fewer)."""
    block, size = [], 0
    for index in range(start, stop):
        spec = _sweep_spec(family, index, seed, n_max, m_max, eps, distinct_speeds)
        block.append(spec)
        size += spec.n + spec.m
        if size >= _BLOCK_SIZE:
            yield block
            block, size = [], 0
    if block:
        yield block


def _sweep_chunk(args) -> SweepResult:
    (family, algorithm, seed, start, stop,
     n_max, m_max, bound, eps, distinct_speeds) = args
    part = SweepResult(family, algorithm, stop - start, bound)
    histogram, exceeds = part.histogram, _exceeds(bound)
    top, bottom = part.max_ratio.as_integer_ratio()  # the running maximum
    for specs in _spec_blocks(family, seed, start, stop, n_max, m_max, eps, distinct_speeds):
        instances = [generate(spec, Mode.RATIONAL) for spec in specs]
        for spec, instance in zip(specs, instances):
            report = ratio_report(instance, algorithm, instance_id=f"{family}-{spec.seed}")
            if report.opt_method != "brute-force":  # a lower bound is no exact ratio
                raise SizeGuardError(f"instance {report.instance_id}: m^n = {instance.m}^"
                                     f"{instance.n} exceeds the {BRUTE_FORCE_GUARD:g} "
                                     f"guard of the exact ratio")
            ratio = report.ratio
            bin_key = _hist_bin(ratio)
            histogram[bin_key] = histogram.get(bin_key, 0) + 1
            p, q = ratio.as_integer_ratio()
            if p * bottom > top * q:
                top, bottom = p, q
                part.max_ratio = ratio
                part.max_instance_text = write_instance(instance)
            if exceeds(p, q) and len(part.violations) < 10:
                part.violations.append((write_instance(instance), scalar_to_str(ratio)))
    return part


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures' process pool, imported on first use: importing it
    loads multiprocessing, logging, socket and pickle, which only a sweep
    with more than one worker needs."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def sweep_threads() -> int:
    raw = os.environ.get("MAKESPAN_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise UsageError(f"MAKESPAN_THREADS must be an integer, got {raw!r}")


def ratio_sweep(family: str, count: int, algorithm: Optional[str] = None,
                bound=None, seed: int = 0, n_max: int = 9, m_max: int = 3,
                threads: Optional[int] = None, eps: Fraction = Fraction(1, 10),
                distinct_speeds: bool = False) -> SweepResult:
    """Run `count` seeded instances through a scheduler and the exact oracle.

    Rational mode throughout; `bound` is either the string "phi" (checked by
    the exact x^2 <= x + 1 predicate) or a Fraction. Instances are drawn with
    n in 1..n_max and m in 1..m_max. Parallelizes across seed chunks when
    `threads` (or MAKESPAN_THREADS) exceeds one, with at most one worker
    process per CPU; the merge is deterministic.
    """
    if count < 1:
        raise UsageError("count must be >= 1")
    if algorithm is None:
        algorithm = DEFAULT_ALGORITHM[family]
    if threads is None:
        threads = sweep_threads()
    # the fork start method starts every worker at once: one per CPU at most
    threads = min(threads, count, os.cpu_count() or 1)

    step = -(-count // threads)
    chunks = [(family, algorithm, seed, lo, min(lo + step, count),
               n_max, m_max, bound, eps, distinct_speeds)
              for lo in range(0, count, step)]
    parts = map(_sweep_chunk, chunks)  # lazy: the merge runs them unless a pool does
    if threads > 1:
        try:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(_sweep_chunk, chunks))
        except OSError:
            pass  # no worker processes

    result = SweepResult(family, algorithm, count, bound)
    for part in parts:  # chunk order is deterministic, so the merge is too
        if part.max_ratio > result.max_ratio:
            result.max_ratio = part.max_ratio
            result.max_instance_text = part.max_instance_text
        for key, val in part.histogram.items():
            result.histogram[key] = result.histogram.get(key, 0) + val
        for item in part.violations:
            if len(result.violations) < 10:
                result.violations.append(item)
    return result


# -- scaling benchmarks --------------------------------------------------------

@dataclass
class BenchResult:
    algorithm: str
    n: int
    m: int
    repetitions: int
    wall_times: list
    counters: dict

    @property
    def median_s(self) -> float:
        return statistics.median(self.wall_times)

    @property
    def min_s(self) -> float:
        return min(self.wall_times)

    def to_json(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "m": self.m,
            "repetitions": self.repetitions,
            "wall_times_s": self.wall_times,
            "median_s": self.median_s,
            "min_s": self.min_s,
            "counters": self.counters,
        }


def bench_scaling(algorithm: str, sizes, repetitions: int,
                  family: str = "uniform-usp", seed: int = 0) -> list:
    """Time a scheduler on float-mode instances of the given (n, m) sizes.

    One untimed warmup run per size, then ``repetitions`` rounds that each
    time every size once, so a drift in the host's speed reaches all sizes
    alike instead of skewing their ratios. Counter values come from the
    final round and are deterministic for a given instance.
    """
    if repetitions < 1:
        raise UsageError("repetitions must be >= 1")
    instances = [generate(GenSpec(family=family, n=n, m=m, seed=seed + 7919 * idx), Mode.F64)
                 for idx, (n, m) in enumerate(sizes)]
    for instance in instances:
        run_scheduler(algorithm, instance, record_trace=False)  # warmup
    times = [[] for _ in instances]
    counters = [None] * len(instances)
    for _ in range(repetitions):
        for k, instance in enumerate(instances):
            t0 = time.perf_counter()
            counters[k] = run_scheduler(algorithm, instance, record_trace=False).counters
            times[k].append(time.perf_counter() - t0)
    return [BenchResult(algorithm=algorithm, n=n, m=m, repetitions=repetitions,
                        wall_times=t, counters=dict(c))
            for (n, m), t, c in zip(sizes, times, counters)]
