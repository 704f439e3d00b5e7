"""The LPT variants, in two loops.

Every variant assigns jobs in non-increasing length order (ties by ascending
job id) to the machine minimizing the resulting finish time, with one shared
tie rule: least finish value, then greatest speed, then least current finish
time, then least machine id.

* ``_scan_lpt`` is the O(mn) scan of ``lpt-naive`` (every machine is a
  candidate) and ``lpt-restricted`` (the job's eligibility set);
* ``_envelope_lpt`` places each run of jobs between two admissions with
  one ``raise_each`` call (in chunks of at most ``_CHUNK`` jobs) on the
  kinetic tournament of ``envelope.LowerEnvelope``, for ``lpt-fast`` (every
  machine admitted up front: one run of n jobs) and ``dwp-lpt`` (drones
  admitted by a battery pointer sweep: at most m + 1 runs).

Rational mode runs both loops on integers. ``_scaled`` hands them the
instance's one exact scaling, ``Instance.exact``: lengths and batteries over
the lcm L of their denominators, and slopes P/v over the lcm P of the speed
numerators. Every query point, slope and finish value is then an integer, a
finish value being the finish time times L * P, so the job sort, the battery
sweep and every LPT comparison compare integers, which decide as the
Fractions would: the scaling is positive. In the tournament the crossing c
of two integer lines is rounded up (``_Slope``); at an integer query point
X, X < c exactly when X < ceil(c), so it decides exactly too. A trace's
finish times become Fractions only at the end, F / (L * P).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .envelope import LowerEnvelope
from .errors import InfeasibleError, UsageError
from .model import Instance, Kind, Schedule, battery_order, build_schedule
from .numeric import Scalar, scalar_to_str

_CHUNK = 4096  # jobs per raise_each call


class Decision(NamedTuple):
    job: int
    machine: int
    before: Scalar
    after: Scalar


@dataclass
class LptTrace:
    """What LPT decided, plus the final schedule and operation counters: job
    ``job_ids[k]`` went to machine ``machine_ids[k]``, whose finish time
    became ``after[k]``. ``before`` is derived, not stored: the machine's
    previous ``after``, or zero. Untraced runs leave the three lists empty.
    """

    algorithm: str
    job_ids: list = field(default_factory=list)
    machine_ids: list = field(default_factory=list)
    after: list = field(default_factory=list)
    schedule: Optional[Schedule] = None
    counters: dict = field(default_factory=dict)

    @property
    def before(self) -> list:
        """Each decision's machine's finish time before it."""
        return _previous(self.machine_ids, self.after, self._idle())

    def decisions(self) -> Iterator[Decision]:
        return map(Decision, self.job_ids, self.machine_ids, self.before, self.after)

    def decisions_json(self) -> list:
        """The decisions as JSON objects {job, machine, before, after}, finish
        times rendered by ``scalar_to_str`` (the shape of trace.schema.json).

        Each finish time is rendered once: ``before`` is derived as in the
        property, over the rendered ``after`` strings.
        """
        after = list(map(scalar_to_str, self.after))
        before = _previous(self.machine_ids, after, scalar_to_str(self._idle()))
        return [{"job": i, "machine": j, "before": b, "after": a}
                for i, j, b, a in zip(self.job_ids, self.machine_ids, before, after)]

    def _idle(self) -> Scalar:  # an idle machine's finish time: 0.0 or Fraction(0)
        return type(self.after[0])() if self.after else 0


def _previous(machines: list, values: list, zero) -> list:
    """For each decision, the value of the previous decision on its machine,
    or ``zero`` on the machine's first decision."""
    latest = [zero] * (max(machines, default=-1) + 1)
    previous = []
    for j, v in zip(machines, values):
        previous.append(latest[j])
        latest[j] = v
    return previous


class _Slope(int):
    """An integer slope of the rational LPT loops. The difference of two
    slopes is a _Slope again, and an integer divided by a _Slope is rounded
    up for either sign, so ``LowerEnvelope`` finds the crossing c of two
    integer lines as ceil(c) in either order, and every certificate holds at
    the same integer query points. Float lines keep true division."""

    __slots__ = ()

    def __sub__(self, other):
        return _Slope(int.__sub__(self, other))

    def __rtruediv__(self, other):
        return -(-other // self)


def _scaled(instance: Instance) -> tuple:
    """(lengths, batteries, slopes, den): what the LPT loops decide on. Float
    mode takes the values as given and slopes 1/v, with den None; rational
    mode takes ``Instance.exact``, whose finish values are the finish times
    times den = L * P."""
    speeds = instance.speeds
    if isinstance(speeds[0], float):
        return instance.lengths, instance.batteries, [1 / v for v in speeds], None
    exact = instance.exact
    return exact.lengths, exact.batteries, exact.slopes, exact.L * exact.P


def _finish_times(values: list, den) -> list:
    """The finish times of decision values: themselves in float mode."""
    return values if den is None else [Fraction(v, den) for v in values]


def _job_order(lengths) -> list:
    # sorted() is stable, so equal lengths stay in ascending id order
    return sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)


def _scan_lpt(instance: Instance, name: str, eligibility, record_trace: bool) -> LptTrace:
    """The O(mn) scan shared by lpt-naive (``eligibility`` None: every
    machine is a candidate) and lpt-restricted (the job's eligibility set).

    Job i scans its candidates fastest first (least slope, ties by ascending
    id) and takes the first one with the strictly least finish value
    T + l/v, except that at an equal value on an equal slope the lesser T
    wins. That is the envelope's rule (least value, then least slope, then
    least intercept, then least id), which in float mode also settles two
    machines of one slope whose rounded values tie; in rational mode equal
    values on one slope have equal T, so it changes nothing.
    """
    lengths, _, inv, den = _scaled(instance)

    def by_slope(j):
        return inv[j], j

    if eligibility is None:
        candidates = [sorted(range(instance.m), key=by_slope)] * instance.n
    else:
        candidates = [sorted(machines, key=by_slope) for machines in eligibility]
    T = [lengths[0] - lengths[0]] * instance.m
    assignment = [[] for _ in range(instance.m)]
    order = _job_order(lengths)
    trace = LptTrace(algorithm=name, job_ids=order if record_trace else [])
    for i in order:
        l = lengths[i]
        machines = candidates[i]
        best = machines[0]
        bval = T[best] + l * inv[best]
        for j in machines:
            val = T[j] + l * inv[j]
            if val <= bval:
                if val < bval or (inv[j] == inv[best] and T[j] < T[best]):
                    best, bval = j, val
        if record_trace:
            trace.machine_ids.append(best)
            trace.after.append(bval)
        T[best] = bval
        assignment[best].append(i)
    trace.after = _finish_times(trace.after, den)
    trace.counters = {"machine_scans": sum(map(len, candidates))}
    trace.schedule = build_schedule(instance, assignment)
    return trace


def lpt_naive(instance: Instance, record_trace: bool = True) -> LptTrace:
    """Textbook LPT for uniform machines: scan all m machines per job, O(mn).

    One code path for both numeric modes; this is the baseline the envelope
    implementation is benchmarked against.
    """
    if instance.kind is not Kind.USP:
        raise UsageError("lpt_naive expects a USP instance")
    return _scan_lpt(instance, "lpt-naive", None, record_trace)


def _envelope_lpt(instance: Instance, admission_order: Sequence[int], name: str,
                  record_trace: bool) -> LptTrace:
    """Shared core of the fast and drone paths.

    Machines enter the envelope in ``admission_order`` as soon as their
    battery covers the current job; since jobs shrink monotonically, the
    admission pointer only advances, and the machines it passes for one job
    enter as one ``insert`` batch. The jobs up to the next admission form a
    run (one run of n jobs for lpt-fast, at most m + 1 runs for dwp-lpt),
    placed by one ``LowerEnvelope.raise_each`` call per chunk of at most
    ``_CHUNK`` of its jobs, so without a trace no list of n values is built.
    Each step picks the job's machine and raises its line to the new finish
    time; query points only shrink, so it replays one leaf-to-root path at
    the job's length plus the nodes beside it that shrinking invalidated.
    A trace keeps the machines and finish times ``raise_each`` returns. The
    sweep decides feasibility: it raises if no machine covers the first job.
    """
    m, n = instance.m, instance.n
    lengths, batteries, slopes, den = _scaled(instance)
    if den is not None:  # integer lines: the tournament rounds crossings up
        slopes = list(map(_Slope, slopes))
    zero = lengths[0] - lengths[0]
    assignment = [[] for _ in range(m)]
    order = _job_order(lengths)
    machine_ids, after = [], []
    env = LowerEnvelope()
    ptr = start = 0
    while start < n:
        l = lengths[order[start]]
        first = ptr
        while ptr < m:
            d = batteries[admission_order[ptr]]
            if d is not None and d < l:
                break
            ptr += 1
        if ptr > first:  # a machine is idle until admitted: its line is (slope, 0)
            env.insert(*[(slopes[j], zero, j) for j in admission_order[first:ptr]])
        elif ptr == 0:
            i = order[start]
            raise InfeasibleError(f"no admitted machine can carry job {i} "
                                  f"(length {scalar_to_str(instance.lengths[i])})")
        stop = min(n, start + _CHUNK)
        if ptr < m:  # the next machine's battery d fell short of this job
            k = start + 1
            while k < stop and lengths[order[k]] > d:
                k += 1
            stop = k  # the first job d covers starts the next run
        jobs = order[start:stop]
        machines, values = env.raise_each(list(map(lengths.__getitem__, jobs)))
        if record_trace:
            machine_ids += machines
            after += values
        for i, j in zip(jobs, machines):
            assignment[j].append(i)
        start = stop
    # the envelope ends with the run, so the trace takes its counters as they are
    return LptTrace(name, order if record_trace else [], machine_ids,
                    _finish_times(after, den), build_schedule(instance, assignment),
                    env.counters)


def lpt_fast(instance: Instance, record_trace: bool = True) -> LptTrace:
    """Envelope-based LPT for uniform machines.

    One line per machine, h_j(x) = x/v_j + T_j, all admitted in one batch
    before the first job, so the tournament's leaves lie in slope order and
    each subtree covers one contiguous speed range; all n jobs are one run,
    placed by ``LowerEnvelope.raise_each`` in chunks of at most ``_CHUNK``
    jobs, one LPT step each. The counters report the tournament's
    node replays: tests/test_envelope.py holds them under 1.1x ceil(log2 S)
    per job for S distinct speeds and m = 100 to 4000, with distinct or
    shared speeds (measured 0.97 to 1.02x with distinct speeds, about one
    leaf-to-root path per job). In rational mode the assignment is
    identical to lpt_naive decision for decision.
    """
    if instance.kind is not Kind.USP:
        raise UsageError("lpt_fast expects a USP instance")
    return _envelope_lpt(instance, range(instance.m), "lpt-fast", record_trace)


def dwp_lpt(instance: Instance, record_trace: bool = True) -> LptTrace:
    """Battery-constrained LPT for drone instances.

    Drones sorted by non-increasing battery are admitted by a pointer sweep
    (ties admitted together, ascending id); every produced schedule respects
    all battery limits by construction. The sweep, not a pre-pass, raises
    InfeasibleError if no drone can carry the longest parcel.
    """
    if instance.kind is not Kind.DWP:
        raise UsageError("dwp_lpt expects a DWP instance")
    return _envelope_lpt(instance, battery_order(instance), "dwp-lpt", record_trace)


def lpt_restricted(instance: Instance, record_trace: bool = True) -> LptTrace:
    """LPT over arbitrary per-job eligibility sets (naive scan per job)."""
    if instance.kind is not Kind.RESTRICTED:
        raise UsageError("lpt_restricted expects a RESTRICTED instance")
    return _scan_lpt(instance, "lpt-restricted", instance.eligibility, record_trace)


SCHEDULERS = {
    "lpt-naive": lpt_naive,
    "lpt-fast": lpt_fast,
    "lpt-restricted": lpt_restricted,
    "dwp-lpt": dwp_lpt,
}


def run_scheduler(name: str, instance: Instance, record_trace: bool = True) -> LptTrace:
    try:
        fn = SCHEDULERS[name]
    except KeyError:
        raise UsageError(f"unknown scheduler {name!r}; pick one of {sorted(SCHEDULERS)}")
    return fn(instance, record_trace=record_trace)
