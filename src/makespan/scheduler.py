"""The LPT variants, in two loops.

Every variant assigns jobs in non-increasing length order (ties by ascending
job id) to the machine minimizing the resulting finish time, with one shared
tie rule: least finish value, then greatest speed, then least current finish
time, then least machine id.

* ``lpt_scan`` is the O(mn) scan of ``lpt-naive`` (every machine is a
  candidate) and ``lpt-restricted`` (the job's eligibility set); the oracle
  seeds its search with it too;
* ``_envelope_lpt`` places the jobs with one ``raise_each`` call per chunk
  of at most ``_CHUNK`` jobs on the kinetic tournament of
  ``envelope.LowerEnvelope``, for ``lpt-fast`` (every machine admitted up
  front) and ``dwp-lpt`` (drones admitted in battery order, each batch
  between two steps of a call).

Rational mode runs both loops on integers. ``model.decided_on`` hands them
the instance's one exact scaling, ``Instance.exact``: lengths and batteries
over the lcm L of their denominators, and slopes P/v over the lcm P of the
speed numerators. Every query point, slope and finish value is then an
integer, a finish value being the finish time times L * P, so the job sort,
the battery sweep and every LPT comparison compare integers, which decide as
the Fractions would: the scaling is positive. In the tournament the crossing
c of two integer lines is rounded up (``_Slope``); at an integer query point
X, X < c exactly when X < ceil(c), so it decides exactly too. A trace's
finish times become Fractions only at the end, F / (L * P).
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .envelope import LowerEnvelope
from .errors import InfeasibleError, UsageError
from .model import (Instance, Kind, Schedule, admissions, battery_order,
                    build_schedule, candidate_machines, decided_on, job_order)
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


def _finish_times(values: list, den) -> list:
    """The finish times of decision values: themselves in float mode."""
    return values if den is None else [Fraction(v, den) for v in values]


def lpt_scan(lengths, slopes, candidates, order) -> tuple:
    """(machine, value), both indexed by job id: LPT's O(mn) scan, placing
    the jobs in ``order``. Job i scans ``candidates[i]`` (fastest first:
    least slope, ties by ascending id) and takes the first machine with the
    strictly least finish value T + l * slope, except that at an equal value
    on an equal slope the lesser T wins; machine[i] is its machine, value[i]
    its new finish value. That is the envelope's rule (least value, then
    least slope, then least intercept, then least id), which in float mode
    also settles two machines of one slope whose rounded values tie; on
    integers equal values on one slope have equal T, so it changes nothing.

    lpt-naive and lpt-restricted run it on ``decided_on``'s numbers, the
    oracle's seed on ``Instance.exact`` in both modes.
    """
    T = [lengths[0] - lengths[0]] * len(slopes)
    machine = [0] * len(lengths)
    value = machine.copy()
    for i in order:
        l = lengths[i]
        machines = iter(candidates[i])
        best = next(machines)
        bval = T[best] + l * slopes[best]
        for j in machines:  # the rest of the candidates
            val = T[j] + l * slopes[j]
            if val <= bval:
                if val < bval or (slopes[j] == slopes[best] and T[j] < T[best]):
                    best, bval = j, val
        T[best] = value[i] = bval
        machine[i] = best
    return machine, value


def _scan_lpt(instance: Instance, name: str, record_trace: bool) -> LptTrace:
    """lpt-naive (every machine is a candidate) and lpt-restricted (the
    job's eligibility set): ``lpt_scan`` on ``decided_on``'s numbers."""
    lengths, batteries, slopes, den = decided_on(instance)
    candidates = candidate_machines(instance, lengths, batteries, slopes)
    order = job_order(lengths)
    machine, value = lpt_scan(lengths, slopes, candidates, order)
    assignment = [[] for _ in range(instance.m)]
    for i in order:
        assignment[machine[i]].append(i)
    ids = order if record_trace else []
    return LptTrace(name, ids, list(map(machine.__getitem__, ids)),
                    _finish_times(list(map(value.__getitem__, ids)), den),
                    build_schedule(instance, assignment),
                    {"machine_scans": sum(map(len, candidates))})


def lpt_naive(instance: Instance, record_trace: bool = True) -> LptTrace:
    """Textbook LPT for uniform machines: scan all m machines per job, O(mn).

    One code path for both numeric modes; this is the baseline the envelope
    implementation is benchmarked against.
    """
    if instance.kind is not Kind.USP:
        raise UsageError("lpt_naive expects a USP instance")
    return _scan_lpt(instance, "lpt-naive", record_trace)


def _collector_paused(run):
    """``run`` with the cyclic garbage collector off, and back on after if it
    was on. An envelope run makes no reference cycles, but its O(m) tracked
    tuples and lists set off full collections that visit every length and
    job id: at n = 10^6 those took about a tenth of ``lpt-fast`` and grew
    faster than n."""
    @functools.wraps(run)
    def paused(*args):
        if not gc.isenabled():
            return run(*args)
        gc.disable()
        try:
            return run(*args)
        finally:
            gc.enable()
    return paused


@_collector_paused
def _envelope_lpt(instance: Instance, admission_order: Sequence[int], name: str,
                  record_trace: bool) -> LptTrace:
    """Shared core of the fast and drone paths.

    Machines enter the envelope in ``admission_order`` as soon as their
    battery covers the current job: the schedule ``model.admissions`` is
    computed once, and the machines that enter before one job form one
    ``insert`` batch. The first batch enters before the first job; the jobs
    are placed by one ``LowerEnvelope.raise_each`` call per chunk of at most
    ``_CHUNK`` jobs, so without a trace no list of n values is built, and
    each later batch enters between two steps of its chunk's call. Each
    step picks the job's machine and raises its line to the new finish
    time; query points only shrink, so it replays one leaf-to-root path at
    the job's length plus the nodes beside it that shrinking invalidated.
    A trace keeps the machines and finish times ``raise_each`` returns.
    Each machine's load is added up as its jobs are placed, so
    ``build_schedule`` neither re-reads the lengths nor checks the job ids.
    The schedule decides feasibility: it raises if no machine covers the
    first job.
    """
    lengths, batteries, slopes, den = decided_on(instance)
    if den is not None:  # integer lines: the tournament rounds crossings up
        slopes = list(map(_Slope, slopes))
    zero = lengths[0] - lengths[0]
    order = job_order(lengths)
    schedule = admissions(lengths, batteries, order, admission_order)
    if not schedule or schedule[0][0]:
        i = order[0]
        raise InfeasibleError(f"no admitted machine can carry job {i} "
                              f"(length {scalar_to_str(instance.lengths[i])})")
    env = LowerEnvelope()
    # a machine is idle until admitted: its line is (slope, 0)
    env.insert(*[(slopes[j], zero, j) for j in schedule[0][1]])
    loads = [zero] * len(slopes)  # added in LPT order, as build_schedule would
    assignment = [[] for _ in loads]
    machine_ids, after = [], []
    b = 1  # the next batch of the schedule
    for start in range(0, len(order), _CHUNK):
        stop = start + _CHUNK
        admit = []  # the chunk's batches, by step within the chunk
        while b < len(schedule) and schedule[b][0] < stop:
            k, machines = schedule[b]
            admit.append((k - start, [(slopes[j], zero, j) for j in machines]))
            b += 1
        jobs = order[start:stop]
        xs = list(map(lengths.__getitem__, jobs))
        machines, values = env.raise_each(xs, admit)
        if record_trace:
            machine_ids += machines
            after += values
        for i, j, x in zip(jobs, machines, xs):  # the chunk's lengths are still in cache
            assignment[j].append(i)
            loads[j] += x
    # the envelope ends with the run, so the trace takes its counters as they are
    return LptTrace(name, order if record_trace else [], machine_ids,
                    _finish_times(after, den), build_schedule(instance, assignment, loads),
                    env.counters)


def lpt_fast(instance: Instance, record_trace: bool = True) -> LptTrace:
    """Envelope-based LPT for uniform machines.

    One line per machine, h_j(x) = x/v_j + T_j, all admitted in one batch
    before the first job, so the tournament's leaves lie in slope order and
    each subtree covers one contiguous speed range; the n jobs are placed by
    ``LowerEnvelope.raise_each`` in chunks of at most ``_CHUNK`` jobs, one
    LPT step each. The counters report the tournament's
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

    Drones sorted by non-increasing battery (ties in ascending id) enter
    the envelope in batches, each just before the first parcel their
    batteries cover, so every produced schedule respects all battery limits
    by construction. The batches enter between the steps of one
    ``raise_each`` call per chunk of ``_CHUNK`` parcels, as in lpt-fast.
    The admission schedule, not a pre-pass, raises InfeasibleError if no
    drone can carry the longest parcel.
    """
    if instance.kind is not Kind.DWP:
        raise UsageError("dwp_lpt expects a DWP instance")
    return _envelope_lpt(instance, battery_order(instance), "dwp-lpt", record_trace)


def lpt_restricted(instance: Instance, record_trace: bool = True) -> LptTrace:
    """LPT over arbitrary per-job eligibility sets (naive scan per job)."""
    if instance.kind is not Kind.RESTRICTED:
        raise UsageError("lpt_restricted expects a RESTRICTED instance")
    return _scan_lpt(instance, "lpt-restricted", record_trace)


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
