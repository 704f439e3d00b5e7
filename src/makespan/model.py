"""Problem instances (machines/drones + jobs/parcels), schedules, and validation.

Three instance kinds share one representation:

* ``USP``        -- machines differ only by speed; batteries unbounded.
* ``DWP``        -- per-machine battery range d; job i fits machine j iff l_i <= d_j.
* ``RESTRICTED`` -- arbitrary per-job eligible-machine sets.

Machines and jobs keep their input order and 0-based ids; algorithms sort
index permutations so outputs can always be reported in input order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import attrgetter, mul, truediv
from typing import NamedTuple, Optional, Sequence

from .errors import UsageError
from .numeric import Scalar, exact_ints, scalar_to_str


class Kind(enum.Enum):
    USP = "USP"
    DWP = "DWP"
    RESTRICTED = "RESTRICTED"


def _check_scalars(values: tuple, scalar: type, what: str, optional: bool = False) -> None:
    """Raise UsageError unless every value is a finite, positive ``scalar``
    (or None, if ``optional``); ``what`` names a value by its index, as in
    "job {}: length". 0 < x < inf also rejects nan.

    A block of exact ``scalar`` values is accepted in a few C-level passes;
    the value-by-value scan runs only to name the first bad value."""
    inf = math.inf
    types = set(map(type, values))
    if types == {scalar}:
        if scalar is float:
            # a nan or an inf makes the sum nan or inf; an overflowing sum of
            # finite values sends the block to the scan, which accepts it, and
            # Instance rejects lengths whose sum overflows
            if 0 < min(values) and sum(values) < inf:
                return
        elif min(map(attrgetter("numerator"), values)) > 0:  # a Fraction is finite
            return
    elif optional and types == {type(None)}:
        return
    for x in values:
        if not (isinstance(x, scalar) and 0 < x < inf) and not (optional and x is None):
            # the first bad value: no earlier position holds the same object
            where = what.format(next(k for k, y in enumerate(values) if y is x))
            if not isinstance(x, scalar):
                raise UsageError(f"{where} {x!r} is not a {scalar.__name__} like the "
                                 f"first speed: an instance holds floats only or "
                                 f"Fractions only")
            raise UsageError(f"{where} must be finite and > 0, got {scalar_to_str(x)}")


class ExactScaling(NamedTuple):
    """A rational instance on integers: length l_i = lengths[i] / L, battery
    d_j = batteries[j] / L (None: unbounded) and 1 / v_j = slopes[j] / P. A
    finish time T is then the integer T * L * P, and job i on machine j
    adds lengths[i] * slopes[j] to it."""

    lengths: list
    batteries: list
    slopes: list
    L: int
    P: int


@dataclass(frozen=True)
class Instance:
    """An immutable scheduling instance.

    ``speeds``, ``batteries`` and ``lengths`` are parallel tuples indexed by
    machine/job id; ``eligibility`` is a per-job tuple of frozensets for
    RESTRICTED instances and None otherwise.
    """

    kind: Kind
    speeds: tuple
    batteries: tuple
    lengths: tuple
    eligibility: Optional[tuple] = None

    def __post_init__(self):
        if not self.speeds:
            raise UsageError("instance needs at least one machine")
        if not self.lengths:
            raise UsageError("instance needs at least one job")
        m = len(self.speeds)
        if len(self.batteries) != m:
            raise UsageError(f"instance needs one battery per machine, got "
                             f"{len(self.batteries)} for {m} machines")
        if self.kind is not Kind.DWP and self.batteries.count(None) != m:
            raise UsageError(f"only DWP instances have batteries, not {self.kind.value}")
        # one numeric mode throughout: the one of the first speed
        scalar = Fraction if isinstance(self.speeds[0], Fraction) else float
        _check_scalars(self.speeds, scalar, "machine {}: speed")
        _check_scalars(self.batteries, scalar, "machine {}: battery", optional=True)
        _check_scalars(self.lengths, scalar, "job {}: length")
        if self.kind is Kind.RESTRICTED:
            if self.eligibility is None or len(self.eligibility) != len(self.lengths):
                raise UsageError("RESTRICTED instance needs one eligibility set per job")
            for i, elig in enumerate(self.eligibility):
                if not elig:
                    raise UsageError(f"job {i}: empty eligibility set")
                bad = [j for j in elig if not 0 <= j < len(self.speeds)]
                if bad:
                    raise UsageError(f"job {i}: unknown machine ids {sorted(bad)}")
        elif self.eligibility is not None:
            raise UsageError("eligibility sets are only valid for RESTRICTED instances")
        # fast path: every job on the slowest machine finishes in f64
        if scalar is float and not sum(self.lengths) / min(self.speeds) < math.inf:
            self._check_finish_times()

    def _check_finish_times(self) -> None:
        """Raise UsageError unless the lengths sum to a finite value and so,
        over its speed, do the lengths each machine can take: no finish time,
        load or bound then overflows f64. O(n log n + m log m) for DWP, one
        sweep over the sorted batteries; O(sum of |E_i|) for RESTRICTED."""
        lengths, m = self.lengths, self.m
        total = sum(lengths)
        if not total < math.inf:
            raise UsageError("finish times overflow f64: the sum of the lengths "
                             "is not finite")
        # the sum of the lengths each machine can take
        takes = [0.0 if self.kind is Kind.RESTRICTED else total] * m
        if self.kind is Kind.DWP:
            ascending, k, acc = sorted(lengths), 0, 0.0
            for d, j in sorted((d, j) for j, d in enumerate(self.batteries) if d is not None):
                while k < len(ascending) and ascending[k] <= d:
                    acc += ascending[k]
                    k += 1
                takes[j] = acc
        elif self.kind is Kind.RESTRICTED:
            for length, machines in zip(lengths, self.eligibility):
                for j in machines:
                    takes[j] += length
        for j, (load, speed) in enumerate(zip(takes, self.speeds)):
            if not load / speed < math.inf:
                raise UsageError(f"finish times overflow f64: the lengths machine {j} "
                                 f"can take, over its speed, do not sum to a finite value")

    @property
    def m(self) -> int:
        return len(self.speeds)

    @property
    def n(self) -> int:
        return len(self.lengths)

    @cached_property
    def exact(self) -> ExactScaling:
        """The instance scaled to integers, computed once: the LPT loops and
        ``build_schedule`` decide on it in rational mode, the oracle in both.
        L is the lcm of the length and battery denominators, P that of the
        speed numerators (of a float's exact ratio in float mode)."""
        n = self.n
        ints, L = exact_ints(self.lengths + self.batteries)
        slopes, P = exact_ints(self.speeds, invert=True)
        return ExactScaling(ints[:n], ints[n:], slopes, L, P)


@dataclass(frozen=True)
class Schedule:
    """A partition of jobs among machines with cached loads and makespan.

    ``assignment[j]`` lists job ids in the order they were assigned to
    machine j; ``loads[j]`` is the total assigned length on machine j.
    """

    assignment: tuple
    loads: tuple
    makespan: Scalar


@dataclass
class ValidationReport:
    """Outcome of checking a schedule against its instance; empty == valid."""

    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, detail: str) -> None:
        self.violations.append((kind, detail))


def build_schedule(instance: Instance, assignment: Sequence[Sequence[int]],
                   sums=None) -> Schedule:
    """Construct a Schedule from raw per-machine job lists, recomputing loads:
    added left to right in float mode, and in rational mode summed and
    compared as the integers of ``Instance.exact``, then made Fractions.
    A run that placed every job once passes ``sums``, the per-machine sums
    of ``decided_on``'s lengths in the order it added them: its job ids are
    then not checked, and no load is recomputed."""
    if len(assignment) != instance.m:
        raise UsageError(f"assignment has {len(assignment)} machine slots, expected {instance.m}")
    lengths = instance.lengths
    floats = isinstance(lengths[0], float)
    if sums is None:
        ids = [i for jobs in assignment for i in jobs]
        n = len(lengths)
        if ids and (min(ids) < 0 or max(ids) >= n):
            j, i = next((j, i) for j, jobs in enumerate(assignment)
                        for i in jobs if not 0 <= i < n)
            raise UsageError(f"machine {j}: unknown job id {i}")
        if floats:
            sums = _loads(lengths, assignment)
        else:
            scaled = instance.exact.lengths
            sums = [sum(map(scaled.__getitem__, jobs)) for jobs in assignment]
    if floats:
        loads, makespan = sums, max(map(truediv, sums, instance.speeds))
    else:  # compare integers, then map back to Fractions
        exact = instance.exact
        makespan = Fraction(max(map(mul, sums, exact.slopes)), exact.L * exact.P)
        loads = map(Fraction, sums, repeat(exact.L))
    return Schedule(tuple(map(tuple, assignment)), tuple(loads), makespan)


def _loads(lengths: tuple, assignment) -> list:
    """Per-machine sums of the assigned lengths, each added left to right (an
    explicit loop: from Python 3.12 on, sum() compensates float rounding)."""
    zero = lengths[0] - lengths[0]
    loads = []
    for jobs in assignment:
        load = zero
        for i in jobs:
            load += lengths[i]
        loads.append(load)
    return loads


def validate(instance: Instance, schedule: Schedule) -> ValidationReport:
    """Check every schedule invariant; the report lists each violation found.

    Covered: partition (each job exactly once), battery limits, eligibility,
    and recomputation of the stored loads and makespan. Dangling ids raise
    instead of being reported, since the schedule is structurally broken.
    """
    report = ValidationReport()
    if len(schedule.assignment) != instance.m:
        raise UsageError("schedule does not match instance machine count")

    lengths, n = instance.lengths, instance.n
    seen = [0] * n
    for j, jobs in enumerate(schedule.assignment):
        for i in jobs:
            if not 0 <= i < n:
                raise UsageError(f"machine {j}: dangling job id {i}")
            seen[i] += 1
    for i, count in enumerate(seen):
        if count == 0:
            report.add("partition", f"job {i} is unassigned")
        elif count > 1:
            report.add("partition", f"job {i} assigned {count} times")

    for j, jobs in enumerate(schedule.assignment):
        d = instance.batteries[j]
        if d is not None:
            for i in jobs:
                if lengths[i] > d:
                    report.add("battery", f"job {i} (length {scalar_to_str(lengths[i])})"
                                          f" exceeds machine {j} battery {scalar_to_str(d)}")
        if instance.kind is Kind.RESTRICTED:
            for i in jobs:
                if j not in instance.eligibility[i]:
                    report.add("eligibility", f"job {i} not eligible on machine {j}")

    worst = None
    for j, load in enumerate(_loads(lengths, schedule.assignment)):
        if load != schedule.loads[j]:
            report.add("load", f"machine {j}: stored load {scalar_to_str(schedule.loads[j])}"
                               f" != recomputed {scalar_to_str(load)}")
        finish = load / instance.speeds[j]
        if worst is None or finish > worst:
            worst = finish
    if worst != schedule.makespan:
        report.add("makespan", f"stored makespan {scalar_to_str(schedule.makespan)}"
                               f" != recomputed {scalar_to_str(worst)}")
    return report


def makespan(instance: Instance, schedule: Schedule) -> Scalar:
    """Max over machines of load/speed; raises UsageError if the schedule is
    invalid. ``validate`` checks the stored ``schedule.makespan`` is that max."""
    report = validate(instance, schedule)
    if not report.ok:
        raise UsageError(f"invalid schedule: {report.violations[:3]}")
    return schedule.makespan


def decided_on(instance: Instance) -> tuple:
    """(lengths, batteries, slopes, den): the numbers a run decides on. A
    float instance's own floats and slopes 1/v, with den None, or a rational
    one's integers from ``Instance.exact``, whose finish values are the
    finish times times den = L * P. Those order as the Fractions do, and
    compare in C rather than in one Python call per comparison."""
    speeds = instance.speeds
    if isinstance(speeds[0], float):
        return instance.lengths, instance.batteries, [1 / v for v in speeds], None
    exact = instance.exact
    return exact.lengths, exact.batteries, exact.slopes, exact.L * exact.P


def job_order(lengths) -> list:
    """LPT's job order: ids by non-increasing length, ties by ascending id."""
    return sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)  # stable


def candidate_machines(instance: Instance, lengths, batteries, slopes) -> list:
    """Each job's machines fastest first (least slope, ties by ascending id):
    for RESTRICTED its eligibility set, in O(|E_i| log |E_i|); for USP all
    of them, one list for every job; for DWP those whose battery covers it."""
    if instance.kind is Kind.RESTRICTED:  # sorted() is stable: ids settle ties
        return [sorted(sorted(machines), key=slopes.__getitem__)
                for machines in instance.eligibility]
    by_slope = sorted(range(instance.m), key=slopes.__getitem__)
    if instance.kind is Kind.USP:
        return [by_slope] * instance.n
    return [[j for j in by_slope if batteries[j] is None or l <= batteries[j]]
            for l in lengths]


def battery_order(instance: Instance) -> list:
    """Machine ids by non-increasing battery range, unbounded (None) first and
    ties in ascending id order. A rational instance is sorted by its integer
    batteries from ``Instance.exact``, a float one by its floats."""
    _, batteries, _, _ = decided_on(instance)
    return sorted(range(instance.m), reverse=True,
                  key=lambda j: math.inf if batteries[j] is None else batteries[j])


def admissions(lengths, batteries, order, queue) -> list:
    """LPT's admission schedule: (k, machines) pairs, k ascending. The
    machines of ``queue`` enter in that order, each at the first job of the
    LPT ``order`` that its battery covers (None covers every job), and none
    before the machines ahead of it; ``machines`` lists those that enter
    just before job order[k]. A machine that covers no job never enters."""
    schedule, k, n = [], 0, len(order)
    batch = None
    for j in queue:
        d = batteries[j]
        if d is not None and lengths[order[k]] > d:
            k += 1
            while k < n and lengths[order[k]] > d:
                k += 1
            if k == n:
                break
            batch = None
        if batch is None:
            batch = []
            schedule.append((k, batch))
        batch.append(j)
    return schedule


def feasibility_check(instance: Instance) -> bool:
    """Linear-time feasibility: some machine can carry the largest job.

    Only a DWP instance can be infeasible: it needs an unbounded drone or
    max battery >= max length, compared as the integers of
    ``Instance.exact`` in rational mode and as the floats in float mode.
    USP has no limits, and ``Instance`` rejects an empty RESTRICTED
    eligibility set. The oracle asks this up front; ``dwp_lpt`` does not,
    as its battery sweep raises on the first parcel that no drone can carry.
    """
    if instance.kind is not Kind.DWP:
        return True
    lengths, batteries, _, _ = decided_on(instance)
    return None in batteries or max(batteries) >= max(lengths)
