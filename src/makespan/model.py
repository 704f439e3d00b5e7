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
from typing import Optional, Sequence

from .errors import UsageError
from .numeric import Mode, Scalar, mode_of, scalar_to_str


class Kind(enum.Enum):
    USP = "USP"
    DWP = "DWP"
    RESTRICTED = "RESTRICTED"


@dataclass(frozen=True)
class Machine:
    """One machine/drone: positive speed, optional battery range (None = unbounded)."""

    id: int
    speed: Scalar
    battery: Optional[Scalar] = None


@dataclass(frozen=True)
class Job:
    """One job/parcel: positive length (round-trip distance or processing size)."""

    id: int
    length: Scalar


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
        # 0 < x < inf also rejects nan
        for j, v in enumerate(self.speeds):
            if not 0 < v < math.inf:
                raise UsageError(f"machine {j}: speed must be finite and > 0, "
                                 f"got {scalar_to_str(v)}")
        for j, d in enumerate(self.batteries):
            if d is not None and not 0 < d < math.inf:
                raise UsageError(f"machine {j}: battery must be finite and > 0, "
                                 f"got {scalar_to_str(d)}")
        for i, l in enumerate(self.lengths):
            if not 0 < l < math.inf:
                raise UsageError(f"job {i}: length must be finite and > 0, "
                                 f"got {scalar_to_str(l)}")
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

    @property
    def m(self) -> int:
        return len(self.speeds)

    @property
    def n(self) -> int:
        return len(self.lengths)

    @property
    def mode(self) -> Mode:
        return mode_of(self.speeds[0])

    def machine(self, j: int) -> Machine:
        return Machine(j, self.speeds[j], self.batteries[j])

    def job(self, i: int) -> Job:
        return Job(i, self.lengths[i])

    def machines(self):
        return [self.machine(j) for j in range(self.m)]

    def jobs(self):
        return [self.job(i) for i in range(self.n)]

    def eligible_machines(self, i: int):
        """Machine ids allowed for job i, in ascending id order."""
        if self.kind is Kind.RESTRICTED:
            return sorted(self.eligibility[i])
        if self.kind is Kind.DWP:
            l = self.lengths[i]
            return [j for j in range(self.m)
                    if self.batteries[j] is None or self.batteries[j] >= l]
        return list(range(self.m))

    @classmethod
    def from_machines_jobs(cls, kind, machines: Sequence[Machine], jobs: Sequence[Job],
                           eligibility=None) -> "Instance":
        machines = sorted(machines, key=lambda mc: mc.id)
        jobs = sorted(jobs, key=lambda jb: jb.id)
        if [mc.id for mc in machines] != list(range(len(machines))):
            raise UsageError("machine ids must be 0..m-1")
        if [jb.id for jb in jobs] != list(range(len(jobs))):
            raise UsageError("job ids must be 0..n-1")
        return cls(
            kind=kind,
            speeds=tuple(mc.speed for mc in machines),
            batteries=tuple(mc.battery for mc in machines),
            lengths=tuple(jb.length for jb in jobs),
            eligibility=None if eligibility is None else tuple(frozenset(e) for e in eligibility),
        )


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


def build_schedule(instance: Instance, assignment: Sequence[Sequence[int]]) -> Schedule:
    """Construct a Schedule from raw per-machine job lists, recomputing loads."""
    if len(assignment) != instance.m:
        raise UsageError(f"assignment has {len(assignment)} machine slots, expected {instance.m}")
    zero = instance.lengths[0] - instance.lengths[0]
    loads = []
    for j in range(instance.m):
        load = zero
        for i in assignment[j]:
            if not 0 <= i < instance.n:
                raise UsageError(f"machine {j}: unknown job id {i}")
            load += instance.lengths[i]
        loads.append(load)
    span = max(loads[j] / instance.speeds[j] for j in range(instance.m))
    return Schedule(
        assignment=tuple(tuple(a) for a in assignment),
        loads=tuple(loads),
        makespan=span,
    )


def validate(instance: Instance, schedule: Schedule) -> ValidationReport:
    """Check every schedule invariant; the report lists each violation found.

    Covered: partition (each job exactly once), battery limits, eligibility,
    and recomputation of the stored loads and makespan. Dangling ids raise
    instead of being reported, since the schedule is structurally broken.
    """
    report = ValidationReport()
    if len(schedule.assignment) != instance.m:
        raise UsageError("schedule does not match instance machine count")

    seen = [0] * instance.n
    for j, jobs in enumerate(schedule.assignment):
        for i in jobs:
            if not 0 <= i < instance.n:
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
                if instance.lengths[i] > d:
                    report.add("battery", f"job {i} (length {scalar_to_str(instance.lengths[i])})"
                                          f" exceeds machine {j} battery {scalar_to_str(d)}")
        if instance.kind is Kind.RESTRICTED:
            for i in jobs:
                if j not in instance.eligibility[i]:
                    report.add("eligibility", f"job {i} not eligible on machine {j}")

    zero = instance.lengths[0] - instance.lengths[0]
    worst = None
    for j, jobs in enumerate(schedule.assignment):
        load = zero
        for i in jobs:
            load += instance.lengths[i]
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
    """Max over machines of load/speed; raises UsageError if the schedule is invalid."""
    report = validate(instance, schedule)
    if not report.ok:
        raise UsageError(f"invalid schedule: {report.violations[:3]}")
    return max(schedule.loads[j] / instance.speeds[j] for j in range(instance.m))


def battery_order(instance: Instance) -> list:
    """Machine ids by non-increasing battery range, unbounded (None) first and
    ties in ascending id order."""
    batteries = instance.batteries
    return sorted(range(instance.m), reverse=True,
                  key=lambda j: math.inf if batteries[j] is None else batteries[j])


def feasibility_check(instance: Instance) -> bool:
    """Linear-time feasibility: some machine can carry the largest job.

    USP instances are always feasible. DWP needs max battery >= max length.
    RESTRICTED needs every eligibility set nonempty (enforced at construction,
    rechecked here).
    """
    if instance.kind is Kind.USP:
        return True
    if instance.kind is Kind.RESTRICTED:
        return all(instance.eligibility[i] for i in range(instance.n))
    best = None
    for d in instance.batteries:
        if d is None:
            return True
        if best is None or d > best:
            best = d
    longest = instance.lengths[0]
    for l in instance.lengths:
        if l > longest:
            longest = l
    return best >= longest
