"""Ground truth: exhaustive optimal schedules, makespan lower bounds, the
half-integral rounding function, and exact golden-ratio comparisons.

The golden ratio phi = (1+sqrt 5)/2 satisfies phi^2 = phi + 1, so "x <= phi"
for rational x = p/q >= 0 is decided exactly by the integer test
p^2 <= (p + q) q, that is x^2 <= x + 1 - no irrational constant ever enters a
rational-mode comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub

from . import scheduler
from .errors import InfeasibleError, SizeGuardError, UsageError
from .model import (Instance, Kind, Schedule, admissions, battery_order,
                    build_schedule, candidate_machines, decided_on,
                    feasibility_check, job_order)
from .numeric import Scalar, scalar_to_str

PHI = (1.0 + math.sqrt(5.0)) / 2.0

#: Exhaustive search refuses instances with more than this many assignments.
BRUTE_FORCE_GUARD = 10 ** 8


def exceeds_guard(m: int, n: int) -> bool:
    """m ** n > BRUTE_FORCE_GUARD, building the power only for n below the
    guard's bit length b: m >= 2 and n >= b give m ** n >= 2 ** b > guard."""
    return m > 1 and (n >= BRUTE_FORCE_GUARD.bit_length() or m ** n > BRUTE_FORCE_GUARD)


def le_phi(x: Scalar) -> bool:
    """x <= phi, exact for rationals: x = p/q (q > 0) passes iff p < 0 or
    p^2 <= (p + q) q, which is x^2 <= x + 1 on integers."""
    if isinstance(x, Fraction):
        p, q = x.numerator, x.denominator
        return p < 0 or p * p <= (p + q) * q
    return x <= PHI


def lt_phi(x: Scalar) -> bool:
    """x < phi, exact for rationals (x = phi cannot occur for rational x)."""
    if isinstance(x, Fraction):
        return le_phi(x)
    return x < PHI


def round_r(x: Scalar) -> Scalar:
    """Half-integral rounding: 1 on [1, phi), 3/2 on [phi, 2), floor(x) above.

    Satisfies x/phi <= round_r(x) <= x for all x >= 1. Rational in, rational
    out; float in, float out.
    """
    exact = isinstance(x, Fraction)
    if x < 1:
        raise UsageError(f"round_r needs x >= 1, got {scalar_to_str(x)}")
    if lt_phi(x):
        return Fraction(1) if exact else 1.0
    if x < 2:
        return Fraction(3, 2) if exact else 1.5
    if exact:
        return Fraction(x.numerator // x.denominator)
    return float(math.floor(x))


def _fits(jobs, choices, lengths, twin, loads, caps, vec) -> bool:
    """Depth-first search: place jobs[k] on a machine of choices[k], for
    k = 0, 1, ... in turn, keeping every load within its cap. True once all
    jobs are placed, with vec[i] the machine of job i; loads is restored.

    Machine j is skipped while twin[j] < j carries the same load: swapping
    the two machines' later jobs maps one subtree onto the other. The spare
    room (room left on the machines that can still take the shortest job,
    minus the length still to place) never falls below zero on a branch
    that can be completed.
    """
    last = len(jobs)
    shortest = min(map(lengths.__getitem__, jobs))

    def place(k: int, spare: int) -> bool:
        if k == last:
            return True
        i = jobs[k]
        l = lengths[i]
        for j in choices[k]:
            load = loads[j]
            room = caps[j] - load - l
            if room < 0 or twin[j] < j and loads[twin[j]] == load:
                continue
            if room >= shortest:
                rest = spare
            elif room <= spare:
                rest = spare - room  # j can take no further job
            else:
                continue
            loads[j] = load + l
            vec[i] = j
            done = place(k + 1, rest)
            loads[j] = load
            if done:
                return True
        return False

    rooms = map(sub, caps, loads)
    spare = sum(filter(shortest.__le__, rooms)) - sum(map(lengths.__getitem__, jobs))
    try:
        return spare >= 0 and place(0, spare)
    finally:
        del place  # it refers to itself: break the cycle, leave no garbage


def brute_force_opt(instance: Instance) -> Schedule:
    """Exact minimum-makespan schedule: among the optimal assignment vectors
    (job i on machine v[i]), the lexicographically smallest.

    The value pass finds the optimum and a witness. The vector pass then
    fixes jobs in id order: job i tries only the machines below the
    witness's machine, in id order, each checked by a longest-first
    completion search within the optimum. The first that passes, with its
    completion, becomes the new witness; if none does, job i keeps the
    witness's machine."""
    best, vec, (eligible, twin, order) = optimum_value(instance)
    exact = instance.exact
    lengths = exact.lengths
    caps = [best // s for s in exact.slopes]
    loads = [0] * instance.m  # jobs 0..i-1 on their final machines
    for i, l in enumerate(lengths):
        below = [j for j in eligible[i] if j < vec[i] and loads[j] + l <= caps[j]]
        if below:
            below.sort()
            free = [k for k in order if k > i]
            trial = vec.copy()
            if _fits([i] + free, [below] + [eligible[k] for k in free],
                     lengths, twin, loads, caps, trial):
                vec = trial
        loads[vec[i]] += l
    assignment = [[] for _ in range(instance.m)]
    for i, j in enumerate(vec):
        assignment[j].append(i)
    return build_schedule(instance, assignment)


def optimum_value(instance: Instance, incumbent=None) -> tuple:
    """(F, vec, (eligible, twin, order)): the value pass. F is the optimum
    makespan as a finish value of ``Instance.exact`` (makespan * L * P),
    vec an optimal witness (job i on machine vec[i]), and the rest the
    search space the vector pass reuses.

    The search decides on ``Instance.exact`` in both modes (a float is a
    dyadic rational, so float mode is searched exactly, without a
    tolerance): machine j's finish value is its integer load times
    slopes[j]. Jobs are branched in LPT's order (``job_order``), each over
    its machines fastest first (``candidate_machines``). A valid schedule
    seeds the bound F: ``incumbent``, its (vec, F), if the caller has one
    (``ratio_report`` passes the run under test's, so the instance is
    feasible and the caller has checked the size guard), else LPT's own,
    the scan ``scheduler.lpt_scan`` over the same candidates, after the
    feasibility check and the guard. The search then looks for a schedule
    strictly below F, capping machine j's load at (F - 1) // slopes[j], so
    ties prune as well as losses, and starts again below each one it finds
    until none is left.

    Identical machines: the search skips machine j while the last machine
    before j with the same slope and battery (USP and DWP only) carries the
    same load. A call without an incumbent is guarded to m^n <= 10^8 raw
    assignments; ``ratio_report`` decides the guard before it passes one.
    """
    n, m = instance.n, instance.m
    if incumbent is None:
        if not feasibility_check(instance):
            raise InfeasibleError("instance has no valid schedule")
        if exceeds_guard(m, n):
            raise SizeGuardError(f"m^n = {m}^{n} exceeds the {BRUTE_FORCE_GUARD:g} guard")

    exact = instance.exact
    lengths, slopes, batteries = exact.lengths, exact.slopes, exact.batteries
    eligible = candidate_machines(instance, lengths, batteries, slopes)
    # twin[j]: the last machine before j with the same slope and battery, or
    # j itself if there is none (always for RESTRICTED instances)
    last_of = {}
    twin = []
    keys = range(m) if instance.kind is Kind.RESTRICTED else zip(slopes, batteries)
    for j, key in enumerate(keys):
        twin.append(last_of.get(key, j))
        last_of[key] = j

    order = job_order(lengths)
    if incumbent is None:
        vec, values = scheduler.lpt_scan(lengths, slopes, eligible, order)
        best = max(values)
    else:
        vec, best = incumbent
    choices = [eligible[i] for i in order]
    while True:
        trial = vec.copy()
        caps = [(best - 1) // s for s in slopes]
        if not _fits(order, choices, lengths, twin, [0] * m, caps, trial):
            return best, vec, (eligible, twin, order)
        vec = trial
        loads = [0] * m
        for i, j in enumerate(vec):
            loads[j] += lengths[i]
        best = max(map(mul, loads, slopes))


def makespan_lower_bound(instance: Instance) -> Scalar:
    """max(total-work bound, per-job bound); never exceeds the true optimum.

    Total work: sum(l) / sum(v). Per job: l_i over the fastest machine
    eligible for job i (for drones, dwp-lpt's admission schedule
    ``model.admissions`` keeps this near-linear instead of O(nm)).
    """
    if not feasibility_check(instance):
        raise InfeasibleError("instance has no valid schedule")
    lengths, speeds = instance.lengths, instance.speeds
    total_l = sum(lengths[1:], lengths[0])
    total_v = sum(speeds[1:], speeds[0])
    bound = total_l / total_v

    if instance.kind is Kind.USP:
        per_job = max(lengths) / max(speeds)
        return per_job if per_job > bound else bound

    if instance.kind is Kind.RESTRICTED:
        for i in range(instance.n):
            fastest = max(speeds[j] for j in instance.eligibility[i])
            per_job = lengths[i] / fastest
            if per_job > bound:
                bound = per_job
        return bound

    # DWP: dwp-lpt's admission schedule; until the next batch enters, the
    # fastest admitted speed is fixed, so the batch's first job bounds most.
    scaled, batteries, _, _ = decided_on(instance)
    order = job_order(scaled)
    fastest = None
    for k, drones in admissions(scaled, batteries, order, battery_order(instance)):
        v = max(map(speeds.__getitem__, drones))
        if fastest is None or v > fastest:
            fastest = v
        per_job = lengths[order[k]] / fastest
        if per_job > bound:
            bound = per_job
    return bound


@dataclass
class RatioReport:
    """One algorithm-vs-optimum comparison on a single instance."""

    instance_id: str
    algorithm: str
    alg_makespan: Scalar
    opt_value: Scalar
    ratio: Scalar
    opt_method: str  # "brute-force" or "lower-bound"

    def to_json_line(self) -> str:
        return json.dumps({
            "instance": self.instance_id,
            "algorithm": self.algorithm,
            "alg_makespan": scalar_to_str(self.alg_makespan),
            "opt_value": scalar_to_str(self.opt_value),
            "ratio": scalar_to_str(self.ratio),
            "ratio_float": float(self.ratio),
            "opt_method": self.opt_method,
        })


def ratio_report(instance: Instance, algorithm: str,
                 instance_id: str = "") -> RatioReport:
    """Run a scheduler and compare against brute force (within the size
    guard) or the makespan lower bound. A rational optimum is the value
    pass's finish value F over L * P, and the ratio the scheduler's finish
    value over F; the value pass starts below the run's own schedule, which
    it takes as its incumbent, so it checks neither feasibility nor the
    guard again and scans no LPT seed of its own. A float optimum is the
    optimal schedule's makespan, rounded as ``build_schedule`` rounds it.
    The scheduler is looked up in its module at each call, so a patched
    ``scheduler.run_scheduler`` is the one run."""
    schedule = scheduler.run_scheduler(algorithm, instance, record_trace=False).schedule
    alg_span = schedule.makespan
    method = "brute-force"
    if exceeds_guard(instance.m, instance.n):
        opt, method = makespan_lower_bound(instance), "lower-bound"
        ratio = alg_span / opt
    elif isinstance(alg_span, float):
        opt = brute_force_opt(instance).makespan
        ratio = alg_span / opt
    else:
        scale = instance.exact.L * instance.exact.P
        alg = alg_span.numerator * (scale // alg_span.denominator)  # its finish value
        vec = [0] * instance.n
        for j, jobs in enumerate(schedule.assignment):
            for i in jobs:
                vec[i] = j
        best, _, _ = optimum_value(instance, (vec, alg))
        opt = Fraction(best, scale)
        ratio = Fraction(alg, best)
    return RatioReport(
        instance_id=instance_id,
        algorithm=algorithm,
        alg_makespan=alg_span,
        opt_value=opt,
        ratio=ratio,
        opt_method=method,
    )
