"""Ground truth: exhaustive optimal schedules, makespan lower bounds, the
half-integral rounding function, and exact golden-ratio comparisons.

The golden ratio phi = (1+sqrt 5)/2 satisfies phi^2 = phi + 1, so "x <= phi"
for rational x >= 0 is decided exactly by the integer sign test
x^2 <= x + 1 - no irrational constant ever enters a rational-mode comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleError, SizeGuardError, UsageError
from .model import (Instance, Kind, Schedule, battery_order, build_schedule,
                    feasibility_check)
from .numeric import Scalar, exact_ints, scalar_to_str

PHI = (1.0 + math.sqrt(5.0)) / 2.0

#: Exhaustive search refuses instances with more than this many assignments.
BRUTE_FORCE_GUARD = 10 ** 8


def le_phi(x: Scalar) -> bool:
    """x <= phi, exact for rationals (x = phi cannot occur for rational x)."""
    if isinstance(x, Fraction):
        return x < 0 or x * x <= x + 1
    return x <= PHI


def lt_phi(x: Scalar) -> bool:
    """x < phi, exact for rationals."""
    if isinstance(x, Fraction):
        return x < 0 or x * x < x + 1
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


def _last_finish(vec, lengths, speeds):
    """(load, speed) of a machine that finishes last under the assignment
    vector vec (job i on machine vec[i])."""
    loads = [0] * len(speeds)
    for i, j in enumerate(vec):
        loads[j] += lengths[i]
    top, top_v = 0, 1
    for load, v in zip(loads, speeds):
        if load * top_v > top * v:
            top, top_v = load, v
    return top, top_v


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

    rooms = [cap - load for cap, load in zip(caps, loads)]
    spare = sum(r for r in rooms if r >= shortest) - sum(map(lengths.__getitem__, jobs))
    try:
        return spare >= 0 and place(0, spare)
    finally:
        del place  # it refers to itself: break the cycle, leave no garbage


def brute_force_opt(instance: Instance) -> Schedule:
    """Exact minimum-makespan schedule: among the optimal assignment vectors
    (job i on machine v[i]), the lexicographically smallest."""
    vec, _, _ = _search(instance)
    assignment = [[] for _ in range(instance.m)]
    for i, j in enumerate(vec):
        assignment[j].append(i)
    return build_schedule(instance, assignment)


def _search(instance: Instance) -> tuple:
    """(vec, load, v): the lexicographically smallest optimal assignment
    vector, job i on machine vec[i], and the optimum load / v as integers.

    One exact depth-first search, used in two passes. Lengths, speeds and
    batteries are scaled to integers by one common denominator (floats too:
    a float is a dyadic rational, so float mode is searched exactly, without
    a tolerance), and a bound on the makespan becomes an integer cap on each
    machine's load.

    * Value pass: jobs are branched longest first, each over its machines
      fastest first. A greedy schedule in the same order (earliest finish,
      the first such machine on ties) seeds the bound. The search then looks
      for a schedule strictly below the bound, so ties prune as well as
      losses, and starts again below each one it finds until none is left.
    * Vector pass: starting from that optimal witness, jobs are fixed in id
      order. Job i tries only the machines below the witness's machine, in
      id order, each checked by a longest-first completion search within the
      optimum. The first that passes, with its completion, becomes the new
      witness; if none does, job i keeps the witness's machine.

    Identical machines: both passes skip machine j while the last machine
    before j with the same speed and battery (USP and DWP only) carries the
    same load. Guarded to m^n <= 10^8 raw assignments.
    """
    if not feasibility_check(instance):
        raise InfeasibleError("instance has no valid schedule")
    n, m = instance.n, instance.m
    if m ** n > BRUTE_FORCE_GUARD:
        raise SizeGuardError(f"m^n = {m}^{n} exceeds the {BRUTE_FORCE_GUARD:g} guard")

    scaled, _ = exact_ints(instance.lengths + instance.speeds + instance.batteries)
    lengths, speeds, batteries = scaled[:n], scaled[n:n + m], scaled[n + m:]
    # each job's machines, fastest first (lowest id among equal speeds)
    by_speed = sorted(range(m), key=speeds.__getitem__, reverse=True)
    if instance.kind is Kind.RESTRICTED:
        eligible = [[j for j in by_speed if j in machines] for machines in instance.eligibility]
    elif instance.kind is Kind.USP:
        eligible = [by_speed] * n
    else:
        eligible = [[j for j in by_speed if batteries[j] is None or l <= batteries[j]]
                    for l in lengths]
    # twin[j]: the last machine before j with the same speed and battery, or
    # j itself if there is none (always for RESTRICTED instances)
    last_of = {}
    twin = []
    for j in range(m):
        key = j if instance.kind is Kind.RESTRICTED else (speeds[j], batteries[j])
        twin.append(last_of.get(key, j))
        last_of[key] = j

    # greedy seed: longest job first, on the machine that finishes it first
    order = sorted(range(n), key=lengths.__getitem__, reverse=True)
    loads = [0] * m
    vec = [0] * n
    for i in order:
        l = lengths[i]
        best = None
        for j in eligible[i]:
            if best is None or (loads[j] + l) * speeds[best] < (loads[best] + l) * speeds[j]:
                best = j
        loads[best] += l
        vec[i] = best

    # value pass. (load, v) finishes last; the cap on machine j (speed w) is
    # the largest integer load that finishes before load / v here, and by it
    # in the vector pass
    choices = [eligible[i] for i in order]
    load, v = _last_finish(vec, lengths, speeds)
    while True:
        trial = vec.copy()
        caps = [(load * w - 1) // v for w in speeds]
        if not _fits(order, choices, lengths, twin, [0] * m, caps, trial):
            break
        vec = trial
        load, v = _last_finish(vec, lengths, speeds)

    # vector pass: loads holds jobs 0..i-1 on their final machines
    caps = [load * w // v for w in speeds]
    loads = [0] * m
    for i in range(n):
        l = lengths[i]
        below = [j for j in eligible[i] if j < vec[i] and loads[j] + l <= caps[j]]
        if below:
            below.sort()
            free = [k for k in order if k > i]
            trial = vec.copy()
            if _fits([i] + free, [below] + [eligible[k] for k in free],
                     lengths, twin, loads, caps, trial):
                vec = trial
        loads[vec[i]] += l
    return vec, load, v


def makespan_lower_bound(instance: Instance) -> Scalar:
    """max(total-work bound, per-job bound); never exceeds the true optimum.

    Total work: sum(l) / sum(v). Per job: l_i over the fastest machine
    eligible for job i (for drones, a battery-descending sweep keeps this
    near-linear instead of O(nm)).
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

    # DWP: sweep jobs by descending length against drones by descending
    # battery, tracking the fastest admitted speed.
    order = battery_order(instance)
    ptr, fastest = 0, None
    for i in sorted(range(instance.n), key=lengths.__getitem__, reverse=True):
        l = lengths[i]
        while ptr < instance.m:
            j = order[ptr]
            d = instance.batteries[j]
            if d is not None and d < l:
                break
            if fastest is None or speeds[j] > fastest:
                fastest = speeds[j]
            ptr += 1
        per_job = l / fastest
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
    guard) or the makespan lower bound. A rational optimum is the search's
    integer load over speed; a float one is the optimal schedule's
    makespan, rounded as ``build_schedule`` rounds it."""
    from .scheduler import run_scheduler

    trace = run_scheduler(algorithm, instance, record_trace=False)
    alg_span = trace.schedule.makespan
    if instance.m ** instance.n <= BRUTE_FORCE_GUARD:
        if isinstance(alg_span, float):
            opt = brute_force_opt(instance).makespan
        else:
            _, load, v = _search(instance)
            opt = Fraction(load, v)
        method = "brute-force"
    else:
        opt = makespan_lower_bound(instance)
        method = "lower-bound"
    return RatioReport(
        instance_id=instance_id,
        algorithm=algorithm,
        alg_makespan=alg_span,
        opt_value=opt,
        ratio=alg_span / opt,
        opt_method=method,
    )
