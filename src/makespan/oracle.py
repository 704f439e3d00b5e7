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
from typing import Optional

from .errors import InfeasibleError, SizeGuardError, UsageError
from .model import (Instance, Kind, Schedule, battery_order, build_schedule,
                    feasibility_check)
from .numeric import Scalar, scalar_to_str

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


def phi_bracket(tolerance: Fraction = Fraction(1, 10 ** 12)):
    """A rational interval (lo, hi) with lo < phi < hi and hi - lo <= tolerance.

    Consecutive Fibonacci quotients F(k+1)/F(k) alternate around phi; used
    only for human-readable reporting, never for decisions.
    """
    a, b = 1, 2  # F(2), F(3)
    lo, hi = Fraction(1), Fraction(2)
    while hi - lo > tolerance:
        a, b = b, a + b
        q = Fraction(b, a)
        if q * q <= q + 1:
            lo = q
        else:
            hi = q
    return lo, hi


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


def _eligible_lists(instance: Instance):
    return [instance.eligible_machines(i) for i in range(instance.n)]


def _scaled_ints(values):
    """Map positive Fractions (or floats) to integers by a common denominator."""
    if isinstance(values[0], Fraction):
        den = math.lcm(*(v.denominator for v in values))
        return [int(v * den) for v in values], den
    return list(values), 1  # float mode: keep floats, comparisons approximate


def _greedy_upper_bound(lengths, speeds, eligible, m):
    """A quick valid schedule (jobs in id order, earliest finish) whose
    makespan seeds the branch-and-bound prune. Independent of the LPT code."""
    loads = [0] * m
    worst_num, worst_den = 0, 1
    for i, l in enumerate(lengths):
        best, bn, bd = None, None, None
        for j in eligible[i]:
            num, den = loads[j] + l, speeds[j]
            if best is None or num * bd < bn * den:
                best, bn, bd = j, num, den
        loads[best] += l
        if bn * worst_den > worst_num * bd:
            worst_num, worst_den = bn, bd
    return worst_num, worst_den


def brute_force_opt(instance: Instance) -> Schedule:
    """Exact minimum-makespan schedule by exhaustive enumeration.

    Jobs are branched in id order so the first optimum found is the
    lexicographically smallest assignment vector; partial makespans prune the
    search. Guarded to m^n <= 10^8 raw assignments.
    """
    if not feasibility_check(instance):
        raise InfeasibleError("instance has no valid schedule")
    n, m = instance.n, instance.m
    if m ** n > BRUTE_FORCE_GUARD:
        raise SizeGuardError(f"m^n = {m}^{n} exceeds the {BRUTE_FORCE_GUARD:g} guard")

    eligible = _eligible_lists(instance)
    lengths, _ = _scaled_ints(list(instance.lengths))
    speeds, _ = _scaled_ints(list(instance.speeds))
    # finish(j) = loads[j] / speeds[j]; all comparisons cross-multiply.

    best_num, best_den = _greedy_upper_bound(lengths, speeds, eligible, m)
    best_vec: Optional[list] = None
    loads = [0] * m
    vec = [0] * n

    def dfs(i: int, cur_num: int, cur_den: int) -> None:
        nonlocal best_num, best_den, best_vec
        if i == n:
            # Pruning guarantees cur <= best here; record strict improvements,
            # or the first equal-value leaf when only the seed bound exists.
            if cur_num * best_den < best_num * cur_den:
                best_num, best_den, best_vec = cur_num, cur_den, vec.copy()
            elif best_vec is None:
                best_vec = vec.copy()
            return
        l = lengths[i]
        for j in eligible[i]:
            num, den = loads[j] + l, speeds[j]
            if num * cur_den > cur_num * den:
                new_num, new_den = num, den
            else:
                new_num, new_den = cur_num, cur_den
            # prune: worse than the incumbent, or ties it once one is recorded
            cmp = new_num * best_den - best_num * new_den
            if cmp > 0 or (cmp == 0 and best_vec is not None):
                continue
            loads[j] += l
            vec[i] = j
            dfs(i + 1, new_num, new_den)
            loads[j] -= l
        return

    dfs(0, 0, 1)
    if best_vec is None:
        raise InfeasibleError("exhaustive search found no valid schedule")
    assignment = [[] for _ in range(m)]
    for i, j in enumerate(best_vec):
        assignment[j].append(i)
    return build_schedule(instance, assignment)


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
    guard) or the makespan lower bound."""
    from .scheduler import run_scheduler

    trace = run_scheduler(algorithm, instance, record_trace=False)
    alg_span = trace.schedule.makespan
    if instance.m ** instance.n <= BRUTE_FORCE_GUARD:
        opt = brute_force_opt(instance).makespan
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
