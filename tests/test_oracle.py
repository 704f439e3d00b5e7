import gc
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest

from makespan import (PHI, GenSpec, InfeasibleError, Instance, Mode, SizeGuardError,
                      UsageError, brute_force_opt, dwp_lpt, generate, le_phi,
                      makespan_lower_bound, ratio_report, round_r)
from makespan.gen_bench import DEFAULT_ALGORITHM, FAMILIES
from makespan.oracle import BRUTE_FORCE_GUARD, exceeds_guard, lt_phi, optimum_value
from makespan.scheduler import run_scheduler

from conftest import dwp, restricted, usp


def exhaustive_opt(instance):
    """Independent oracle for the oracle: plain product enumeration, no
    pruning, explicit lexicographic tie handling."""
    best_span, best_vec = None, None
    if instance.eligibility is None:  # job i fits machine j iff l_i <= d_j
        eligible = [[j for j, d in enumerate(instance.batteries) if d is None or l <= d]
                    for l in instance.lengths]
    else:
        eligible = [sorted(machines) for machines in instance.eligibility]
    for vec in itertools.product(*eligible):
        loads = [F(0)] * instance.m
        for i, j in enumerate(vec):
            loads[j] += instance.lengths[i]
        span = max(loads[j] / instance.speeds[j] for j in range(instance.m))
        if best_span is None or span < best_span:
            best_span, best_vec = span, vec
    return best_span, best_vec


def assignment_vector(sched, n):
    vec = [None] * n
    for j, jobs in enumerate(sched.assignment):
        for i in jobs:
            vec[i] = j
    return tuple(vec)


def exact_copy(instance):
    """The same instance over the floats' exact Fraction values."""
    return Instance(
        kind=instance.kind,
        speeds=tuple(map(F, instance.speeds)),
        batteries=tuple(None if d is None else F(d) for d in instance.batteries),
        lengths=tuple(map(F, instance.lengths)),
    )


def test_brute_force_graham(graham_instance):
    sched = brute_force_opt(graham_instance)
    assert sched.makespan == F(6)
    span, vec = exhaustive_opt(graham_instance)
    assert span == F(6)
    # lexicographically smallest optimum
    assert assignment_vector(sched, graham_instance.n) == vec


def test_brute_force_single_machine():
    inst = usp([F(2)], [F(3), F(4)])
    assert brute_force_opt(inst).makespan == F(7, 2)


def test_brute_force_restricted_example():
    eps = F(1, 10)
    inst = restricted([F(10), F(10) + eps],
                      [(F(10), {1}), (F(10) + eps, {0, 1})])
    assert brute_force_opt(inst).makespan == F(101, 100)


def random_machines(rng, m):
    """m (speed, battery) pairs; each machine after the first repeats an
    earlier one with probability 0.4."""
    machines = [(F(rng.randint(1, 6)), F(rng.randint(1, 20))) for _ in range(m)]
    for j in range(1, m):
        if rng.random() < 0.4:
            machines[j] = machines[rng.randrange(j)]
    return machines


def test_brute_force_matches_unpruned_enumeration():
    rng = random.Random(17)
    for case in range(300):
        m = rng.randint(1, 3)
        n = rng.randint(1, 7 if m < 3 else 6)
        lengths = [F(rng.randint(1, 20), rng.randint(1, 2)) for _ in range(n)]
        if case % 3 == 0:  # equal-speed USP: every machine a twin of machine 0
            inst = usp([F(rng.randint(1, 6))] * m, lengths)
        else:
            machines = random_machines(rng, m)
            if max(d for _, d in machines) < max(lengths):
                machines[0] = (machines[0][0], max(lengths))
            inst = dwp(machines, lengths)
        sched = brute_force_opt(inst)
        span, vec = exhaustive_opt(inst)
        assert sched.makespan == span
        assert assignment_vector(sched, n) == vec
    # RESTRICTED: equal speeds on 9 to 12 machines, so eligibility sets hold
    # ids of 8 and up, which a frozenset need not iterate in ascending order
    for case in range(60):
        m = rng.randint(9, 12)
        n = rng.randint(1, 7)
        speeds = [rng.choice([F(1), F(2), F(2)]) for _ in range(m)]
        jobs = [(F(rng.randint(1, 20), rng.randint(1, 2)),
                 rng.sample(range(m), rng.randint(1, 3))) for _ in range(n)]
        inst = restricted(speeds, jobs)
        sched = brute_force_opt(inst)
        span, vec = exhaustive_opt(inst)
        assert sched.makespan == span
        assert assignment_vector(sched, n) == vec


def test_brute_force_float_mode_is_exact():
    """Float mode searches the floats' exact values: the same vector as the
    unpruned enumeration over their Fraction equivalents."""
    rng = random.Random(43)
    for case in range(150):
        m = rng.randint(1, 3)
        n = rng.randint(1, 7 if m < 3 else 6)
        lengths = [rng.randint(100, 9000) / 100 for _ in range(n)]
        machines = [(rng.randint(100, 600) / 100, rng.randint(100, 9000) / 100)
                    for _ in range(m)]
        if case % 2:
            machines[-1] = machines[0]
        if max(d for _, d in machines) < max(lengths):
            machines[0] = (machines[0][0], max(lengths))
        inst = dwp(machines, lengths)
        sched = brute_force_opt(inst)
        _, vec = exhaustive_opt(exact_copy(inst))
        assert assignment_vector(sched, n) == vec


def test_brute_force_float_seed_already_optimal():
    """gen --family uniform-dwp --n 7 --m 2 --seed 733: the greedy seed
    250.65/3.13 is optimal; float search once rejected it by rounding."""
    inst = dwp([(3.13, 90.13), (3.31, 34.88)],
               [23.98, 90.13, 26.15, 73.27, 21.11, 37.18, 50.07])
    sched = brute_force_opt(inst)
    assert sched.assignment == ((1, 3, 5, 6), (0, 2, 4))
    assert sched.makespan == (90.13 + 73.27 + 37.18 + 50.07) / 3.13
    _, vec = exhaustive_opt(exact_copy(inst))
    assert assignment_vector(sched, inst.n) == vec


def test_brute_force_float_mode_agrees():
    rng = random.Random(41)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 6)
        speeds = [F(rng.randint(1, 8)) for _ in range(m)]
        lengths = [F(rng.randint(1, 16)) for _ in range(n)]
        exact = usp(speeds, lengths)
        boxed = usp([float(v) for v in speeds], [float(l) for l in lengths])
        # small integers are exactly representable, so the float search must
        # land on the same optimum value
        assert float(brute_force_opt(exact).makespan) == brute_force_opt(boxed).makespan


def test_brute_force_size_guard():
    inst = usp([F(1)] * 10, [F(1)] * 9)  # 10^9 assignments
    with pytest.raises(SizeGuardError):
        brute_force_opt(inst)
    # m^n = (10^5)^(10^6) has 5 million digits: refused without building it
    with pytest.raises(SizeGuardError):
        brute_force_opt(usp([1.0] * 10 ** 5, [1.0] * 10 ** 6))


def test_exceeds_guard_matches_the_power():
    for m, n in ((1, 1), (1, 30), (2, 26), (2, 27), (10, 8), (10, 9)):
        assert exceeds_guard(m, n) == (m ** n > BRUTE_FORCE_GUARD), (m, n)
    assert not exceeds_guard(2, 26) and exceeds_guard(2, 27)
    assert not exceeds_guard(10, 8) and exceeds_guard(10, 9)


def test_brute_force_infeasible():
    inst = dwp([(F(1), F(2))], [F(5)])
    with pytest.raises(InfeasibleError):
        brute_force_opt(inst)


def test_lower_bound_examples(graham_instance):
    assert makespan_lower_bound(graham_instance) == F(6)  # max(12/2, 3/1)
    one_job = usp([F(2), F(5)], [F(7)])
    assert makespan_lower_bound(one_job) == F(7, 5)
    inst = dwp([(F(1), F(10)), (F(2), F(4))], [F(6), F(4), F(4)])
    assert makespan_lower_bound(inst) >= F(6)  # length-6 parcel needs the v=1 drone


def test_lower_bound_never_exceeds_optimum():
    rng = random.Random(23)
    for _ in range(400):
        m = rng.randint(1, 3)
        n = rng.randint(1, 7)
        machines = [(F(rng.randint(1, 6)), F(rng.randint(1, 25))) for _ in range(m)]
        lengths = [F(rng.randint(1, 25)) for _ in range(n)]
        if max(d for _, d in machines) < max(lengths):
            machines[0] = (machines[0][0], max(lengths))
        inst = dwp(machines, lengths)
        assert makespan_lower_bound(inst) <= brute_force_opt(inst).makespan


def test_oracle_dominance_over_schedulers():
    rng = random.Random(29)
    for _ in range(120):
        m = rng.randint(1, 3)
        n = rng.randint(1, 7)
        machines = [(F(rng.randint(1, 6)), F(rng.randint(1, 25))) for _ in range(m)]
        lengths = [F(rng.randint(1, 25)) for _ in range(n)]
        if max(d for _, d in machines) < max(lengths):
            machines[0] = (machines[0][0], max(lengths))
        inst = dwp(machines, lengths)
        assert brute_force_opt(inst).makespan <= dwp_lpt(inst).schedule.makespan


# -- golden-ratio predicates -------------------------------------------------

def test_le_phi_exact_cases():
    assert le_phi(F(1))
    assert le_phi(F(8, 5))          # below phi
    assert not le_phi(F(13, 8))     # 1.625 > phi
    assert le_phi(F(987, 610))      # Fibonacci convergent below
    assert not le_phi(F(1597, 987))  # Fibonacci convergent above
    assert le_phi(1.6) and not le_phi(1.62)


def fibonacci_convergents(count):
    """The first `count` ratios of consecutive Fibonacci numbers, 2/1, 3/2,
    5/3, ...: alternately above and below phi."""
    a, b = 1, 1
    for _ in range(count):
        a, b = b, a + b
        yield F(b, a)


def test_phi_predicates_on_integers():
    for x in (F(-1), F(-5, 3), F(-10 ** 300, 7), F(0), F(1, 10 ** 9), F(1), F(8, 5)):
        assert le_phi(x) and lt_phi(x)
    for x in (F(13, 8), F(2), F(10 ** 300)):
        assert not le_phi(x) and not lt_phi(x)
    for k, x in enumerate(fibonacci_convergents(60)):
        below = k % 2 == 1
        assert le_phi(x) == lt_phi(x) == below == (x * x < x + 1)
    # a convergent with a 1000-bit numerator, and its neighbours 1/q^2 away
    *_, x = fibonacci_convergents(1450)
    assert x.numerator.bit_length() >= 1000
    for y in (x, x + F(1, x.denominator ** 2), x - F(1, x.denominator ** 2)):
        assert le_phi(y) == lt_phi(y) == (y * y < y + 1)


def test_phi_predicates_on_floats():
    below = math.nextafter(PHI, 0.0)
    above = math.nextafter(PHI, 2.0)
    for x in (-3.0, 0.0, 1.0, 1.6, below, PHI, above, 1.62, 2.0, math.inf):
        assert le_phi(x) == (x <= PHI)
        assert lt_phi(x) == (x < PHI)
    assert le_phi(PHI) and not lt_phi(PHI)


def test_round_r_cases():
    assert round_r(F(1)) == 1
    assert round_r(F(16, 10)) == 1          # 1.6 < phi
    assert round_r(F(162, 100)) == F(3, 2)  # 1.62 > phi
    assert round_r(F(27, 10)) == 2
    assert round_r(F(59, 10)) == 5
    assert round_r(F(2)) == 2               # floor at an integer boundary
    assert round_r(1.6) == 1.0
    assert round_r(1.62) == 1.5
    assert round_r(5.9) == 5.0


def test_round_r_domain_error():
    with pytest.raises(UsageError):
        round_r(F(99, 100))


def test_round_r_types_follow_mode():
    assert isinstance(round_r(F(3)), F)
    assert isinstance(round_r(3.0), float)


def test_round_r_sandwich_sample():
    rng = random.Random(31)
    for _ in range(10_000):
        x = F(rng.randint(1000, 1_000_000), rng.randint(1, 1000))
        if x < 1:
            continue
        r = round_r(x)
        assert r <= x
        q = x / r
        assert q * q <= q + 1, f"x/phi <= R(x) violated at {x}"


def test_round_r_non_decreasing():
    rng = random.Random(37)
    xs = sorted(F(rng.randint(100, 100_000), rng.randint(1, 100)) for _ in range(500))
    xs = [x for x in xs if x >= 1]
    for a, b in zip(xs, xs[1:]):
        assert round_r(a) <= round_r(b)


# -- ratio reports -------------------------------------------------------------

def test_ratio_report_restricted_example():
    eps = F(1, 10)
    inst = restricted([F(10), F(10) + eps],
                      [(F(10), {1}), (F(10) + eps, {0, 1})])
    report = ratio_report(inst, "lpt-restricted", instance_id="4.3")
    assert report.ratio == F(20100, 10201)
    assert report.opt_method == "brute-force"
    payload = json.loads(report.to_json_line())
    assert payload["ratio"] == "20100/10201"
    assert payload["instance"] == "4.3"


def test_ratio_report_dwp_example():
    inst = dwp([(F(1), F(10)), (F(2), F(4))], [F(6), F(4), F(4)])
    report = ratio_report(inst, "dwp-lpt")
    assert report.ratio == F(1)


def test_ratio_report_single_machine():
    inst = usp([F(3)], [F(1), F(2)])
    assert ratio_report(inst, "lpt-fast").ratio == F(1)


def test_ratio_report_lower_bound_fallback():
    # large instance: falls back to the lower bound and still reports >= 1
    inst = usp([F(j + 1) for j in range(12)], [F(5)] * 9)  # 12^9 > guard
    report = ratio_report(inst, "lpt-fast")
    assert report.opt_method == "lower-bound"
    assert report.ratio >= 1


def test_opt_with_a_common_denominator_past_float_range():
    # lengths k / (10**40 + 3)**k: the common denominator has 1063 bits, and
    # the unbounded batteries must stay unbounded rather than inf times it
    q = 10 ** 40 + 3
    lengths = [F(k, q ** k) for k in range(1, 9)]
    for inst, algorithm in ((usp([F(1), F(2)], lengths), "lpt-naive"),
                            (dwp([(F(1), None), (F(2), None)], lengths), "dwp-lpt")):
        span, vec = exhaustive_opt(inst)
        sched = brute_force_opt(inst)
        assert sched.makespan == span
        assert assignment_vector(sched, inst.n) == vec
        assert ratio_report(inst, algorithm).opt_value == span


def test_ratio_report_value_pass_equals_brute_force():
    """The rational ratio report runs the value pass alone; its optimum is
    brute force's makespan on every family, tight batteries included."""
    for family in FAMILIES:
        for seed in range(25):
            specs = [GenSpec(family=family, n=1 + seed % 9, m=1 + seed % 3, seed=seed)]
            if family == "uniform-dwp":  # batteries below most parcels
                specs.append(GenSpec(family=family, n=1 + seed % 9, m=1 + seed % 3,
                                     seed=seed, battery_range=(F(1), F(30))))
            for spec in specs:
                inst = generate(spec, Mode.RATIONAL)
                report = ratio_report(inst, DEFAULT_ALGORITHM[family])
                assert report.opt_method == "brute-force"
                assert report.opt_value == brute_force_opt(inst).makespan
                assert report.ratio == report.alg_makespan / report.opt_value
    q = 10 ** 40 + 3
    lengths = [F(k, q ** k) for k in range(1, 9)]
    for inst, algorithm in ((usp([F(1), F(2)], lengths), "lpt-naive"),
                            (dwp([(F(1), None), (F(2), None)], lengths), "dwp-lpt"),
                            (dwp([(F(3, 7), F(2, q)), (F(5, 11), F(1, 2 * q))], lengths),
                             "dwp-lpt")):
        report = ratio_report(inst, algorithm)
        assert report.opt_value == brute_force_opt(inst).makespan
        assert report.ratio == report.alg_makespan / report.opt_value


def test_value_pass_from_any_valid_incumbent():
    """The value pass finds the same optimum from its own LPT seed and from
    any valid schedule given as the incumbent: the LPT run's, as
    ratio_report passes it, or every job on the one machine that covers
    them all (the roomiest drone)."""
    for family in ("uniform-usp", "uniform-dwp", "equal-speed"):
        for seed in range(30):
            inst = generate(GenSpec(family=family, n=1 + seed % 8, m=1 + seed % 3,
                                    seed=seed), Mode.RATIONAL)
            best, _, _ = optimum_value(inst)
            exact = inst.exact
            roomiest = max(range(inst.m), key=lambda j: exact.batteries[j] or math.inf)
            lpt = ratio_report(inst, DEFAULT_ALGORITHM[family])
            scale = exact.L * exact.P
            lpt_value = lpt.alg_makespan * scale
            vec = [0] * inst.n
            for j, jobs in enumerate(run_scheduler(DEFAULT_ALGORITHM[family], inst).schedule
                                     .assignment):
                for i in jobs:
                    vec[i] = j
            for incumbent in ((vec, int(lpt_value)),
                              ([roomiest] * inst.n, sum(exact.lengths) * exact.slopes[roomiest])):
                assert optimum_value(inst, incumbent)[0] == best, (family, seed)
            assert lpt.opt_value * scale == best


@pytest.mark.parametrize("mode", [Mode.F64, Mode.RATIONAL])
def test_searches_and_lpt_runs_leave_no_cyclic_garbage(mode):
    # The search's recursive closure refers to itself; every search must
    # break that cycle, or each leaves garbage only the cyclic collector frees.
    runs = [(generate(GenSpec(family=family, n=8, m=3, seed=seed), mode), algorithm)
            for family, algorithm in (("uniform-usp", "lpt-fast"),
                                      ("uniform-dwp", "dwp-lpt"),
                                      ("equal-speed", "lpt-naive"))
            for seed in range(3)]
    gc.disable()
    try:
        gc.collect()
        for instance, algorithm in runs:
            brute_force_opt(instance)
            ratio_report(instance, algorithm)
        assert gc.collect() == 0
    finally:
        gc.enable()
