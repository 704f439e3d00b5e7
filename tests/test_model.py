import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from makespan import (Instance, Kind, UsageError, build_schedule, dwp_lpt,
                      feasibility_check, lpt_fast, lpt_naive, makespan, validate)
from makespan.model import Schedule, battery_order, decided_on

from conftest import dwp, restricted, usp


def test_makespan_single_machine():
    inst = usp([F(2)], [F(4), F(6)])
    sched = build_schedule(inst, [[0, 1]])
    assert makespan(inst, sched) == F(5)


def test_empty_machine_contributes_zero():
    inst = usp([F(1), F(1)], [F(3)])
    sched = build_schedule(inst, [[0], []])
    assert sched.loads[1] == 0
    assert makespan(inst, sched) == F(3)


def test_makespan_epsilon_example():
    # two machines 10 and 10+eps; the longer job on the slow machine
    eps = F(1, 10)
    inst = usp([F(10), F(10) + eps], [F(10), F(10) + eps])
    sched = build_schedule(inst, [[1], [0]])
    assert makespan(inst, sched) == F(101, 100)


def test_validate_scheduler_output_clean(graham_instance):
    for trace in (lpt_naive(graham_instance), lpt_fast(graham_instance)):
        assert validate(graham_instance, trace.schedule).ok


def test_validate_battery_violation():
    inst = dwp([(F(1), F(10)), (F(2), F(4))], [F(6), F(4)])
    sched = build_schedule(inst, [[], [0, 1]])  # length-6 parcel on the d=4 drone
    report = validate(inst, sched)
    assert not report.ok
    assert any(kind == "battery" for kind, _ in report.violations)


def test_validate_partition_violations():
    inst = usp([F(1), F(1)], [F(2), F(3)])
    twice = Schedule(assignment=((0, 1), (0,)), loads=(F(5), F(2)), makespan=F(5))
    report = validate(inst, twice)
    assert any("assigned 2 times" in detail for _, detail in report.violations)
    missing = Schedule(assignment=((0,), ()), loads=(F(2), F(0)), makespan=F(2))
    report = validate(inst, missing)
    assert any("unassigned" in detail for _, detail in report.violations)


def test_validate_load_and_makespan_recomputation():
    inst = usp([F(1)], [F(2), F(3)])
    bad = Schedule(assignment=((0, 1),), loads=(F(4),), makespan=F(4))
    report = validate(inst, bad)
    kinds = {kind for kind, _ in report.violations}
    assert "load" in kinds and "makespan" in kinds


def test_validate_dangling_id_raises():
    inst = usp([F(1)], [F(2)])
    broken = Schedule(assignment=((0, 7),), loads=(F(2),), makespan=F(2))
    with pytest.raises(UsageError):
        validate(inst, broken)


def test_makespan_rejects_invalid():
    inst = usp([F(1)], [F(2), F(3)])
    bad = Schedule(assignment=((0,),), loads=(F(2),), makespan=F(2))
    with pytest.raises(UsageError):
        makespan(inst, bad)


def test_feasibility_examples():
    assert feasibility_check(dwp([(F(1), F(10)), (F(1), F(4))], [F(6), F(4), F(4)]))
    assert not feasibility_check(dwp([(F(1), F(5))], [F(6)]))
    assert feasibility_check(dwp([(F(1), F(5)), (F(2), None)], [F(6)]))  # unbounded drone
    single = usp([F(1)], [F(100)])
    assert single.m == 1 and single.n == 1
    assert feasibility_check(single)
    assert feasibility_check(restricted([F(1)], [(F(5), {0})]))


# few distinct values, so equal batteries at different ids are common
_values = st.sampled_from([F(1, 2), F(1), F(3, 2), F(7, 3), F(5), F(100, 7)])


@st.composite
def _drones(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    lengths = draw(st.lists(_values, min_size=n, max_size=n))
    batteries = draw(st.lists(st.one_of(st.none(), _values), min_size=m, max_size=m))
    if draw(st.booleans()):  # a battery equal to the longest parcel
        batteries[draw(st.integers(0, m - 1))] = max(lengths)
    speeds = draw(st.lists(_values, min_size=m, max_size=m))
    return speeds, batteries, lengths


@settings(max_examples=300, deadline=None)
@given(case=_drones())
def test_battery_decisions_match_their_definitions(case):
    # battery_order and feasibility_check decide a rational instance on the
    # integers of Instance.exact; they must decide as the definitions do on
    # the Fractions, and a float instance on its floats, without scaling it
    speeds, batteries, lengths = case
    for scalar in (F, float):
        def cast(values):
            return [None if v is None else scalar(v) for v in values]
        inst = dwp(zip(cast(speeds), cast(batteries)), cast(lengths))
        by_battery = sorted(range(inst.m), reverse=True, key=lambda j: (
            math.inf if inst.batteries[j] is None else inst.batteries[j]))
        assert battery_order(inst) == by_battery
        longest = max(inst.lengths)
        assert feasibility_check(inst) == any(d is None or d >= longest for d in inst.batteries)
        assert ("exact" in vars(inst)) == (scalar is F)


def test_instance_validation_errors():
    with pytest.raises(UsageError):
        usp([F(0)], [F(1)])  # speed must be positive
    with pytest.raises(UsageError):
        usp([F(1)], [F(0)])  # zero-length job rejected
    with pytest.raises(UsageError):
        usp([], [F(1)])
    with pytest.raises(UsageError):
        restricted([F(1)], [(F(1), set())])  # empty eligibility
    with pytest.raises(UsageError):
        restricted([F(1)], [(F(1), {3})])  # unknown machine id
    with pytest.raises(UsageError):
        dwp([(F(1), F(0))], [F(1)])  # battery must be positive


def test_instance_rejects_non_finite_floats():
    for bad in (math.inf, math.nan):
        with pytest.raises(UsageError):
            usp([bad], [1.0])
        with pytest.raises(UsageError):
            usp([1.0], [bad])
        with pytest.raises(UsageError):
            dwp([(1.0, bad)], [1.0])


def test_instance_rejects_mixed_modes():
    for speeds, batteries, lengths in (
            ([F(1), 2.0], [None, None], [F(1)]),
            ([1.0], [None], [F(1)]),
            ([F(1)], [None], [F(1), 1.0]),
            ([F(1)], [3.0], [F(1)]),
            ([1.0], [F(3)], [1.0]),
            ([1], [None], [1.0])):  # ints are neither mode
        with pytest.raises(UsageError, match="floats only or Fractions only"):
            Instance(kind=Kind.USP if batteries[0] is None else Kind.DWP,
                     speeds=tuple(speeds), batteries=tuple(batteries),
                     lengths=tuple(lengths))


FLOAT_ONLY = "an instance holds floats only or Fractions only"


@pytest.mark.parametrize("bad, message", [
    (math.nan, "{} must be finite and > 0, got nan"),
    (math.inf, "{} must be finite and > 0, got inf"),
    (-math.inf, "{} must be finite and > 0, got -inf"),
    (0.0, "{} must be finite and > 0, got 0.0"),
    (-1.0, "{} must be finite and > 0, got -1.0"),
    (F(1, 2), "{} Fraction(1, 2) is not a float like the first speed: " + FLOAT_ONLY),
    (1, "{} 1 is not a float like the first speed: " + FLOAT_ONLY),
])
def test_float_block_names_its_last_bad_value(bad, message):
    # a long block accepted in bulk passes must still name its one bad value
    good = [1.0] * 999
    for where, build in (
            ("job 999: length", lambda block: usp([2.0], block)),
            ("machine 999: speed", lambda block: dwp(zip(block, [1.0] * 1000), [1.0])),
            ("machine 999: battery", lambda block: dwp(zip([1.0] * 1000, block), [1.0]))):
        with pytest.raises(UsageError) as raised:
            build(good + [bad])
        assert str(raised.value) == message.format(where)


@pytest.mark.parametrize("bad, message", [
    (F(0), "job 999: length must be finite and > 0, got 0"),
    (F(-1, 2), "job 999: length must be finite and > 0, got -1/2"),
    (1.5, "job 999: length 1.5 is not a Fraction like the first speed: " + FLOAT_ONLY),
    (2, "job 999: length 2 is not a Fraction like the first speed: " + FLOAT_ONLY),
])
def test_fraction_block_names_its_last_bad_value(bad, message):
    with pytest.raises(UsageError) as raised:
        usp([F(2)], [F(3, 2)] * 999 + [bad])
    assert str(raised.value) == message


def test_float_subclass_values_accepted():
    class Real(float):
        pass

    inst = dwp([(Real(2.0), Real(1.0))] + [(2.0, 1.0)] * 5, [1.0, Real(3.0)] * 50)
    assert inst.m == 6 and inst.n == 100
    with pytest.raises(UsageError, match="machine 6: battery must be finite"):
        dwp([(Real(2.0), Real(1.0))] * 6 + [(2.0, Real(0.0))], [1.0])


def test_build_schedule_rejects_unknown_job_ids():
    inst = usp([F(1), F(2)], [F(1), F(2)])
    for assignment, bad in (([[0], [1, 2]], "machine 1: unknown job id 2"),
                            ([[-1], [0, 1]], "machine 0: unknown job id -1")):
        with pytest.raises(UsageError, match=bad):
            build_schedule(inst, assignment)


def test_build_schedule_takes_a_runs_sums():
    # sums added in assignment order, as a run adds them, give the schedule
    # that recomputing the loads gives, in both numeric modes
    rng = random.Random(3)
    for exact in (True, False):
        for _ in range(50):
            m, n = rng.randint(1, 4), rng.randint(1, 10)
            speeds = [F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(m)]
            lengths = [F(rng.randint(1, 50), rng.randint(1, 4)) for _ in range(n)]
            if not exact:
                speeds, lengths = list(map(float, speeds)), list(map(float, lengths))
            inst = usp(speeds, lengths)
            assignment = [[] for _ in range(m)]
            for i in rng.sample(range(n), n):
                assignment[rng.randrange(m)].append(i)
            scaled = decided_on(inst)[0]
            sums = []
            for jobs in assignment:
                load = scaled[0] - scaled[0]
                for i in jobs:
                    load += scaled[i]
                sums.append(load)
            assert build_schedule(inst, assignment, sums) == build_schedule(inst, assignment)


def test_loads_round_trip_random_schedules():
    rng = random.Random(0)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 12)
        inst = usp([F(rng.randint(1, 9)) for _ in range(m)],
                   [F(rng.randint(1, 50), rng.randint(1, 4)) for _ in range(n)])
        assignment = [[] for _ in range(m)]
        for i in range(n):
            assignment[rng.randrange(m)].append(i)
        sched = build_schedule(inst, assignment)
        assert validate(inst, sched).ok
        # recompute independently
        for j in range(m):
            assert sched.loads[j] == sum((inst.lengths[i] for i in assignment[j]), F(0))


def test_validators_pass_for_all_schedulers_on_feasible_instances():
    from makespan import lpt_restricted
    rng = random.Random(1)
    for _ in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 10)
        machines = [(F(rng.randint(1, 6)), F(rng.randint(1, 40))) for _ in range(m)]
        lengths = [F(rng.randint(1, 30)) for _ in range(n)]
        machines[rng.randrange(m)] = (machines[0][0], max(lengths) + F(rng.randint(0, 5)))
        inst = dwp(machines, lengths)
        assert validate(inst, dwp_lpt(inst).schedule).ok
        uin = usp([v for v, _ in machines], lengths)
        assert validate(uin, lpt_naive(uin).schedule).ok
        assert validate(uin, lpt_fast(uin).schedule).ok
        rin = restricted([v for v, _ in machines],
                         [(l, {rng.randrange(m)} | {rng.randrange(m)})
                          for l in lengths])
        assert validate(rin, lpt_restricted(rin).schedule).ok
