import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from makespan import (GenSpec, InfeasibleError, Instance, Kind, Mode, UsageError,
                      brute_force_opt, dwp_lpt, generate, lpt_fast, lpt_naive,
                      lpt_restricted, run_scheduler, validate)
from makespan.cli import parse_instance_text
from makespan.numeric import scalar_to_str

from conftest import dwp, restricted, usp


def decisions(trace):
    return list(trace.decisions())


# -- lpt_naive -----------------------------------------------------------------

def test_graham_ratio_7_6(graham_instance):
    trace = lpt_naive(graham_instance)
    assert trace.schedule.makespan == F(7)
    opt = brute_force_opt(graham_instance)
    assert opt.makespan == F(6)
    assert trace.schedule.makespan / opt.makespan == F(7, 6) <= F(4, 3)


def test_single_machine_sums():
    inst = usp([F(2)], [F(1), F(2), F(9, 2)])
    assert lpt_naive(inst).schedule.makespan == F(15, 4)
    assert lpt_fast(inst).schedule.makespan == F(15, 4)


def test_equal_jobs_equal_machines_one_each():
    inst = usp([F(1)] * 4, [F(5)] * 4)
    trace = lpt_naive(inst)
    assert all(len(a) == 1 for a in trace.schedule.assignment)
    # ties assign ascending job ids to ascending machine ids
    assert [a[0] for a in trace.schedule.assignment] == [0, 1, 2, 3]


def test_naive_requires_usp():
    inst = dwp([(F(1), F(5))], [F(3)])
    with pytest.raises(UsageError):
        lpt_naive(inst)


def test_decision_order_non_increasing_with_id_ties():
    inst = usp([F(1), F(1)], [F(2), F(3), F(2), F(3)])
    trace = lpt_naive(inst)
    assert trace.job_ids == [1, 3, 0, 2]


# -- lpt_fast ------------------------------------------------------------------

def test_fast_epsilon_instance_no_restriction():
    # without eligibility limits, the length-10 job lands on the speed-10
    # machine and the makespan is exactly 1
    eps = F(1, 10)
    inst = usp([F(10), F(10) + eps], [F(10), F(10) + eps])
    trace = lpt_fast(inst)
    assert trace.schedule.makespan == F(1)
    assert decisions(trace) == decisions(lpt_naive(inst))
    by_job = dict(zip(trace.job_ids, trace.machine_ids))
    assert by_job[0] == 0 and by_job[1] == 1


def test_fast_matches_naive_random_rational():
    for seed in range(60):
        rng = random.Random(seed)
        spec = GenSpec(family="uniform-usp", n=rng.randint(1, 60),
                       m=rng.randint(1, 12), seed=seed)
        inst = generate(spec, Mode.RATIONAL)
        fast = lpt_fast(inst)
        naive = lpt_naive(inst)
        assert decisions(fast) == decisions(naive), f"seed {seed}"
        assert fast.schedule == naive.schedule


def test_fast_matches_naive_equal_speeds():
    for seed in range(20):
        inst = generate(GenSpec(family="equal-speed", n=24, m=6, seed=seed),
                        Mode.RATIONAL)
        assert decisions(lpt_fast(inst)) == decisions(lpt_naive(inst))


@pytest.mark.parametrize("n", [500, 2000])
def test_fast_matches_naive_equal_speeds_float(n):
    # In float mode two machines of one speed can round to one finish value.
    # lpt-naive must then take the lesser current finish time, as the
    # envelope's bucket heap does; taking the lesser id instead, it picked
    # other machines than lpt-fast on 8 (n = 500) and 14 (n = 2000) of
    # these 15 seeds.
    for seed in range(15):
        inst = generate(GenSpec(family="equal-speed", n=n, m=n // 10, seed=seed), Mode.F64)
        assert decisions(lpt_fast(inst)) == decisions(lpt_naive(inst)), f"seed {seed}"


def test_fast_matches_naive_deep_buckets():
    # Few speeds with many machines on each (5 speeds, 12 machines per
    # speed): one slope often wins job after job, so the envelope's rival
    # check answers many steps in place of a path replay.
    for seed in range(10):
        inst = generate(GenSpec(family="uniform-usp", n=300, m=60, seed=seed,
                                speed_range=(F(1), F(2)), grid=4), Mode.RATIONAL)
        fast, naive = lpt_fast(inst), lpt_naive(inst)
        assert decisions(fast) == decisions(naive), f"seed {seed}"
        assert fast.schedule == naive.schedule, f"seed {seed}"


@pytest.mark.parametrize("n", [300, 1000])
def test_fast_matches_naive_deep_buckets_float(n):
    # Deep buckets in float mode on speeds 1, 2, 4 and 8 with lengths on a
    # 1/4 grid, where every finish time and crossing is exact, so the two
    # schedulers must agree. With speeds such as 1.25 or 1.5 they need not:
    # lpt-naive compares rounded finish times and the tournament rounded
    # crossings (ROADMAP, float decision rule).
    for seed in range(10):
        rng = random.Random(seed)
        speeds = [float(2 ** rng.randrange(4)) for _ in range(60)]
        inst = usp(speeds, [rng.randint(4, 400) / 4 for _ in range(n)])
        assert decisions(lpt_fast(inst)) == decisions(lpt_naive(inst)), f"seed {seed}"


def test_fast_envelope_counter_identity():
    inst = generate(GenSpec(family="uniform-usp", n=50, m=7, seed=1), Mode.RATIONAL)
    c = lpt_fast(inst).counters
    assert c["inserts"] == 7 + 50
    assert c["deletes"] == 50
    assert c["queries"] == 50


def test_fast_requires_usp():
    inst = restricted([F(1)], [(F(1), {0})])
    with pytest.raises(UsageError):
        lpt_fast(inst)


# -- lpt_restricted --------------------------------------------------------------

def test_restricted_paper_example_exact():
    eps = F(1, 10)
    inst = restricted(
        [F(10), F(10) + eps],
        [(F(10), {1}), (F(10) + eps, {0, 1})],
    )
    trace = lpt_restricted(inst)
    assert trace.schedule.makespan == F(201, 101)
    opt = brute_force_opt(inst)
    assert opt.makespan == F(101, 100)
    assert trace.schedule.makespan / opt.makespan == F(20100, 10201)


def test_restricted_all_eligible_reduces_to_naive():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.randint(1, 5)
        n = rng.randint(1, 15)
        speeds = [F(rng.randint(1, 9)) for _ in range(m)]
        lengths = [F(rng.randint(1, 30)) for _ in range(n)]
        rin = restricted(speeds, [(l, set(range(m))) for l in lengths])
        uin = usp(speeds, lengths)
        assert decisions(lpt_restricted(rin)) == decisions(lpt_naive(uin))


def test_restricted_partial_eligibility_follows_tie_rule():
    # equal speeds and values that tie across speeds: each step must take
    # the eligible machine of least (finish value, -speed, id). Up to 12
    # machines: a frozenset holding ids of 8 and up need not iterate in
    # ascending id order, so an id tie must be broken, not inherited.
    rng = random.Random(8)
    for _ in range(200):
        m = rng.randint(2, 12)
        n = rng.randint(1, 12)
        speeds = [rng.choice([F(1), F(2), F(2), F(4)]) for _ in range(m)]
        jobs = [(F(rng.choice([1, 2, 4])), set(rng.sample(range(m), rng.randint(1, m))))
                for _ in range(n)]
        trace = lpt_restricted(restricted(speeds, jobs))
        T = [F(0)] * m
        for d in trace.decisions():
            l, elig = jobs[d.job]
            j = min(elig, key=lambda j: (T[j] + l / speeds[j], -speeds[j], j))
            assert (d.machine, d.before, d.after) == (j, T[j], T[j] + l / speeds[j])
            T[j] = d.after
        assert trace.counters["machine_scans"] == sum(len(e) for _, e in jobs)


def test_restricted_forced_assignment():
    inst = restricted([F(1), F(5)], [(F(4), {0}), (F(9), {0})])
    trace = lpt_restricted(inst)
    assert trace.schedule.assignment == ((1, 0), ())


# -- dwp_lpt ---------------------------------------------------------------------

def test_dwp_worked_example_trace():
    inst = dwp([(F(1), F(10)), (F(2), F(4))], [F(6), F(4), F(4)])
    trace = dwp_lpt(inst)
    assert [(d.job, d.machine, d.before, d.after) for d in trace.decisions()] == [
        (0, 0, F(0), F(6)),
        (1, 1, F(0), F(2)),
        (2, 1, F(2), F(4)),
    ]
    assert trace.schedule.makespan == F(6)
    assert brute_force_opt(inst).makespan == F(6)


def test_dwp_unbounded_batteries_match_fast():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randint(1, 6)
        n = rng.randint(1, 20)
        speeds = [F(rng.randint(1, 9)) for _ in range(m)]
        lengths = [F(rng.randint(1, 25)) for _ in range(n)]
        big = max(lengths) + F(rng.randint(0, 10))
        din = dwp([(v, big) for v in speeds], lengths)
        uin = usp(speeds, lengths)
        assert decisions(dwp_lpt(din)) == decisions(lpt_fast(uin))


def test_dwp_single_drone():
    inst = dwp([(F(2), F(9))], [F(1), F(8), F(3)])
    assert dwp_lpt(inst).schedule.makespan == F(6)


def test_dwp_infeasible_raises():
    inst = dwp([(F(1), F(5))], [F(6)])
    with pytest.raises(InfeasibleError,
                       match=r"^no admitted machine can carry job 0 \(length 6\)$"):
        dwp_lpt(inst)


def test_dwp_admission_is_monotone():
    # each drone enters the envelope at most once: total inserts stay at
    # admitted + n even across battery boundaries with ties
    inst = dwp([(F(1), F(10)), (F(2), F(10)), (F(1), F(4)), (F(3), F(2))],
               [F(10), F(4), F(4), F(2), F(1)])
    trace = dwp_lpt(inst)
    # inserts = admitted drones + one reinsert per parcel
    assert trace.counters["inserts"] == 4 + 5
    assert validate(inst, trace.schedule).ok


def test_dwp_battery_safety_fuzz():
    rng = random.Random(11)
    for _ in range(150):
        m = rng.randint(1, 5)
        n = rng.randint(1, 12)
        machines = [(F(rng.randint(1, 8)), F(rng.randint(1, 30))) for _ in range(m)]
        lengths = [F(rng.randint(1, 30)) for _ in range(n)]
        if max(d for _, d in machines) < max(lengths):
            machines[0] = (machines[0][0], max(lengths))
        inst = dwp(machines, lengths)
        assert validate(inst, dwp_lpt(inst).schedule).ok


def test_greedy_step_optimality_replay():
    # every decision beats every then-eligible alternative at that moment
    rng = random.Random(13)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 14)
        machines = [(F(rng.randint(1, 7)), F(rng.randint(1, 40))) for _ in range(m)]
        lengths = [F(rng.randint(1, 35)) for _ in range(n)]
        machines[rng.randrange(m)] = (machines[0][0], max(lengths))
        inst = dwp(machines, lengths)
        trace = dwp_lpt(inst)
        T = [F(0)] * m
        for d in trace.decisions():
            l = inst.lengths[d.job]
            for k in range(m):
                if inst.batteries[k] >= l:
                    assert d.after <= T[k] + l / inst.speeds[k]
            assert T[d.machine] == d.before
            T[d.machine] = d.after


def test_run_scheduler_dispatch():
    inst = usp([F(1)], [F(2)])
    assert run_scheduler("lpt-naive", inst).schedule.makespan == F(2)
    with pytest.raises(UsageError):
        run_scheduler("nope", inst)


def test_trace_json_shape():
    inst = usp([F(2)], [F(4)])
    rows = lpt_naive(inst).decisions_json()
    assert rows == [{"job": 0, "machine": 0, "before": "0", "after": "2"}]


def per_field_json(trace):
    return [{"job": i, "machine": j, "before": scalar_to_str(b), "after": scalar_to_str(a)}
            for i, j, b, a in trace.decisions()]


@pytest.mark.parametrize("mode", [Mode.RATIONAL, Mode.F64])
def test_decisions_json_matches_per_field_rendering(mode):
    rng = random.Random(0xD5)
    for seed in range(15):
        n, m = rng.randint(1, 40), rng.randint(1, 6)
        uin = generate(GenSpec(family="uniform-usp", n=n, m=m, seed=seed), mode)
        din = generate(GenSpec(family="uniform-dwp", n=n, m=m, seed=seed), mode)
        rin = restricted(uin.speeds, [(l, rng.sample(range(m), rng.randint(1, m)))
                                      for l in uin.lengths])
        for trace in (lpt_naive(uin), lpt_fast(uin), dwp_lpt(din), lpt_restricted(rin)):
            assert json.dumps(trace.decisions_json()) == json.dumps(per_field_json(trace))


def test_trace_output_pinned():
    """The traced output of every scheduler repeats per input: decisions as
    JSON, assignment and makespan, hashed over seeded instances in both
    modes (random eligibility sets for lpt-restricted). A change to how a
    trace is stored or rendered must leave this digest as it is."""
    digest = hashlib.sha256()
    rng = random.Random(0x7ACE)
    for mode in (Mode.RATIONAL, Mode.F64):
        for seed in range(12):
            n, m = rng.randint(1, 120), rng.randint(1, 12)
            uin = generate(GenSpec(family="uniform-usp", n=n, m=m, seed=seed), mode)
            deep = generate(GenSpec(family="uniform-usp", n=n, m=m, seed=seed,
                                    speed_range=(F(1), F(2)), grid=4), mode)
            din = generate(GenSpec(family="uniform-dwp", n=n, m=m, seed=seed), mode)
            # some drones unbounded: they are admitted first
            open_din = dwp([(v, None if rng.random() < 0.3 else d)
                            for v, d in zip(din.speeds, din.batteries)], din.lengths)
            rin = restricted(uin.speeds, [(l, rng.sample(range(m), rng.randint(1, m)))
                                          for l in uin.lengths])
            for trace in (lpt_naive(uin), lpt_fast(uin), lpt_naive(deep), lpt_fast(deep),
                          dwp_lpt(din), dwp_lpt(open_din), lpt_restricted(rin)):
                digest.update(json.dumps(trace.decisions_json()).encode())
                digest.update(json.dumps(trace.schedule.assignment).encode())
                digest.update(scalar_to_str(trace.schedule.makespan).encode())
    assert digest.hexdigest() == (
        "9f42a7ba8735aa0fd77ae8e525629912347130dea1bfbef6595305d65c6e2dfd")


def envelope_counter_digest(names):
    """sha256 over the named envelope counters of lpt_fast and dwp_lpt on
    generated instances, both modes, distinct speeds off and on."""
    digest = hashlib.sha256()
    for family, run in (("uniform-usp", lpt_fast), ("uniform-dwp", dwp_lpt),
                        ("equal-speed", lpt_fast)):
        for mode in (Mode.RATIONAL, Mode.F64):
            for distinct in (False, True):
                for seed in range(12):
                    spec = GenSpec(family=family, n=150 + 50 * seed, m=5 + 3 * seed,
                                   seed=seed, distinct_speeds=distinct)
                    counters = run(generate(spec, mode), record_trace=False).counters
                    picked = {name: counters[name] for name in names}
                    digest.update(json.dumps(picked, sort_keys=True).encode())
    return digest.hexdigest()


def test_envelope_counters_pinned():
    """The API call counts (inserts, deletes, queries) repeat per input and
    follow from the schedule alone, whatever the tournament does inside."""
    assert envelope_counter_digest(("inserts", "deletes", "queries")) == (
        "844dd64533f7f108264988b929203360723467ef677609b27192d3d28f4d9f95")


def test_envelope_work_counters_pinned():
    """The tournament's work (node replays, line comparisons) repeats per
    input, and the benchmark cites it as counts, so a change to the
    tournament that moves it must say so here."""
    assert envelope_counter_digest(("replays", "comparisons")) == (
        "adff87b79b6fae5dbf8b752578c05a1aae6c5893321eb3825040d8615b789978")


# -- rational mode on scaled integers ------------------------------------------

SPEED_PRIMES = (999_983, 1_000_003, 1_000_033, 1_000_037, 1_000_039, 7, 11, 13)
LENGTH_PRIMES = (2, 3, 101, 10 ** 9 + 7, 2 ** 61 - 1, 10 ** 18 + 9)


def replay_lpt(instance, eligible):
    """The LPT rule in plain Fractions: jobs by non-increasing length (ties by
    id), each to the machine of eligible(i) with the least finish value, then
    the greatest speed, then the least finish time, then the least id."""
    lengths, speeds = instance.lengths, instance.speeds
    T = [F(0)] * instance.m
    steps = []
    for i in sorted(range(instance.n), key=lambda i: (-lengths[i], i)):
        l = lengths[i]
        j = min(eligible(i), key=lambda j: (T[j] + l / speeds[j], -speeds[j], T[j], j))
        steps.append((i, j, T[j], T[j] + l / speeds[j]))
        T[j] += l / speeds[j]
    return steps


@st.composite
def exact_instances(draw):
    """Instance texts: speeds p/q with coprime numerators (a machine may
    repeat another's speed), lengths k/q with prime q, drawn from a small
    pool so that lengths and finish values tie."""
    m = draw(st.integers(1, 6))
    pool = [f"{p}/{draw(st.integers(1, 10 ** 6))}"
            for p in draw(st.permutations(SPEED_PRIMES))[:m]]
    speeds = [draw(st.sampled_from(pool)) for _ in range(m)]
    lengths = [f"{draw(st.integers(1, 10 ** 12))}/{draw(st.sampled_from(LENGTH_PRIMES))}"
               for _ in range(draw(st.integers(1, 8)))]
    jobs = [draw(st.sampled_from(lengths)) for _ in range(draw(st.integers(1, 40)))]
    cuts = [draw(st.sampled_from(jobs)) for _ in range(m)]
    eligible = [draw(st.sets(st.integers(0, m - 1), min_size=1)) for _ in jobs]
    head = f"{m} {len(jobs)}\n"
    return {
        "USP": "USP " + head + "".join(f"{v}\n" for v in speeds) + "".join(
            f"{l}\n" for l in jobs),
        "DWP": "DWP " + head + "".join(
            f"{v} {d}\n" for v, d in zip(speeds, [max(jobs, key=F)] + cuts[1:])) + "".join(
            f"{l}\n" for l in jobs),
        "RESTRICTED": "RESTRICTED " + head + "".join(f"{v}\n" for v in speeds) + "".join(
            f"{l} {len(e)} {' '.join(map(str, sorted(e)))}\n" for l, e in zip(jobs, eligible)),
    }


@settings(max_examples=150, deadline=None)
@given(texts=exact_instances())
def test_exact_schedulers_follow_the_fraction_lpt_rule(texts):
    # Every rational scheduler decides on scaled integers; its decisions,
    # finish times and schedule must be those of the Fraction replay.
    usp_inst = parse_instance_text(texts["USP"], Mode.RATIONAL)
    drones = parse_instance_text(texts["DWP"], Mode.RATIONAL)
    unbounded = Instance(Kind.DWP, usp_inst.speeds, usp_inst.batteries, usp_inst.lengths)
    restricted_inst = parse_instance_text(texts["RESTRICTED"], Mode.RATIONAL)
    everyone = range(usp_inst.m)
    runs = [
        (lpt_naive, usp_inst, lambda i: everyone),
        (lpt_fast, usp_inst, lambda i: everyone),
        (dwp_lpt, unbounded, lambda i: everyone),
        (dwp_lpt, drones, lambda i: [j for j in everyone
                                     if drones.batteries[j] >= drones.lengths[i]]),
        (lpt_restricted, restricted_inst, lambda i: restricted_inst.eligibility[i]),
    ]
    for scheduler, instance, eligible in runs:
        trace = scheduler(instance)
        want = replay_lpt(instance, eligible)
        assert decisions(trace) == want, trace.algorithm
        loads = [sum((instance.lengths[i] for i in jobs), F(0))
                 for jobs in trace.schedule.assignment]
        assert list(trace.schedule.loads) == loads
        assert trace.schedule.makespan == max(step[3] for step in want)
