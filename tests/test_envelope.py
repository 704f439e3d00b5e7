import json
import math
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from makespan import (GenSpec, Line, LowerEnvelope, Mode, UsageError, dwp_lpt,
                      envelope, generate, lpt_fast)
from makespan.scheduler import _Slope

from conftest import linear_scan_min


def raise_one(env, x):
    """One LPT step at x, as a one-point raise_each: (owner, value)."""
    owners, values = env.raise_each([x])
    return owners[0], values[0]


def four_line_envelope():
    env = LowerEnvelope()
    env.insert(Line(F(-1), F(4), 1))  # L1: y = -x + 4
    env.insert(Line(F(1), F(0), 2))   # L2: y = x
    env.insert(Line(F(2), F(0), 3))   # L3: y = 2x
    env.insert(Line(F(0), F(1), 4))   # L4: y = 1
    return env


def test_four_line_pieces():
    env = four_line_envelope()
    # pieces: L3 for x <= 0, L2 on [0, 1], L4 on [1, 3], L1 for x >= 3
    assert env.breakpoints() == [(None, 3), (F(0), 2), (F(1), 4), (F(3), 1)]


def test_four_line_breakpoint_dump_json():
    got = json.loads(four_line_envelope().breakpoints_json())
    assert got == [
        {"start": None, "owner": 3},
        {"start": "0", "owner": 2},
        {"start": "1", "owner": 4},
        {"start": "3", "owner": 1},
    ]


def test_four_line_queries():
    env = four_line_envelope()
    assert env.query_min(F(1, 2)) == (2, F(1, 2))
    assert env.query_min(F(2)) == (4, F(1))
    assert env.query_min(F(4)) == (1, F(0))


def test_four_line_delete_constant():
    env = four_line_envelope()
    env.delete(4)
    # At x = 2 the values of L1 (-x+4) and L2 (x) tie at 2; the canonical rule
    # picks the least slope, so L1 wins the breakpoint.
    owner, value = env.query_min(F(2))
    assert value == F(2)
    assert owner == 1
    assert env.query_min(F(2) - F(1, 1000)) == (2, F(1999, 1000))
    assert env.breakpoints() == [(None, 3), (F(0), 2), (F(2), 1)]


def test_single_line_queries():
    env = LowerEnvelope()
    env.insert(Line(F(3), F(1), 9))
    assert env.query_min(F(2)) == (9, F(7))
    assert env.query_min(F(0)) == (9, F(1))


def test_insert_then_query_at_zero():
    env = LowerEnvelope()
    env.insert(Line(F(-1), F(4), 1))
    assert env.query_min(F(0)) == (1, F(4))


def test_insert_delete_leaves_empty():
    env = LowerEnvelope()
    env.insert(Line(F(1), F(0), 0))
    env.delete(0)
    assert len(env) == 0
    with pytest.raises(UsageError):
        env.query_min(F(1))


def test_duplicate_owner_rejected():
    env = LowerEnvelope()
    env.insert(Line(F(1), F(0), 0))
    with pytest.raises(UsageError):
        env.insert(Line(F(2), F(0), 0))


def test_delete_unknown_owner_rejected():
    env = LowerEnvelope()
    with pytest.raises(UsageError):
        env.delete(42)


def test_negative_query_rejected():
    env = LowerEnvelope()
    env.insert(Line(F(1), F(0), 0))
    with pytest.raises(UsageError):
        env.query_min(F(-1))
    # +inf is no query point either: 0 * inf would make a value nan
    env = LowerEnvelope()
    env.insert(Line(0.0, 1.0, 0), Line(1.0, 0.0, 1))
    for bad in (math.inf, math.nan):
        with pytest.raises(UsageError, match="finite and >= 0"):
            env.query_min(bad)
        with pytest.raises(UsageError, match="finite and >= 0"):
            env.raise_each([bad])
    assert sorted(env.lines()) == [Line(0.0, 1.0, 0), Line(1.0, 0.0, 1)]
    env.check_invariants()


def test_identical_lines_tie_on_owner():
    env = LowerEnvelope()
    env.insert(Line(F(1), F(2), 7))
    env.insert(Line(F(1), F(2), 3))
    assert env.query_min(F(5)) == (3, F(7))
    assert env.query_min(F(5)) == linear_scan_min(env, F(5))


def test_parallel_shadowed_line_restored_on_delete():
    env = LowerEnvelope()
    env.insert(Line(F(1), F(0), 0))   # dominant
    env.insert(Line(F(1), F(5), 1))   # shadowed twin slope
    assert env.query_min(F(2)) == (0, F(2))
    env.delete(0)
    assert env.query_min(F(2)) == (1, F(7))
    env.check_invariants()


def test_delete_leaves_only_stored_lines_in_the_buckets():
    # a delete removes its line from the bucket at once, also when the line
    # is not the bucket's minimum, so no bucket keeps a deleted line
    env = LowerEnvelope()
    env.insert(*(Line(F(k % 3), F(k), k) for k in range(12)))
    assert env.query_min(F(2)) == (0, F(0))
    for owner in (9, 4, 11, 5):  # none of them its bucket's minimum
        env.delete(owner)
        assert sum(map(len, env._heaps)) == len(env)
        env.check_invariants()
    raise_one(env, F(1))  # the pending leaf's bucket loses a line that is not its top
    env.delete(6)
    assert sum(map(len, env._heaps)) == len(env) == 7
    env.check_invariants()
    assert env.query_min(F(1)) == linear_scan_min(env, F(1))


def test_delete_then_reinsert_restores_prior_state():
    env = four_line_envelope()
    before = env.breakpoints()
    env.insert(Line(F(1, 2), F(1, 4), 9))
    env.delete(9)
    assert env.breakpoints() == before


def test_random_ops_match_linear_scan_oracle():
    rng = random.Random(2024)
    for trial in range(12):
        env = LowerEnvelope()
        live = []
        nxt = 0
        for step in range(300):
            roll = rng.random()
            if roll < 0.45 or not live:
                line = Line(F(rng.randint(-40, 40), rng.randint(1, 8)),
                            F(rng.randint(-80, 80), rng.randint(1, 8)), nxt)
                env.insert(line)
                live.append(nxt)
                nxt += 1
            elif roll < 0.7:
                victim = live.pop(rng.randrange(len(live)))
                env.delete(victim)
            else:
                x = F(rng.randint(0, 300), rng.randint(1, 4))
                assert env.query_min(x) == linear_scan_min(env, x)
            if step % 50 == 0:
                env.check_invariants()
        env.check_invariants()


def test_degenerate_ties_match_oracle():
    rng = random.Random(77)
    env = LowerEnvelope()
    live = []
    nxt = 0
    for step in range(600):
        roll = rng.random()
        if roll < 0.5 or not live:
            env.insert(Line(F(rng.randint(1, 3)), F(rng.randint(0, 2)), nxt))
            live.append(nxt)
            nxt += 1
        elif roll < 0.75:
            victim = live.pop(rng.randrange(len(live)))
            env.delete(victim)
        else:
            x = F(rng.randint(0, 9), rng.randint(1, 3))
            assert env.query_min(x) == linear_scan_min(env, x)
    env.check_invariants()


def test_envelope_values_concave():
    # the lower envelope is concave: value at a midpoint is at least the
    # average of the endpoint values
    rng = random.Random(5)
    env = LowerEnvelope()
    for owner in range(60):
        env.insert(Line(F(rng.randint(1, 50), 7), F(rng.randint(0, 99), 3), owner))
    for _ in range(200):
        x1 = F(rng.randint(0, 400), rng.randint(1, 5))
        x2 = F(rng.randint(0, 400), rng.randint(1, 5))
        mid = (x1 + x2) / 2
        v1 = env.query_min(x1)[1]
        v2 = env.query_min(x2)[1]
        vm = env.query_min(mid)[1]
        assert vm >= (v1 + v2) / 2


def test_insert_only_comparisons_near_linear():
    # comparison growth for N inserts stays under c * N * log^2 N, with c
    # fitted once at the smallest size (plus headroom)
    counts = {}
    for exp in (3, 4, 5):
        n = 10 ** exp
        rng = random.Random(exp)
        env = LowerEnvelope()
        for owner in range(n):
            env.insert(Line(rng.random() * 100.0 + 0.01,
                            rng.random() * 100.0, owner))
        counts[n] = env.counters["comparisons"]
    c = 1.3 * counts[1000] / (1000 * math.log2(1000) ** 2)
    for n, got in counts.items():
        assert got <= c * n * math.log2(n) ** 2, (n, got, c)


def test_lpt_pattern_stays_exact():
    # the scheduler's query/delete/reinsert loop, checked against the oracle
    env = LowerEnvelope()
    m = 60
    for j in range(m):
        env.insert(Line(F(j + 1, 20), F(0), j))
    for i in range(240):
        x = F(240 - i, 3)
        got = env.query_min(x)
        assert got == linear_scan_min(env, x)
        owner, value = got
        env.delete(owner)
        env.insert(Line(F(owner + 1, 20), value, owner))
    env.check_invariants()


_coeff = st.fractions(min_value=F(-30), max_value=F(30), max_denominator=6)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _coeff, _coeff),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("query"), st.fractions(min_value=F(0), max_value=F(50),
                                                 max_denominator=4)),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(ops=_ops)
def test_hypothesis_ops_match_oracle(ops):
    env = LowerEnvelope()
    live = []
    nxt = 0
    for op in ops:
        if op[0] == "insert":
            env.insert(Line(op[1], op[2], nxt))
            live.append(nxt)
            nxt += 1
        elif op[0] == "delete":
            if live:
                env.delete(live.pop(op[1] % len(live)))
        elif live:
            assert env.query_min(op[1]) == linear_scan_min(env, op[1])
    env.check_invariants()


def test_counters_track_api_calls():
    env = four_line_envelope()
    env.query_min(F(1))
    env.delete(4)
    assert env.counters["inserts"] == 4
    assert env.counters["deletes"] == 1
    assert env.counters["queries"] == 1
    assert env.counters["comparisons"] > 0


def replays_per_level(scheduler, spec):
    """Tournament node replays per job, divided by the tree depth."""
    inst = generate(spec, Mode.F64)
    depth = math.ceil(math.log2(len(set(inst.speeds))))
    return scheduler(inst, record_trace=False).counters["replays"] / inst.n / depth


DISTINCT = dict(grid=10 ** 4, speed_range=(F(1), F(100)), distinct_speeds=True)


@pytest.mark.parametrize("m", [100, 800, 2000, 4000])
def test_lpt_distinct_speeds_one_path_replay_per_job(m):
    # LPT's delete-then-reinsert of one slope must cost one path replay, so
    # node replays per job stay near the tree depth, not twice it. lpt-fast
    # admits every machine in one batch, whose leaves are laid out in slope
    # order, so off-path certificates seldom fail: measured 0.97-1.02 per
    # level, against 1.08-1.22 with the leaves in machine-id order.
    spec = GenSpec(family="uniform-usp", n=10 * m, m=m, seed=m, **DISTINCT)
    assert replays_per_level(lpt_fast, spec) <= 1.1


@pytest.mark.parametrize("m", [100, 800, 2000, 4000])
@pytest.mark.parametrize("scheduler, family, options", [
    (dwp_lpt, "uniform-dwp", DISTINCT),
    (lpt_fast, "uniform-usp", {}),  # speeds 1..4 on a 1/100 grid: 301 shared slopes
    (dwp_lpt, "uniform-dwp", {}),  # the same slopes, drones admitted in stages
], ids=["dwp-distinct", "usp-shared", "dwp-shared"])
def test_lpt_replays_within_depth(scheduler, family, options, m):
    # At most one path replay per step, plus rare off-path repairs:
    # measured 0.77-0.86 per level (dwp-distinct), 0.28-0.95 (usp-shared,
    # where the rival check skips most replays once buckets fill) and
    # 0.77-0.92 (dwp-shared, rising with m: the rival check seldom answers
    # while newly admitted drones take turns with loaded ones).
    spec = GenSpec(family=family, n=10 * m, m=m, seed=m, **options)
    assert replays_per_level(scheduler, spec) <= 1.1


def test_single_slope_lpt_makes_no_comparisons():
    # every line shares one leaf: there is nothing to compare it with, so
    # the rival check must not count a comparison against an empty rival
    spec = GenSpec(family="equal-speed", n=1000, m=100, seed=1)
    counters = lpt_fast(generate(spec, Mode.F64), record_trace=False).counters
    assert counters["comparisons"] == 0
    assert counters["replays"] == 0


def test_same_slope_runs_with_side_updates_match_oracle():
    # LPT-like steps keep one slope winning (so its rival gets cached),
    # mixed with inserts and deletes on that slope and on others.
    rng = random.Random(11)
    env = LowerEnvelope()
    slopes = [F(1, 2), F(1), F(3, 2), F(2)]
    live = {}
    nxt = 0
    for _ in range(40):
        live[nxt] = rng.choice(slopes)
        env.insert(Line(live[nxt], F(rng.randint(0, 20)), nxt))
        nxt += 1
    x = F(400)
    for step in range(1500):
        roll = rng.random()
        if roll < 0.6:
            x -= F(rng.randint(0, 3), 7)
            x = max(x, F(0))
            got = env.query_min(x)
            assert got == linear_scan_min(env, x), step
            owner, value = got
            if rng.random() < 0.2:  # a lower line joins the winner's slope
                live[nxt] = live[owner]
                env.insert(Line(live[nxt], F(rng.randint(-20, 0)), nxt))
                nxt += 1
            env.delete(owner)
            env.insert(Line(live[owner], value, owner))
        elif roll < 0.8:
            live[nxt] = rng.choice(slopes)
            env.insert(Line(live[nxt], F(rng.randint(0, 40)), nxt))
            nxt += 1
        elif len(live) > 1:
            victim = rng.choice(sorted(live))
            del live[victim]
            env.delete(victim)
        if step % 100 == 0:
            env.check_invariants()
    env.check_invariants()


@pytest.mark.parametrize("mode", ["f64", "rational"])
@pytest.mark.parametrize("slopes", [3, 40, 400])
def test_raise_min_matches_query_delete_insert(mode, slopes):
    # A one-point raise_each must leave the envelope as the query/delete/
    # insert triple would: same answers and same counters at every step,
    # including while a leaf is pending, a rival is cached, or machines are
    # still admitted.
    rng = random.Random(slopes)
    num = float if mode == "f64" else F
    lines = [Line(1 / num(rng.randint(1, slopes)), num(0), j) for j in range(60)]
    fused, split = LowerEnvelope(), LowerEnvelope()
    for line in lines[:20]:
        fused.insert(line)
        split.insert(line)
    admitted = 20
    for step in range(600):
        x = num(1200 - 2 * step) / 7
        if admitted < len(lines) and step % 9 == 0:
            fused.insert(lines[admitted])
            split.insert(lines[admitted])
            admitted += 1
        got = raise_one(fused, x)
        owner, value = split.query_min(x)
        split.delete(owner)
        split.insert(Line(lines[owner].slope, value, owner))
        assert got == (owner, value), step
        assert fused.counters == split.counters, step
    assert sorted(fused.lines()) == sorted(split.lines())


def test_raise_min_mixed_with_updates_matches_oracle():
    # One-point LPT steps, mixed with inserts (some below the winner
    # on its own slope) and deletes, checked against the linear scan.
    rng = random.Random(23)
    env = LowerEnvelope()
    slopes = [F(1, 3), F(1, 2), F(1), F(3, 2), F(2)]
    live = {}
    nxt = 0
    for _ in range(30):
        live[nxt] = rng.choice(slopes)
        env.insert(Line(live[nxt], F(rng.randint(0, 20)), nxt))
        nxt += 1
    x = F(300)
    for step in range(1500):
        roll = rng.random()
        if roll < 0.6:
            x = max(x - F(rng.randint(0, 3), 5), F(0))
            want_owner, want_value = linear_scan_min(env, x)
            assert raise_one(env, x) == (want_owner, want_value), step
            raised = {line.owner: line.intercept for line in env.lines()}
            assert raised[want_owner] == want_value
            if rng.random() < 0.2:  # a lower line joins the winner's slope
                live[nxt] = live[want_owner]
                env.insert(Line(live[nxt], F(rng.randint(-20, 0)), nxt))
                nxt += 1
        elif roll < 0.8:
            live[nxt] = rng.choice(slopes)
            env.insert(Line(live[nxt], F(rng.randint(0, 40)), nxt))
            nxt += 1
        elif len(live) > 1:
            victim = rng.choice(sorted(live))
            del live[victim]
            env.delete(victim)
        if step % 100 == 0:
            env.check_invariants()
    env.check_invariants()


@pytest.mark.parametrize("slopes", [3, 5, 6, 7, 100, 287])
def test_batched_admission_then_mixed_ops_match_oracle(slopes):
    # One batch admits every slope, so the leaf row holds exactly `slopes`
    # leaves, mostly not a power of two. Random LPT steps, queries (x
    # rising as well as falling), batched inserts and deletes follow, each
    # checked against the linear scan and the invariants; last, single
    # inserts of new slopes grow the row past its exact size.
    rng = random.Random(slopes)
    pool = [F(k, 7) for k in rng.sample(range(1, 4 * slopes + 40), slopes + 12)]
    admitted = [Line(pool[j % slopes], F(rng.randint(0, 30)), j) for j in range(2 * slopes)]
    env = LowerEnvelope()
    env.insert(*admitted)
    assert env.counters["replays"] == slopes - 1  # one build of an exact row
    env.check_invariants()
    live = {line.owner: line.slope for line in admitted}
    nxt = len(admitted)
    x = F(rng.randint(50, 100))
    for step in range(150 if slopes < 100 else 60):
        roll = rng.random()
        if roll < 0.4:
            x = max(F(0), x - F(rng.randint(0, 9), 4))
            want = linear_scan_min(env, x)
            assert raise_one(env, x) == want, step
        elif roll < 0.6:
            x = max(F(0), x + F(rng.randint(-9, 9), 4))
            assert env.query_min(x) == linear_scan_min(env, x), step
        elif roll < 0.8:
            batch = []
            for _ in range(rng.randint(1, 3)):
                live[nxt] = rng.choice(pool[:slopes])
                batch.append(Line(live[nxt], F(rng.randint(-10, 40)), nxt))
                nxt += 1
            env.insert(*batch)
        elif len(live) > 1:
            victim = rng.choice(sorted(live))
            del live[victim]
            env.delete(victim)
        env.check_invariants()
    for slope in pool[slopes:]:
        env.insert(Line(slope, F(rng.randint(0, 30)), nxt))
        nxt += 1
        env.check_invariants()
        x = max(F(0), x - F(rng.randint(0, 9), 4))
        want = linear_scan_min(env, x)
        assert raise_one(env, x) == want
        env.check_invariants()


def test_batch_with_a_taken_or_repeated_owner_is_rejected_whole():
    env = LowerEnvelope()
    env.insert(Line(F(1), F(0), 0))
    for batch in ([Line(F(2), F(0), 1), Line(F(3), F(0), 0)],
                  [Line(F(2), F(0), 1), Line(F(3), F(0), 1)]):
        with pytest.raises(UsageError):
            env.insert(*batch)
        assert sorted(env.lines()) == [Line(F(1), F(0), 0)]
    env.check_invariants()


def run_start_state(env, start, num, slopes):
    """Admit 60 lines on up to `slopes` slopes, take LPT steps, and leave the
    envelope in the named start state; returns the next query point."""
    rng = random.Random(slopes)
    inv = [1 / num(rng.randint(1, slopes)) for _ in range(60)]
    env.insert(*(Line(s, num(0), j) for j, s in enumerate(inv)))
    x = num(5000) / 7
    for _ in range(25):
        raise_one(env, x)
        x -= num(3) / 7
    if start == "pending-delete":
        env.delete(env.query_min(x)[0])
        assert env._dirty is not None
    elif start == "insert-below-pending":
        owner, _ = raise_one(env, x)
        env.insert(Line(inv[owner], num(-1), 60))  # below every line of the pending leaf
    elif start == "cached-rival":
        env.insert(Line(inv[0], num(-2), 60))  # far below the loads: it keeps winning
        x /= 1000
        for _ in range(50):
            raise_one(env, x)
            if env._rival is not None:
                break
        assert env._rival is not None
    return x


@pytest.mark.parametrize("mode", ["f64", "rational"])
@pytest.mark.parametrize("slopes", [1, 3, 40, 400])
@pytest.mark.parametrize("start", ["pending-delete", "insert-below-pending",
                                   "cached-rival", "empty-run"])
def test_raise_each_matches_raise_min_steps(mode, slopes, start):
    # One raise_each call must give the answers, counters and lines that
    # one-point calls at each point in turn give, whatever state the run
    # starts in.
    num = float if mode == "f64" else F
    run, steps = LowerEnvelope(), LowerEnvelope()
    x = run_start_state(run, start, num, slopes)
    assert run_start_state(steps, start, num, slopes) == x
    assert run.counters == steps.counters
    xs = [] if start == "empty-run" else [x * (400 - k) / 400 for k in range(400)]
    owners, values = run.raise_each(xs)
    assert list(zip(owners, values)) == [raise_one(steps, x) for x in xs]
    assert run.counters == steps.counters
    assert sorted(run.lines()) == sorted(steps.lines())
    if mode == "rational":  # the check compares by value: exact only here
        run.check_invariants()


def test_raise_each_stops_at_a_bad_point_after_the_steps_before_it():
    run, steps = four_line_envelope(), four_line_envelope()
    with pytest.raises(UsageError):
        run.raise_each([F(5), F(4), F(-1), F(3)])
    raise_one(steps, F(5))
    raise_one(steps, F(4))
    with pytest.raises(UsageError):
        raise_one(steps, F(-1))
    assert run.counters == steps.counters
    assert sorted(run.lines()) == sorted(steps.lines())
    run.check_invariants()
    assert LowerEnvelope().raise_each([]) == ([], [])
    with pytest.raises(UsageError):
        LowerEnvelope().raise_each([F(1)])


def admitting_run(num, seed):
    """Ten lines on three slopes, 300 falling points and six admissions,
    run as separate insert and one-point raise_each calls: returns (start
    lines, points, admit, the envelope after the calls). The batches come
    before the first step, into the pending leaf's bucket, and with a new
    slope each, which grows the row mid-run."""
    rng = random.Random(seed)
    slopes = [1 / num(s) for s in rng.sample(range(1, 50), 9)]
    start = [Line(slopes[j % 3], num(0), j) for j in range(10)]
    xs = [num(3000 - 10 * k) / 7 for k in range(300)]
    at = [0] + sorted(rng.sample(range(1, 300), 6))
    env, known, owner, admit = LowerEnvelope(), 3, 10, []
    env.insert(*start)
    for k, x in enumerate(xs):
        if k in at:
            if k == at[3]:  # into the pending leaf's bucket
                first = next(line.slope for line in env.lines() if line.owner == won)
                assert env._leaf_of[first] == env._dirty
            elif k == 0:  # before the first step
                first = slopes[0]
            else:  # a new slope
                first, known = slopes[known], known + 1
            lines = [Line(first, num(rng.randrange(-5, 40)), owner)]
            lines += [Line(rng.choice(slopes[:known]), num(rng.randrange(-5, 40)), owner + i)
                      for i in range(1, rng.randint(1, 4))]
            owner += len(lines)
            admit.append((k, lines))
            env.insert(*lines)
        won, _ = raise_one(env, x)
    return start, xs, admit, env


@pytest.mark.parametrize("mode", ["f64", "rational"])
@pytest.mark.parametrize("seed", range(4))
def test_raise_each_admissions_match_separate_calls(mode, seed):
    # One raise_each(xs, admit) call must leave the answers, counters, lines
    # and tournament state that separate insert and raise_each calls with
    # the same batches leave.
    num = float if mode == "f64" else F
    start, xs, admit, steps = admitting_run(num, seed)
    run = LowerEnvelope()
    run.insert(*start)
    owners, values = run.raise_each(xs, admit)
    again = LowerEnvelope()
    again.insert(*start)
    for (k, lines), (end, _) in zip(admit, admit[1:] + [(len(xs), None)]):
        again.insert(*lines)
        assert list(zip(*again.raise_each(xs[k:end]))) == list(zip(owners, values))[k:end]
    assert run.counters == steps.counters == again.counters
    assert sorted(run.lines()) == sorted(steps.lines())
    state = [(e._cap, e._dirty, e._x, e._horizon, e._streak) for e in (run, steps, again)]
    assert state[0] == state[1] == state[2]
    assert run._cap == 12  # two batches grew the row mid-run
    if mode == "rational":  # the check compares by value: exact only here
        run.check_invariants()
        steps.check_invariants()


def test_raise_each_admits_into_an_empty_envelope():
    run, steps = LowerEnvelope(), LowerEnvelope()
    lines = [Line(F(1), F(0), 0), Line(F(1, 2), F(0), 1)]
    assert run.raise_each([F(4), F(3)], [(0, lines)]) == ([1, 0], [F(2), F(3)])
    steps.insert(*lines)
    steps.raise_each([F(4), F(3)])
    assert run.counters == steps.counters


@pytest.mark.parametrize("admit", [
    [(3, [Line(F(1), F(0), 9)]), (2, [Line(F(2), F(0), 8)])],  # out of order
    [(4, [Line(F(1), F(0), 9)])],  # past the last step
    [(-1, [Line(F(1), F(0), 9)])],
], ids=["out-of-order", "past-the-end", "negative"])
def test_raise_each_rejects_bad_admissions_before_any_step(admit):
    run, untouched = four_line_envelope(), four_line_envelope()
    with pytest.raises(UsageError):
        run.raise_each([F(5), F(4), F(3), F(2)], admit)
    assert run.counters == untouched.counters
    assert sorted(run.lines()) == sorted(untouched.lines())


def test_integer_slope_divides_rounding_up():
    # the exact LPT loops' slopes: an integer over their difference is the
    # ceiling of the quotient, for either sign of the difference
    assert 20 / (_Slope(7) - _Slope(4)) == 7
    assert -20 / (_Slope(7) - _Slope(4)) == -6
    assert 20 / (_Slope(4) - _Slope(7)) == -6
    assert 15 / (_Slope(7) - _Slope(4)) == 5
    assert type(_Slope(7) * 3 + 1) is int


@pytest.mark.parametrize("steep, flat", [
    ((7, 0), (4, 15)),    # crossing at 5, an integer
    ((7, 0), (4, 20)),    # crossing at 20/3, between 6 and 7
    ((9, 2), (2, 44)),    # crossing at 6
    ((9, 2), (5, 40)),    # crossing at 19/2
])
def test_integer_crossing_matches_fraction_envelope(steep, flat):
    # At integer points just below, at and above the crossing c, an envelope
    # of _Slope lines (which finds the crossing as ceil(c)) answers as the
    # Fraction envelope of the same lines, and so does a run of LPT steps.
    c = F(flat[1] - steep[1], steep[0] - flat[0])
    points = sorted({math.floor(c) - 1, math.floor(c), math.ceil(c), math.ceil(c) + 1})
    lines = [(steep, 0), (flat, 1), ((3, 60), 2)]
    exact, rational = LowerEnvelope(), LowerEnvelope()
    exact.insert(*(Line(_Slope(s), b, owner) for (s, b), owner in lines))
    rational.insert(*(Line(F(s), F(b), owner) for (s, b), owner in lines))
    for x in points[::-1] + points + points[::-1]:
        assert exact.query_min(x) == rational.query_min(F(x)), x
    exact.check_invariants()
    assert exact.counters == rational.counters
    xs = [x for x in range(math.ceil(c) + 3, -1, -1) for _ in range(2)]
    assert exact.raise_each(xs) == rational.raise_each(list(map(F, xs)))
    assert exact.counters == rational.counters
    exact.check_invariants()


@pytest.mark.parametrize("slopes", [3, 40])
def test_query_at_the_horizon_replays_every_node_once(slopes):
    # A falling run of LPT steps lets steeper lines win, so the horizon is
    # finite but above every point of the run. A query at or above it may
    # find a steeper winner beaten: it replays all C - 1 internal nodes of a
    # row of C leaves once, drops the pending leaf and the rival, and
    # answers as the scan does.
    rng = random.Random(slopes)
    env = LowerEnvelope()
    env.insert(*(Line(F(1, rng.randint(1, slopes)), F(0), j) for j in range(60)))
    assert env._horizon == math.inf  # zero intercepts at x = 0: the flatter line wins
    for scale in (1, 2):
        start = env._x or F(5000, 7)
        env.raise_each([start * (300 - k) / 300 for k in range(100)])
        assert env._x < env._horizon < math.inf and env._dirty is not None
        env.check_invariants()
        x = scale * env._horizon
        before = env.counters["replays"]
        assert env.query_min(x) == linear_scan_min(env, x)
        assert env.counters["replays"] - before == env._cap - 1
        assert env._dirty is None and x < env._horizon
        env.check_invariants()


@pytest.mark.parametrize("mode", [Mode.F64, Mode.RATIONAL])
@pytest.mark.parametrize("scheduler, family, options", [
    (lpt_fast, "uniform-usp", DISTINCT),
    (lpt_fast, "uniform-usp", {}),
    (dwp_lpt, "uniform-dwp", DISTINCT),
    (dwp_lpt, "uniform-dwp", {}),
], ids=["usp-distinct", "usp-shared", "dwp-distinct", "dwp-shared"])
def test_lpt_never_rebuilds_after_admission(monkeypatch, mode, scheduler, family, options):
    # LPT's query points only fall and later batches are admitted at the
    # last of them, so no query reaches the horizon: the only full replays
    # are the builds of the leaf row.
    calls = {"_grow": 0, "_rebuild": 0}
    for name in calls:
        def spy(self, *args, method=getattr(LowerEnvelope, name), name=name):
            calls[name] += 1
            method(self, *args)
        monkeypatch.setattr(LowerEnvelope, name, spy)
    for seed in range(4):
        spec = GenSpec(family=family, n=600, m=60, seed=seed, **options)
        scheduler(generate(spec, mode), record_trace=False)
    assert calls["_rebuild"] == calls["_grow"] >= 4, calls


def test_pinned_lpt_counters_on_the_median_fleet_instance():
    # f64 lpt-fast on the median fleet-distinct size: the tournament's
    # replays and comparisons are counts, fixed by the instance, and must
    # not move with the tournament's storage
    spec = GenSpec(family="uniform-usp", n=2828, m=282, seed=901, **DISTINCT)
    counters = lpt_fast(generate(spec, Mode.F64), record_trace=False).counters
    assert counters["replays"] == counters["comparisons"] == 23455


class _Lines(dict):
    """owner -> Line: a plain model of an envelope's lines, for linear_scan_min."""

    def lines(self):
        return list(self.values())


def test_index_tables_grow_under_a_running_envelope(monkeypatch):
    # Every envelope shares the index tables (here fresh ones, so the sizes
    # do not depend on the tests run before). An envelope's first batch
    # builds them to 128 ids; its row then doubles past that in an
    # admission between two LPT steps, which grows them in place under the
    # running raise_each. An envelope built after it reads the same lists.
    # Both answer as the scan does.
    names = ("_PARENT", "_SIBLING", "_DEPTH", "_LEFT", "_RIGHT")
    for name in names:
        monkeypatch.setattr(envelope, name, [])
    tables = [getattr(envelope, name) for name in names]
    for size, points in ((64, 12), (21, 6)):
        rng = random.Random(size)
        env, model = LowerEnvelope(), _Lines()
        start = [Line(_Slope(2 * j + 1), 0, j) for j in range(size)]
        model.update((line.owner, line) for line in start)
        env.insert(*start)
        if size == 64:
            assert len(envelope._PARENT) == 128
        batch = [Line(_Slope(2 * j), rng.randint(0, 50), size + j) for j in range(1, size + 1)]
        xs = sorted((rng.randint(1, 10 ** 4) for _ in range(points)), reverse=True)
        owners, values = env.raise_each(xs, [(points // 2, batch)])
        for k, (x, owner, value) in enumerate(zip(xs, owners, values)):
            if k == points // 2:
                model.update((line.owner, line) for line in batch)
            assert (owner, value) == linear_scan_min(model, x)
            model[owner] = model[owner]._replace(intercept=value)
        assert env._cap == 2 * size
        env.check_invariants()
        for x in (0, 7, xs[-1], 3 * xs[0]):
            assert env.query_min(x) == linear_scan_min(model, x)
        env.check_invariants()
        assert all(getattr(envelope, name) is t for name, t in zip(names, tables))
        assert len(envelope._PARENT) == 256 == 2 * len(envelope._LEFT)


def test_index_tables_grow_once_under_racing_threads(monkeypatch):
    # Envelopes in different threads share the tables: growth from eight
    # threads at once, switching as often as the interpreter allows, must
    # leave every entry exactly once and right.
    for name in ("_PARENT", "_SIBLING", "_DEPTH", "_LEFT", "_RIGHT"):
        monkeypatch.setattr(envelope, name, [])
    sizes = [2 ** k + 1 for k in range(9, 17)]
    random.Random(5).shuffle(sizes)
    threads = [threading.Thread(target=envelope._index_tables, args=(size,)) for size in sizes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    ids = range(2 ** 17)
    assert envelope._PARENT == [k >> 1 for k in ids]
    assert envelope._SIBLING == [k ^ 1 for k in ids]
    assert envelope._DEPTH == [k.bit_length() - 1 for k in ids]
    assert envelope._LEFT == [2 * k for k in ids[:2 ** 16]]
    assert envelope._RIGHT == [2 * k + 1 for k in ids[:2 ** 16]]


class TournamentMachine(RuleBasedStateMachine):
    """Random calls on one Fraction-line envelope: batch inserts on shared
    slopes (new slopes grow the row), deletes of a bucket's minimum and of
    another line, queries at any x >= 0, and raise_each runs at falling or
    arbitrary points with admissions between their steps. Every answer is
    checked against a linear scan of a plain model of the lines, and after
    every call check_invariants runs and the lines match the model."""

    slopes = st.integers(-8, 8)
    intercepts = st.integers(-60, 120).map(lambda k: F(k, 3))
    points = st.integers(0, 240).map(lambda k: F(k, 4))

    @staticmethod
    def slope(k):
        return F(k, 2)

    def __init__(self):
        super().__init__()
        self.env = LowerEnvelope()
        self.model = _Lines()
        self.owner = 0

    def fresh(self, pairs) -> list:
        """Lines with new owners, not yet in the model."""
        lines = [Line(self.slope(k), b, self.owner + i) for i, (k, b) in enumerate(pairs)]
        self.owner += len(lines)
        return lines

    def buckets(self) -> list:
        """The model's lines by slope, each bucket least (intercept, owner) first."""
        by_slope = {}
        for line in self.model.values():
            by_slope.setdefault(line.slope, []).append(line)
        return [sorted(lines, key=lambda l: (l.intercept, l.owner))
                for _, lines in sorted(by_slope.items())]

    def _batch(self):
        return st.lists(st.tuples(self.slopes, self.intercepts), min_size=1, max_size=6)

    @rule(data=st.data())
    def insert(self, data):
        lines = self.fresh(data.draw(self._batch()))
        self.env.insert(*lines)
        self.model.update((line.owner, line) for line in lines)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_bucket_minimum(self, data):
        owner = data.draw(st.sampled_from(self.buckets()))[0].owner
        self.env.delete(owner)
        del self.model[owner]

    @precondition(lambda self: len(self.model) > len({l.slope for l in self.model.values()}))
    @rule(data=st.data())
    def delete_other_line(self, data):
        bucket = data.draw(st.sampled_from([b for b in self.buckets() if len(b) > 1]))
        owner = data.draw(st.sampled_from(bucket[1:])).owner
        self.env.delete(owner)
        del self.model[owner]

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def query(self, data):
        x = data.draw(self.points)
        assert self.env.query_min(x) == linear_scan_min(self.model, x)

    @rule(data=st.data(), falling=st.booleans())
    def raise_each(self, data, falling):
        xs = data.draw(st.lists(self.points, min_size=1, max_size=8))
        if falling:
            xs.sort(reverse=True)
        steps = data.draw(st.lists(st.integers(0, len(xs) - 1), max_size=3))
        admit = [(k, self.fresh(data.draw(self._batch()))) for k in sorted(steps)]
        if not self.model and not (admit and admit[0][0] == 0):
            return  # nothing to query before the first admission
        want, pending = [], list(admit)
        for k, x in enumerate(xs):
            while pending and pending[0][0] == k:
                self.model.update((line.owner, line) for line in pending.pop(0)[1])
            owner, value = linear_scan_min(self.model, x)
            want.append((owner, value))
            self.model[owner] = self.model[owner]._replace(intercept=value)
        assert list(zip(*self.env.raise_each(xs, admit))) == want

    @invariant()
    def matches_model(self):
        self.env.check_invariants()
        assert {line.owner: line for line in self.env.lines()} == self.model


class IntegerTournamentMachine(TournamentMachine):
    """The same calls on the exact LPT loops' lines: _Slope slopes, integer
    intercepts and integer points, where the tournament rounds each
    crossing up and still decides exactly."""

    intercepts = st.integers(-20, 40)
    points = st.integers(0, 60)
    slope = staticmethod(_Slope)


_MACHINE_SETTINGS = settings(max_examples=100, stateful_step_count=30, deadline=None)
TestTournamentMachine = TournamentMachine.TestCase
TestTournamentMachine.settings = _MACHINE_SETTINGS
TestIntegerTournamentMachine = IntegerTournamentMachine.TestCase
TestIntegerTournamentMachine.settings = _MACHINE_SETTINGS
