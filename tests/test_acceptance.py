"""Acceptance battery: one test per criterion, each at its stated size and
tolerance, printing one PASS line on success (run with -s to see them live).

Budgets are generous on a laptop-class machine; the heavy sweeps stay well
inside the limits stated in their docstrings.
"""

import json
import math
import random
import statistics
import sys
import time
from fractions import Fraction as F

from makespan import (GenSpec, Line, LowerEnvelope, Mode, bench_scaling,
                      brute_force_opt, dwp_lpt, generate, lpt_fast, lpt_naive,
                      lpt_restricted, ratio_sweep, round_r, validate)

from conftest import linear_scan_min, restricted


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}", file=sys.stderr, flush=True)


def test_01_envelope_oracle_equivalence():
    """10^4 random insert/delete ops interleaved with 10^4 queries, rational
    coefficients; every query matches the linear-scan oracle exactly (< 60 s)."""
    rng = random.Random(0xE0)
    env = LowerEnvelope()
    live = []
    nxt = 0
    structural = queries = 0
    t0 = time.perf_counter()
    while structural < 10_000 or queries < 10_000:
        do_query = queries < 10_000 and (structural >= 10_000 or rng.random() < 0.5)
        if do_query and live:
            x = F(rng.randint(0, 500), rng.randint(1, 6))
            assert env.query_min(x) == linear_scan_min(env, x)
            queries += 1
        elif structural < 10_000:
            if live and rng.random() < 0.45:
                victim = live.pop(rng.randrange(len(live)))
                env.delete(victim)
            else:
                env.insert(Line(F(rng.randint(-60, 60), rng.randint(1, 9)),
                                F(rng.randint(-120, 120), rng.randint(1, 9)), nxt))
                live.append(nxt)
                nxt += 1
            structural += 1
    elapsed = time.perf_counter() - t0
    env.check_invariants()
    assert elapsed < 60
    report("1 envelope-oracle-equivalence",
           f"10^4 updates + 10^4 queries exact in {elapsed:.1f}s")


def test_02_four_line_golden():
    """Inserting the four canonical lines yields pieces (L3 | L2 | L4 | L1)
    with breakpoints 0, 1, 3; the dump matches exactly in rational mode."""
    env = LowerEnvelope()
    env.insert(Line(F(-1), F(4), 1))
    env.insert(Line(F(1), F(0), 2))
    env.insert(Line(F(2), F(0), 3))
    env.insert(Line(F(0), F(1), 4))
    got = json.loads(env.breakpoints_json())
    assert got == [
        {"start": None, "owner": 3},
        {"start": "0", "owner": 2},
        {"start": "1", "owner": 4},
        {"start": "3", "owner": 1},
    ]
    report("2 four-line-golden", "piece dump L3|L2|L4|L1 at 0,1,3 exact")


def test_03_naive_fast_equivalence():
    """1000 seeded USP instances (n <= 2000, m <= 200, rational mode):
    lpt_naive and lpt_fast produce bit-identical traces (< 5 min)."""
    t0 = time.perf_counter()
    checked = 0
    for k in range(1000):
        rng = random.Random(3_000_000 + k)
        n = max(1, int(2000 ** rng.random()))
        m = max(1, int(200 ** rng.random()))
        inst = generate(GenSpec(family="uniform-usp", n=n, m=m, seed=k),
                        Mode.RATIONAL)
        fast = lpt_fast(inst)
        naive = lpt_naive(inst)
        assert fast.job_ids == naive.job_ids, f"seed {k}"
        assert fast.machine_ids == naive.machine_ids, f"seed {k}"
        assert fast.before == naive.before and fast.after == naive.after, f"seed {k}"
        assert fast.schedule == naive.schedule, f"seed {k}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 1000 and elapsed < 300
    report("3 naive-fast-equivalence", f"1000 seeds bit-identical in {elapsed:.0f}s")


def test_04_phi_bound_dwp():
    """10^4 seeded feasible DWP instances (n <= 9, m <= 3): the drone
    schedule never exceeds phi times the exact optimum, decided by the
    rational x^2 <= x + 1 predicate. Zero violations (< 10 min)."""
    t0 = time.perf_counter()
    result = ratio_sweep("uniform-dwp", count=10_000, bound="phi",
                         seed=0, n_max=9, m_max=3)
    elapsed = time.perf_counter() - t0
    assert result.ok, result.violations[:1]
    assert result.max_ratio >= 1
    assert elapsed < 600
    report("4 phi-bound-dwp",
           f"10^4 instances, max ratio {float(result.max_ratio):.4f} <= phi "
           f"in {elapsed:.0f}s")


def test_05_usp_ratio_ceilings():
    """The same sweep with equal speeds stays within 4/3, and with distinct
    speeds within 1.58. Zero violations."""
    equal = ratio_sweep("equal-speed", count=10_000, bound=F(4, 3),
                        algorithm="lpt-fast", seed=0, n_max=9, m_max=3)
    assert equal.ok, equal.violations[:1]
    distinct = ratio_sweep("uniform-usp", count=10_000, bound=F(158, 100),
                           algorithm="lpt-fast", seed=0, n_max=9, m_max=3,
                           distinct_speeds=True)
    assert distinct.ok, distinct.violations[:1]
    report("5 usp-ratio-ceilings",
           f"equal-speed max {float(equal.max_ratio):.4f} <= 4/3; "
           f"distinct max {float(distinct.max_ratio):.4f} <= 1.58")


def test_06_restricted_example_values():
    """The two-machine eligibility example: LPT 201/101, optimum 101/100,
    ratio 20100/10201 exactly at eps=1/10; ratio > 1.997 at eps=1/1000."""
    inst = generate(GenSpec(family="paper-4.3", eps=F(1, 10)))
    trace = lpt_restricted(inst)
    opt = brute_force_opt(inst)
    assert trace.schedule.makespan == F(201, 101)
    assert opt.makespan == F(101, 100)
    assert trace.schedule.makespan / opt.makespan == F(20100, 10201)

    tiny = generate(GenSpec(family="paper-4.3", eps=F(1, 1000)))
    ratio = lpt_restricted(tiny).schedule.makespan / brute_force_opt(tiny).makespan
    assert ratio > F(1997, 1000)
    report("6 restricted-example",
           f"eps=1/10 ratio 20100/10201 exact; eps=1/1000 ratio "
           f"{float(ratio):.5f} > 1.997")


def test_07_near_linear_scaling():
    """Float mode: lpt_fast at (1e4,1e3), (1e5,1e4), (1e6,1e5) with median
    wall-time ratio <= 13 per decade (three interleaved rounds, each timing
    every size once, so host drift reaches all sizes alike), exact envelope
    counters (m + n inserts, n deletes, n queries) and node replays per job
    <= 1.5 * ceil(log2 S) for S distinct slopes; lpt_naive doubles n = m
    from 1e4 to 2e4 with time ratio >= 3 (< 5 min total)."""
    t0 = time.perf_counter()
    sizes = [(10_000, 1_000), (100_000, 10_000), (1_000_000, 100_000)]
    fast = bench_scaling("lpt-fast", sizes, repetitions=3, seed=7)
    levels = []
    for idx, r in enumerate(fast):
        assert r.counters["inserts"] == r.m + r.n
        assert r.counters["deletes"] == r.n
        assert r.counters["queries"] == r.n
        # bench_scaling seeds size idx with seed + 7919 * idx; speeds are
        # drawn before lengths, so n = 1 gives the same speeds
        spec = GenSpec(family="uniform-usp", n=1, m=r.m, seed=7 + 7919 * idx)
        depth = math.ceil(math.log2(len(set(generate(spec, Mode.F64).speeds))))
        per_job = r.counters["replays"] / r.n
        assert per_job <= 1.5 * depth, f"{per_job:.2f} replays per job at m={r.m}"
        levels.append(per_job / depth)
    r1 = fast[1].median_s / fast[0].median_s
    r2 = fast[2].median_s / fast[1].median_s
    assert r1 <= 13, f"decade 1 ratio {r1:.1f}"
    assert r2 <= 13, f"decade 2 ratio {r2:.1f}"

    naive = bench_scaling("lpt-naive", [(10_000, 10_000), (20_000, 20_000)],
                          repetitions=1, seed=11)
    r_naive = naive[1].median_s / naive[0].median_s
    assert r_naive >= 3, f"naive scaling ratio {r_naive:.2f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report("7 near-linear-scaling",
           f"fast decade ratios {r1:.1f}, {r2:.1f} <= 13; naive 2x-size ratio "
           f"{r_naive:.2f} >= 3; counters exact; replays per job per level "
           f"{', '.join(f'{v:.2f}' for v in levels)} <= 1.5; {elapsed:.0f}s")


def test_08_rounding_sandwich():
    """10^5 random rational x in [1, 1000]: x >= R(x) exactly and
    phi*R(x) >= x via the exact (x/R(x))^2 <= x/R(x) + 1 predicate.
    Zero violations."""
    rng = random.Random(0x5A)
    checked = 0
    while checked < 100_000:
        x = F(rng.randint(1_000, 1_000_000), rng.randint(1, 1000))
        if not 1 <= x <= 1000:
            continue
        r = round_r(x)
        assert r <= x
        q = x / r
        assert q * q <= q + 1
        checked += 1
    report("8 rounding-sandwich", "10^5 samples, x >= R(x) >= x/phi exact")


def test_09_battery_safety_fuzz():
    """10^5 fuzzed feasible DWP instances: every drone schedule passes full
    validation (partition, battery, load and makespan recomputation)."""
    t0 = time.perf_counter()
    for k in range(100_000):
        rng = random.Random(9_000_000 + k)
        spec = GenSpec(family="uniform-dwp", n=rng.randint(1, 12),
                       m=rng.randint(1, 4), seed=k,
                       length_range=(F(1), F(40)),
                       battery_range=(F(1), F(40)))
        inst = generate(spec, Mode.RATIONAL)
        schedule = dwp_lpt(inst).schedule
        rep = validate(inst, schedule)
        assert rep.ok, (k, rep.violations[:2])
    elapsed = time.perf_counter() - t0
    report("9 battery-safety-fuzz", f"10^5 instances, zero violations in {elapsed:.0f}s")
