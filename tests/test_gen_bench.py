import hashlib
import json
import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, strategies as st

from makespan import (GenSpec, Kind, Mode, UsageError, bench_scaling,
                      feasibility_check, generate, ratio_sweep, validate,
                      write_instance)
from makespan.gen_bench import DEFAULT_ALGORITHM, FAMILIES, _hist_bin, decimal_str
from makespan.cli import parse_instance_text


def test_families_registry():
    assert set(DEFAULT_ALGORITHM) == set(FAMILIES)


def test_generate_deterministic_bytes():
    spec = GenSpec(family="uniform-dwp", n=12, m=4, seed=99)
    a = write_instance(generate(spec))
    b = write_instance(generate(spec))
    assert a == b
    c = write_instance(generate(GenSpec(family="uniform-dwp", n=12, m=4, seed=100)))
    assert a != c


def test_generated_bytes_pinned():
    """sha256 over write_instance(generate(spec, mode)) for every family, both
    modes, distinct speeds off and on, default and fine grids: the draw order
    is the byte-stability contract, so this digest never changes."""
    digest = hashlib.sha256()
    for family in FAMILIES:
        for mode in (Mode.RATIONAL, Mode.F64):
            for distinct in (False, True):
                for seed in range(12):
                    specs = (
                        GenSpec(family=family, n=1 + 7 * seed, m=1 + seed % 5,
                                seed=seed, distinct_speeds=distinct),
                        GenSpec(family=family, n=40, m=9, seed=1000 + seed, grid=10 ** 4,
                                speed_range=(F(1), F(100)), length_range=(F(1, 3), F(250)),
                                battery_range=(F(5), F(60)), distinct_speeds=distinct),
                    )
                    for spec in specs:
                        digest.update(write_instance(generate(spec, mode)).encode())
    assert digest.hexdigest() == (
        "d3530fcc6dcec03385f3f738b0c09dc0c2ad238791c5195231933adf409f17a4")


def randint_instance(spec):
    """generate()'s draws rebuilt with one randint call per value, in the
    draw order: speeds, then lengths, then batteries (rational mode)."""
    rng = random.Random(spec.seed)
    g = spec.grid

    def draws(bounds, count):
        lo, hi = math.ceil(bounds[0] * g), math.floor(bounds[1] * g)
        return [rng.randint(lo, hi) for _ in range(count)]

    speeds = draws(spec.speed_range, 1 if spec.family == "equal-speed" else spec.m)
    if spec.family == "equal-speed":
        speeds *= spec.m
    lengths = draws(spec.length_range, spec.n)
    batteries = [None] * spec.m
    if spec.family == "uniform-dwp":
        batteries = draws(spec.battery_range, spec.m)
        if max(batteries) < max(lengths):
            batteries[batteries.index(max(batteries))] = max(lengths)
        batteries = [F(k, g) for k in batteries]
    return [[F(k, g) for k in speeds], batteries, [F(k, g) for k in lengths]]


@pytest.mark.parametrize("family", ["uniform-usp", "uniform-dwp", "equal-speed"])
def test_draws_are_the_randint_stream(family):
    """The batched draws accept and reject exactly as randint does, on the
    interpreter that runs this test: a width of 1 (lo == hi), power-of-two
    widths (about half the draws rejected), counts of 1 and a fine grid."""
    ranges = [(F(1), F(4)), (F(3), F(3)), (F(1), F(2)), (F(2), F(9)), (F(1), F(16)),
              (F(1), F(100))]
    for grid in (1, 2, 10 ** 4):
        for k, (speed_range, length_range) in enumerate(product(ranges, repeat=2)):
            for n, m in ((1, 1), (1, 4), (9, 1), (33, 5)):
                spec = GenSpec(family=family, n=n, m=m, grid=grid, seed=100 * k + n + m,
                               speed_range=speed_range, length_range=length_range,
                               battery_range=ranges[k % len(ranges)])
                inst = generate(spec)
                assert [list(inst.speeds), list(inst.batteries), list(inst.lengths)] == (
                    randint_instance(spec)), spec


def test_graham_family_content():
    inst = generate(GenSpec(family="graham-43"))
    assert inst.kind is Kind.USP
    assert inst.speeds == (F(1), F(1))
    assert inst.lengths == (F(3), F(3), F(2), F(2), F(2))


def test_paper43_family_content():
    inst = generate(GenSpec(family="paper-4.3", eps=F(1, 10)))
    assert inst.kind is Kind.RESTRICTED
    assert inst.speeds == (F(10), F(101, 10))
    assert inst.lengths == (F(10), F(101, 10))
    assert inst.eligibility == (frozenset({1}), frozenset({0, 1}))


def test_paper43_eps_validation():
    with pytest.raises(UsageError):
        generate(GenSpec(family="paper-4.3", eps=F(0)))


def test_unknown_family_rejected():
    with pytest.raises(UsageError):
        GenSpec(family="nope")


def test_bad_ranges_rejected():
    with pytest.raises(UsageError):
        GenSpec(family="uniform-usp", length_range=(F(5), F(1)))
    with pytest.raises(UsageError):
        GenSpec(family="uniform-usp", n=0)
    with pytest.raises(UsageError):
        generate(GenSpec(family="uniform-usp", grid=1,
                         length_range=(F(1, 3), F(2, 5))))  # no grid point


_range_ends = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(lo=_range_ends, hi=_range_ends)
def test_range_checks_decide_as_the_comparison(lo, hi):
    # GenSpec decides 0 < lo <= hi on integer ratios; every accept and reject
    # must be the plain comparison's, nan and inf included
    try:
        GenSpec(family="uniform-usp", speed_range=(lo, hi))
        accepted = True
    except UsageError:
        accepted = False
    assert accepted == (0 < lo <= hi)


def test_dwp_always_feasible():
    for seed in range(150):
        inst = generate(GenSpec(family="uniform-dwp", n=6, m=3, seed=seed,
                                battery_range=(F(1), F(5))))
        assert feasibility_check(inst)


def test_equal_speed_family():
    inst = generate(GenSpec(family="equal-speed", n=5, m=4, seed=2))
    assert len(set(inst.speeds)) == 1


def test_distinct_speeds_family():
    inst = generate(GenSpec(family="uniform-usp", n=5, m=50, seed=3,
                            distinct_speeds=True))
    assert len(set(inst.speeds)) == 50
    with pytest.raises(UsageError):
        generate(GenSpec(family="uniform-usp", m=1000, seed=3,
                         speed_range=(F(1), F(2)), distinct_speeds=True))


def test_decimal_str():
    assert decimal_str(F(5, 2)) == "2.5"
    assert decimal_str(F(7)) == "7"
    assert decimal_str(F(7, 50)) == "0.14"
    assert decimal_str(F(-3, 4)) == "-0.75"
    assert decimal_str(F(1, 3)) == "1/3"
    assert decimal_str(F(10001, 1000)) == "10.001"


def test_write_parse_round_trip():
    for family in ("uniform-usp", "uniform-dwp", "paper-4.3", "graham-43"):
        inst = generate(GenSpec(family=family, n=9, m=3, seed=5))
        text = write_instance(inst)
        back = parse_instance_text(text, Mode.RATIONAL)
        assert back == inst, family


def test_bench_scaling_small():
    results = bench_scaling("lpt-fast", [(200, 10), (400, 20)], repetitions=2, seed=1)
    assert [(r.n, r.m) for r in results] == [(200, 10), (400, 20)]
    for r in results:
        assert r.repetitions == 2 and len(r.wall_times) == 2
        assert r.min_s <= r.median_s
        assert r.counters["inserts"] == r.m + r.n
        assert r.counters["deletes"] == r.n
        assert r.counters["queries"] == r.n
        payload = r.to_json()
        assert json.dumps(payload)  # serializable


def test_bench_zero_reps_rejected():
    with pytest.raises(UsageError):
        bench_scaling("lpt-fast", [(10, 2)], repetitions=0)


def test_ratio_sweep_dwp_small():
    result = ratio_sweep("uniform-dwp", count=60, bound="phi", seed=0,
                         n_max=6, m_max=3)
    assert result.ok
    assert result.max_ratio >= 1
    assert sum(result.histogram.values()) == 60
    assert result.max_instance_text
    payload = result.to_json()
    json.dumps(payload)


def test_ratio_sweep_paper43_bounds():
    ok = ratio_sweep("paper-4.3", count=1, bound=F(198, 100))
    assert ok.ok and ok.max_ratio == F(20100, 10201)
    bad = ratio_sweep("paper-4.3", count=1, bound=F(19, 10))
    assert not bad.ok
    assert bad.violations[0][1] == "20100/10201"


def test_ratio_sweep_two_class_adversarial_record():
    result = ratio_sweep("two-class-adversarial", count=80, bound=F(158, 100),
                         seed=0, n_max=7, m_max=3)
    assert result.ok  # worst recorded ratio never exceeds the class bound
    assert result.max_instance_text.startswith("USP")


def test_verify_exact_sweeps_pinned():
    """sha256 over ratio_sweep(...).to_json() for the three sweeps perfbench's
    verify-exact workload rotates through, at one seed: the histogram, the
    worst ratio and its instance do not depend on how the oracle gets there."""
    digest = hashlib.sha256()
    for family, bound, distinct in (("uniform-dwp", "phi", False),
                                    ("equal-speed", F(4, 3), False),
                                    ("uniform-usp", F(158, 100), True)):
        result = ratio_sweep(family, 50, bound=bound, seed=2024,
                             distinct_speeds=distinct, threads=1)
        digest.update(json.dumps(result.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "6c55ad4cbf2ade627f5a244a8880c60d2dacfb113d8dffac67a1effa552992ab")


def fraction_scan_bin(ratio):
    """The histogram bin by comparisons against the edges 1.00, 1.05, .., 2.00."""
    edges = [F(100 + 5 * k, 100) for k in range(21)]
    for k in range(20):
        if ratio < edges[k + 1]:
            return f"[{float(edges[k]):.2f},{float(edges[k + 1]):.2f})"
    return ">=2.00"


def test_hist_bin_matches_the_fraction_scan():
    tiny = F(1, 10 ** 12)
    ratios = [F(-3), F(0), F(1, 2), F(99, 100), F(2), F(201, 100), F(7), F(10 ** 30, 3)]
    for k in range(21):
        edge = F(100 + 5 * k, 100)
        ratios += [edge - tiny, edge, edge + tiny]
    rng = random.Random(3)
    ratios += [F(rng.randint(1, 3 * 10 ** 6), rng.randint(10 ** 6, 2 * 10 ** 6))
               for _ in range(2000)]
    for ratio in ratios:
        assert _hist_bin(ratio) == fraction_scan_bin(ratio), ratio
    for x in (0.5, 1.0, 1.05, 1.0499999999999998, 1.15, 1.6, 1.95, 1.9999999999999998,
              2.0, 3.5):
        assert _hist_bin(x) == fraction_scan_bin(x), x
    assert _hist_bin(F(1)) == "[1.00,1.05)" and _hist_bin(F(21, 20)) == "[1.05,1.10)"
    assert _hist_bin(F(39, 20)) == "[1.95,2.00)" and _hist_bin(F(2)) == ">=2.00"


def test_ratio_sweep_parallel_merge_matches_serial(monkeypatch):
    serial = ratio_sweep("uniform-dwp", count=24, bound="phi", seed=5,
                         n_max=5, m_max=3, threads=1)
    parallel = ratio_sweep("uniform-dwp", count=24, bound="phi", seed=5,
                           n_max=5, m_max=3, threads=3)
    assert parallel.max_ratio == serial.max_ratio
    assert parallel.histogram == serial.histogram
    assert parallel.max_instance_text == serial.max_instance_text


def test_ratio_sweep_caps_workers_at_cpu_count(monkeypatch):
    # A huge MAKESPAN_THREADS must not start that many processes: the pool
    # gets one worker per CPU. The stub pool starts none; its OSError sends
    # the sweep down the serial fallback, which must give the serial result.
    from makespan import gen_bench
    requested = []

    class NoPool:
        def __init__(self, max_workers):
            requested.append(max_workers)
            raise OSError("no processes in this test")

    monkeypatch.setattr(gen_bench.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(gen_bench, "ProcessPoolExecutor", NoPool)
    monkeypatch.setenv("MAKESPAN_THREADS", "10000")
    capped = ratio_sweep("uniform-dwp", count=20, bound="phi", seed=5, n_max=5, m_max=3)
    assert requested == [3]
    monkeypatch.setattr(gen_bench.os, "cpu_count", lambda: None)  # unknown: serial
    serial = ratio_sweep("uniform-dwp", count=20, bound="phi", seed=5, n_max=5, m_max=3)
    assert requested == [3]
    assert capped.to_json() == serial.to_json()


def test_threads_env_var(monkeypatch):
    from makespan.gen_bench import sweep_threads
    monkeypatch.setenv("MAKESPAN_THREADS", "4")
    assert sweep_threads() == 4
    monkeypatch.setenv("MAKESPAN_THREADS", "junk")
    with pytest.raises(UsageError):
        sweep_threads()
    monkeypatch.delenv("MAKESPAN_THREADS")
    assert sweep_threads() == 1


def test_generated_instances_satisfy_scheduler_preconditions():
    from makespan import run_scheduler
    for family in ("uniform-usp", "uniform-dwp", "equal-speed",
                   "two-class-adversarial", "paper-4.3", "graham-43"):
        inst = generate(GenSpec(family=family, n=8, m=3, seed=4))
        trace = run_scheduler(DEFAULT_ALGORITHM[family], inst)
        assert validate(inst, trace.schedule).ok
