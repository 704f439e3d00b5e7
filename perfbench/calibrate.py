"""Machine-speed calibration: a fixed pure-Python loop timed between requests.

The benchmark shares a few cores of a host whose speed drifts by tens of per
cent over seconds to minutes, and flips between a fast and a slow state about
2x apart (other tenants). This loop is the benchmark's own code and never
touches the toolkit, so a change to the toolkit cannot move it; timing it
next to the requests measures how fast the machine runs at that moment. The
run scales its times to a machine on which one loop takes REFERENCE_S, so
runs made at different moments compare the toolkit and not the host. The raw
times stay in the run's report.

The toolkit's code slows down somewhat less than this loop when the host is
busy: across runs, the log of raw jobs_per_s fell with the log of the mean
loop time at a slope of 0.70 to 1.07 (fleet-distinct and dispatch-shared,
two sets of 5 and 10 seeds each, mean 0.86), so times are scaled by the
loop's speed ratio to the power SENSITIVITY.
"""

from __future__ import annotations

import time

# Seconds of one loop on the machine that produced the README's figures
# (2 vCPUs, CPython 3.11.7) in its slow state, which it is in most of the
# time; scaled times read as times on that machine in that state.
REFERENCE_S = 1.0e-3
SENSITIVITY = 0.85


def kernel() -> float:
    """Float arithmetic, list and dict traffic, calls and a sort, as the
    toolkit's loops do; deterministic."""
    acc = 0.0
    table = {}
    items = []
    for i in range(1200):
        x = (i * 7919) % 1009 / 13.0
        items.append(x)
        key = i % 97
        table[key] = table.get(key, 0.0) + x
        acc += min(x, acc * 0.5 + 1.0)
    items.sort()
    return acc + items[len(items) // 2] + len(table)


def sample(runs: int) -> float:
    """Mean seconds of one kernel run over `runs` back-to-back runs.

    The host flips between a fast and a slow state (about 2x) on a scale of
    tenths of a second to seconds, so one run samples the state of a moment;
    the mean over many samples gives the share of time spent slow, which is
    what a long request pays.
    """
    t0 = time.perf_counter()
    for _ in range(runs):
        kernel()
    return (time.perf_counter() - t0) / runs


def speed(loop_s: float) -> float:
    """Factor that takes a time measured while the loop took `loop_s` to
    the reference machine speed."""
    return (REFERENCE_S / loop_s) ** SENSITIVITY
