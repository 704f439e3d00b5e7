"""Paired in-process A/B of the tournament: envelope.py at a git revision
against the working tree's, on one perfbench workload.

    python scripts/ab_envelope.py --rev HEAD --workload fleet-distinct --seed 7 --reps 5

The revision's src/makespan/envelope.py is read with `git show` and loaded
as a module of the working tree's package; everything else is the working
tree's. Each rep runs every request of the workload's pool (its instances,
or for verify-exact one window of sweeps) once with each LowerEnvelope
class, the two back to back in alternating order, so the host's drift hits
both alike. Each request must give identical outputs and envelope counters
with either class, and before the timed reps each fleet-distinct instance
is also run with a trace, whose decisions must be identical too.

Prints per rep each side's seconds and the speedup (the revision's time
over the working tree's: above 1, the working tree is faster), then the
median speedup. Exits 1 if any output or counter differs.
"""

from __future__ import annotations

import argparse
import contextlib
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from makespan import envelope, scheduler  # noqa: E402
import workloads  # noqa: E402


def envelope_at(rev: str):
    """The LowerEnvelope class of envelope.py at a git revision."""
    source = subprocess.run(["git", "show", f"{rev}:src/makespan/envelope.py"],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout
    name = "makespan._envelope_at_rev"
    module = types.ModuleType(name)
    module.__package__ = "makespan"
    sys.modules[name] = module
    exec(compile(source, f"{rev}:src/makespan/envelope.py", "exec"), module.__dict__)
    return module.LowerEnvelope


@contextlib.contextmanager
def scheduling_with(cls, made: list):
    """Let the scheduler build its envelopes from ``cls``, each appended to made."""

    class Recorded(cls):
        def __init__(self):
            super().__init__()
            made.append(self)

    scheduler.LowerEnvelope = Recorded
    try:
        yield
    finally:
        scheduler.LowerEnvelope = envelope.LowerEnvelope


def fingerprint(workload, r: int, out) -> list:
    """What a request produced, bar timings: workload.check's fingerprint,
    plus the whole schedule for fleet-distinct."""
    _, result = workload.check(r, out)
    if isinstance(workload, workloads.FleetDistinct):
        result.append(out.schedule)
    return result


def run(workload, r: int, cls, traced: bool = False):
    """(seconds, fingerprint, every envelope's counters) of one request."""
    made = []
    with scheduling_with(cls, made):
        start = time.perf_counter()
        if traced:
            out = scheduler.run_scheduler(workload.algorithm, workload.pool[r])
        else:
            out = workload.request(r)
        seconds = time.perf_counter() - start
    if traced:
        result = [out.job_ids, out.machine_ids, out.after, out.schedule]
    else:
        result = fingerprint(workload, r, out)
    return seconds, result, [e.counters for e in made]


def compare(workload, r: int, sides: dict, traced: bool = False) -> dict:
    """Run request r once with each class, in the dict's order; raise if
    the two differ. Returns each side's seconds."""
    seen, seconds = {}, {}
    for side, cls in sides.items():
        seconds[side], result, counters = run(workload, r, cls, traced)
        seen[side] = result, counters
    (a, got_a), (b, got_b) = seen.items()
    if got_a != got_b:
        raise SystemExit(f"request {r}: {a} and {b} differ"
                         f"{' in their decisions' if traced else ''}")
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        default="fleet-distinct")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    rev, tree = f"rev {args.rev}", "tree"
    classes = {rev: envelope_at(args.rev), tree: envelope.LowerEnvelope}
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    keys = range(getattr(workload, "pool_size", workload.window))
    if isinstance(workload, workloads.FleetDistinct):
        for r in keys:
            compare(workload, r, classes, traced=True)
    speedups = []
    for rep in range(args.reps):
        total = dict.fromkeys(classes, 0.0)
        for r in keys:
            order = list(classes.items())
            if (rep + r) % 2:
                order.reverse()
            for side, seconds in compare(workload, r, dict(order)).items():
                total[side] += seconds
        speedups.append(total[rev] / total[tree])
        print(f"rep {rep + 1}: {rev} {total[rev]:.3f} s, {tree} {total[tree]:.3f} s, "
              f"speedup {speedups[-1]:.4f}")
    print(f"{args.workload} seed {args.seed}: {len(keys)} requests per rep, identical "
          f"outputs and counters; median speedup {statistics.median(speedups):.4f} "
          f"over {args.reps} reps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
