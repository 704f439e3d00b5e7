"""LPT scheduling toolkit.

Near-linear LPT for uniform machines via a fully dynamic lower envelope of
lines, battery-constrained LPT for drone parcel delivery, an exact brute-force
oracle with approximation-ratio verification, and a seeded benchmark harness.
"""

from .envelope import Line, LowerEnvelope
from .errors import InfeasibleError, ParseError, SizeGuardError, UsageError
from .gen_bench import BenchResult, GenSpec, SweepResult, bench_scaling, generate, ratio_sweep, write_instance
from .model import Instance, Kind, Schedule, ValidationReport, build_schedule, feasibility_check, makespan, validate
from .numeric import Mode, Scalar, parse_scalar, scalar_to_str
from .oracle import PHI, RatioReport, brute_force_opt, le_phi, makespan_lower_bound, ratio_report, round_r
from .scheduler import LptTrace, SCHEDULERS, dwp_lpt, lpt_fast, lpt_naive, lpt_restricted, run_scheduler

__version__ = "0.1.0"

__all__ = [
    "BenchResult", "GenSpec", "Instance", "InfeasibleError", "Kind", "Line",
    "LowerEnvelope", "LptTrace", "Mode", "ParseError", "PHI", "RatioReport",
    "SCHEDULERS", "Scalar", "Schedule", "SizeGuardError", "SweepResult",
    "UsageError", "ValidationReport", "bench_scaling", "brute_force_opt",
    "build_schedule", "dwp_lpt", "feasibility_check", "generate", "le_phi",
    "lpt_fast", "lpt_naive", "lpt_restricted", "makespan",
    "makespan_lower_bound", "parse_scalar", "ratio_report",
    "ratio_sweep", "round_r", "run_scheduler", "scalar_to_str", "validate",
    "write_instance",
]
