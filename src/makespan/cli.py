"""Command-line front end: schedule, verify, bench, gen.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 infeasible instance, 4 the exact search's work budget ran out.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from operator import itemgetter

from .errors import InfeasibleError, ParseError, SizeGuardError, UsageError
from .gen_bench import (DEFAULT_ALGORITHM, FAMILIES, GenSpec, bench_scaling,
                        generate, ratio_sweep, write_instance)
from .model import Instance, Kind
from .numeric import Mode, parse_scalar, scalar_to_str
from .oracle import brute_force_opt
from .scheduler import SCHEDULERS, run_scheduler

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_SIZE_GUARD = 4


# -- instance text parsing ----------------------------------------------------

def parse_instance_text(text: str, mode: Mode) -> Instance:
    """Parse the line-oriented instance format; '#' lines and blanks skipped.

    Raises ParseError with a 1-based line/column diagnostic on any defect.
    """
    lines = text.splitlines()
    try:
        return _convert_blocks(lines, mode)
    except (ValueError, ZeroDivisionError):  # UsageError is a ValueError
        pass  # the row scan below finds the defect in file order, or accepts
        # comments, blank lines, RESTRICTED and the f64 'p/q' tokens
    rows = [(lineno, line) for lineno, line in enumerate(lines, 1)
            if line.strip() and not line.lstrip().startswith("#")]
    if not rows:
        raise ParseError("empty instance file", 1)

    def fail(lineno, line, token, message):
        col = line.find(token) + 1 if token and token in line else 1
        raise ParseError(message, lineno, col)

    def positive(lineno, line, token, what):
        try:
            value = parse_scalar(token, mode)
        except UsageError:
            fail(lineno, line, token, f"bad {what} {token!r}")
        if not value > 0:
            fail(lineno, line, token, f"{what} must be > 0, got {token}")
        return value

    lineno, header = rows[0]
    fields = header.split()
    if len(fields) != 3:
        fail(lineno, header, None, f"header must be 'KIND m n', got {header!r}")
    kind_name, m_text, n_text = fields
    try:
        kind = Kind(kind_name)
    except ValueError:
        fail(lineno, header, kind_name,
             f"unknown kind {kind_name!r} (USP, DWP or RESTRICTED)")
    try:
        m, n = int(m_text), int(n_text)
    except ValueError:
        fail(lineno, header, m_text, "machine/job counts must be integers")
    if m < 1 or n < 1:
        fail(lineno, header, m_text, "m and n must be >= 1")
    if len(rows) != 1 + m + n:
        raise ParseError(f"expected {1 + m + n} data lines for m={m}, n={n}, "
                         f"found {len(rows)}", rows[-1][0])

    speeds, batteries, lengths, eligibility = [], [], [], []
    for lineno, line in rows[1:1 + m]:
        tokens = line.split()
        if kind is Kind.DWP:
            if len(tokens) != 2:
                fail(lineno, line, None, "DWP machine line must be 'v d'")
            speeds.append(positive(lineno, line, tokens[0], "speed"))
            batteries.append(positive(lineno, line, tokens[1], "battery"))
        else:
            if len(tokens) != 1:
                fail(lineno, line, None, "machine line must be a single speed")
            speeds.append(positive(lineno, line, tokens[0], "speed"))
            batteries.append(None)

    for lineno, line in rows[1 + m:]:
        tokens = line.split()
        if kind is Kind.RESTRICTED:
            if len(tokens) < 2:
                fail(lineno, line, None, "job line must be 'l k id...id'")
            lengths.append(positive(lineno, line, tokens[0], "length"))
            try:
                k = int(tokens[1])
            except ValueError:
                fail(lineno, line, tokens[1], "eligible-machine count must be an integer")
            if k < 1 or len(tokens) != 2 + k:
                fail(lineno, line, tokens[1],
                     f"expected {tokens[1]} eligible machine ids")
            ids = []
            for tok in tokens[2:]:
                try:
                    ids.append(int(tok))
                except ValueError:
                    fail(lineno, line, tok, f"bad machine id {tok!r}")
            bad = [j for j in ids if not 0 <= j < m]
            if bad:
                fail(lineno, line, str(bad[0]), f"machine id {bad[0]} out of range")
            eligibility.append(frozenset(ids))
        else:
            if len(tokens) != 1:
                fail(lineno, line, None, "job line must be a single length")
            lengths.append(positive(lineno, line, tokens[0], "length"))

    return Instance(
        kind=kind,
        speeds=tuple(speeds),
        batteries=tuple(batteries),
        lengths=tuple(lengths),
        eligibility=tuple(eligibility) if kind is Kind.RESTRICTED else None,
    )


def _convert_blocks(lines: list, mode: Mode) -> Instance:
    """A USP or DWP text whose lines are its header and data lines, with no
    comment or blank line; each block is converted in one pass and
    ``Instance`` checks the values. Raises on any defect without saying where."""
    if not lines:
        raise ValueError("no header")
    kind_name, m_text, n_text = lines[0].split()
    kind, m, n = Kind(kind_name), int(m_text), int(n_text)
    if kind is Kind.RESTRICTED or m < 1 or n < 1 or len(lines) != 1 + m + n:
        raise ValueError("not a USP or DWP text of 1 + m + n lines")
    convert = Fraction if mode is Mode.RATIONAL else float
    if kind is Kind.DWP:
        machines = _fields(lines[1:1 + m], 2)
        speeds = tuple(map(convert, map(itemgetter(0), machines)))
        batteries = tuple(map(convert, map(itemgetter(1), machines)))
    else:
        speeds = tuple(map(convert, _single_tokens(lines[1:1 + m], mode)))
        batteries = (None,) * m
    return Instance(kind=kind, speeds=speeds, batteries=batteries,
                    lengths=tuple(map(convert, _single_tokens(lines[1 + m:], mode))))


def _fields(lines: list, count: int) -> list:
    """Each line's whitespace-split tokens; raises unless every line has count."""
    rows = list(map(str.split, lines))
    if set(map(len, rows)) != {count}:
        raise ValueError(f"a line does not hold {count} tokens")
    return rows


def _single_tokens(lines: list, mode: Mode):
    """The one token of each line. float() takes the whitespace around a
    token and refuses a line of two tokens, a blank line and a comment, so
    f64 lines are converted whole; Fraction() takes '3 / 4' on CPython 3.12+,
    so rational lines are split and counted first."""
    if mode is Mode.F64:
        return lines
    return map(itemgetter(0), _fields(lines, 1))


# -- flag helpers ---------------------------------------------------------------

def _parse_range(text: str):
    try:
        lo, hi = text.split(":")
        return (Fraction(lo), Fraction(hi))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad range {text!r}, expected 'lo:hi'")


def _parse_sizes(text: str):
    sizes = []
    for part in text.split(","):
        try:
            n_text, m_text = part.split(":")
            n, m = float(n_text), float(m_text)
        except ValueError:
            raise UsageError(f"bad size {part!r}, expected 'n:m'")
        if not (n.is_integer() and m.is_integer()):  # also rejects inf and nan
            raise UsageError(f"sizes must be finite integers, got {part!r}")
        if n < 1 or m < 1:
            raise UsageError(f"sizes must be >= 1, got {part!r}")
        sizes.append((int(n), int(m)))
    if not sizes:
        raise UsageError("no sizes given")
    return sizes


def _parse_bound(text: str):
    if text == "phi":
        return "phi"
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad bound {text!r}, expected 'phi' or a number")


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad {what} {text!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# -- subcommands -----------------------------------------------------------------

def cmd_schedule(args) -> int:
    mode = Mode.from_name(args.numeric)
    with open(args.input, encoding="utf-8") as handle:
        instance = parse_instance_text(handle.read(), mode)

    if args.algo == "opt":
        trace, schedule = None, brute_force_opt(instance)
    else:
        trace = run_scheduler(args.algo, instance, record_trace=True)
        schedule = trace.schedule
    payload = {
        "algorithm": args.algo,
        "numeric": mode.value,
        "makespan": scalar_to_str(schedule.makespan),
        "assignment": [list(a) for a in schedule.assignment],
    }
    if trace is not None and args.trace:
        payload["trace"] = trace.decisions_json()
    print(json.dumps(payload))
    return EXIT_OK


def cmd_verify(args) -> int:
    bound = _parse_bound(args.bound)
    result = ratio_sweep(
        family=args.family,
        count=args.count,
        algorithm=args.algo,
        bound=bound,
        seed=args.seed,
        n_max=args.max_n,
        m_max=args.max_m,
        eps=_parse_fraction(args.eps, "eps"),
        distinct_speeds=args.distinct_speeds,
    )
    payload = result.to_json()
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    if not result.ok:
        witness_path = args.witness or f"witness-{args.family}.txt"
        with open(witness_path, "w", encoding="utf-8") as handle:
            handle.write(f"# ratio {result.violations[0][1]} exceeds bound {args.bound}\n")
            handle.write(result.violations[0][0])
        print(f"bound exceeded; witness written to {witness_path}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_bench(args) -> int:
    results = bench_scaling(
        algorithm=args.algo,
        sizes=_parse_sizes(args.sizes),
        repetitions=args.reps,
        family=args.family,
        seed=args.seed,
    )
    text = json.dumps([r.to_json() for r in results], indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = GenSpec(
        family=args.family,
        n=args.n,
        m=args.m,
        length_range=_parse_range(args.length_range),
        speed_range=_parse_range(args.speed_range),
        battery_range=_parse_range(args.battery_range),
        grid=args.grid,
        eps=_parse_fraction(args.eps, "eps"),
        seed=args.seed,
        distinct_speeds=args.distinct_speeds,
    )
    sys.stdout.write(write_instance(generate(spec, Mode.RATIONAL)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="makespan",
        description="LPT scheduling toolkit: schedulers, exact verification, benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="run a scheduler (or exact opt) on an instance file")
    p.add_argument("--algo", required=True, choices=sorted(SCHEDULERS) + ["opt"])
    p.add_argument("--input", required=True, help="instance file path")
    p.add_argument("--numeric", default="rational", choices=["f64", "rational"])
    p.add_argument("--trace", action="store_true", help="include per-job decisions")
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser("verify", help="sweep seeded instances against the exact oracle")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--count", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", default="phi", help="phi, a fraction like 4/3, or a decimal")
    p.add_argument("--algo", default=None, choices=sorted(SCHEDULERS))
    p.add_argument("--max-n", type=_positive_int, default=9)
    p.add_argument("--max-m", type=_positive_int, default=3)
    p.add_argument("--eps", default="0.1", help="epsilon for the paper-4.3 family")
    p.add_argument("--distinct-speeds", action="store_true",
                   help="sample machine speeds without replacement")
    p.add_argument("--out", default=None, help="write the JSON report here too")
    p.add_argument("--witness", default=None, help="path for a violating instance")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="time a scheduler across instance sizes")
    p.add_argument("--algo", required=True, choices=sorted(SCHEDULERS))
    p.add_argument("--sizes", required=True, help="comma list like 1e4:1e3,1e5:1e4")
    p.add_argument("--reps", type=_positive_int, default=3)
    p.add_argument("--family", default="uniform-usp", choices=FAMILIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON results here too")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gen", help="print a deterministic instance file")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=_positive_int, default=10)
    p.add_argument("--m", type=_positive_int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", default="0.1")
    p.add_argument("--grid", type=_positive_int, default=100)
    p.add_argument("--length-range", default="1:100")
    p.add_argument("--speed-range", default="1:4")
    p.add_argument("--battery-range", default="1:100")
    p.add_argument("--distinct-speeds", action="store_true")
    p.set_defaults(fn=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
