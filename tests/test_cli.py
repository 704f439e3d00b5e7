import hashlib
import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import jsonschema
import pytest

from makespan import PHI, GenSpec, Mode, ParseError, generate, le_phi, write_instance
from makespan.cli import main, parse_instance_text

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"

DWP_EXAMPLE = """\
# two drones, three parcels
DWP 2 3
1 10
2 4
6
4
4
"""


def schema(name):
    with open(SCHEMAS / name, encoding="utf-8") as handle:
        return json.load(handle)


def validate_schema(payload, name):
    from referencing import Registry, Resource
    registry = Registry().with_resources(
        (f"makespan/{p.name}", Resource.from_contents(schema(p.name)))
        for p in SCHEMAS.glob("*.json"))
    jsonschema.Draft202012Validator(schema(name), registry=registry).validate(payload)


@pytest.fixture
def dwp_file(tmp_path):
    path = tmp_path / "dwp.txt"
    path.write_text(DWP_EXAMPLE, encoding="utf-8")
    return str(path)


# -- parsing -------------------------------------------------------------------

def test_parse_dwp_example():
    inst = parse_instance_text(DWP_EXAMPLE, Mode.RATIONAL)
    assert inst.m == 2 and inst.n == 3
    assert inst.speeds == (F(1), F(2))
    assert inst.batteries == (F(10), F(4))
    assert inst.lengths == (F(6), F(4), F(4))


def test_parse_restricted():
    text = "RESTRICTED 2 2\n10\n10.1\n10 1 1\n10.1 2 0 1\n"
    inst = parse_instance_text(text, Mode.RATIONAL)
    assert inst.eligibility == (frozenset({1}), frozenset({0, 1}))
    assert inst.speeds[1] == F(101, 10)


def test_parse_malformed_header():
    with pytest.raises(ParseError):
        parse_instance_text("USP 2\n1\n1\n", Mode.RATIONAL)
    with pytest.raises(ParseError):
        parse_instance_text("FOO 1 1\n1\n1\n", Mode.RATIONAL)


def test_parse_diagnostics_carry_line_numbers():
    text = "USP 1 2\n1\n3\n-4\n"
    with pytest.raises(ParseError) as err:
        parse_instance_text(text, Mode.RATIONAL)
    assert err.value.line == 4


def test_parse_wrong_line_count():
    with pytest.raises(ParseError):
        parse_instance_text("USP 2 1\n1\n2\n", Mode.RATIONAL)


def test_parse_zero_length_job_rejected():
    with pytest.raises(ParseError):
        parse_instance_text("USP 1 1\n1\n0\n", Mode.RATIONAL)


@pytest.mark.parametrize("text,mode,line,col,message", [
    ("USP 2 1\n1\n2.5x\n5\n", Mode.F64, 3, 1, "bad speed '2.5x'"),
    ("DWP 2 1\n2 50\n3 five\n5\n", Mode.RATIONAL, 3, 3, "bad battery 'five'"),
    ("USP 1 3\n# c\n1\n5\n4\n\n-0.5\n", Mode.F64, 7, 1, "length must be > 0, got -0.5"),
    ("USP 1 3\n1\n5\n4\n0\n", Mode.RATIONAL, 5, 1, "length must be > 0, got 0"),
    ("USP 1 2\n1\n3\n inf\n", Mode.F64, 4, 2, "bad length 'inf'"),
    ("DWP 1 1\n2 inf\n5\n", Mode.F64, 2, 3, "bad battery 'inf'"),
    ("USP 1 1\n1\n3 / 4\n", Mode.RATIONAL, 3, 1, "job line must be a single length"),
    ("USP 1 1\n1\n2 3\n", Mode.F64, 3, 1, "job line must be a single length"),
    ("USP 1 1\n1 2\n5\n", Mode.F64, 2, 1, "machine line must be a single speed"),
    ("USP 1 2\n1\n   \n5\n", Mode.RATIONAL, 4, 0,
     "expected 4 data lines for m=1, n=2, found 3"),
    ("USP 1 1\n1\n1 /2\n", Mode.RATIONAL, 3, 1, "job line must be a single length"),
    ("USP 1 1\n1/ 2\n5\n", Mode.RATIONAL, 2, 1, "machine line must be a single speed"),
])
def test_parse_diagnostics_pin_line_column_message(text, mode, line, col, message):
    # a block that fails its one-pass conversion is scanned again value by
    # value, so the diagnostic names the first defect as it always did
    with pytest.raises(ParseError) as err:
        parse_instance_text(text, mode)
    assert (err.value.line, err.value.column) == (line, col)
    assert str(err.value) == f"line {line}, col {col}: {message}"


def test_parse_f64_accepts_ratio_tokens():
    inst = parse_instance_text("DWP 2 2\n3/4 2\n2 9/2\n 7/2 \n1\n", Mode.F64)
    assert inst.speeds == (0.75, 2.0)
    assert inst.batteries == (2.0, 4.5)
    assert inst.lengths == (3.5, 1.0)


# -- schedule ------------------------------------------------------------------

def test_schedule_dwp_rational(dwp_file, capsys):
    code = main(["schedule", "--algo", "dwp-lpt", "--input", dwp_file,
                 "--numeric", "rational"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["makespan"] == "6"
    assert payload["assignment"] == [[0], [1, 2]]
    validate_schema(payload, "schedule.schema.json")


def test_schedule_opt(dwp_file, capsys):
    code = main(["schedule", "--algo", "opt", "--input", dwp_file])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["makespan"] == "6"
    validate_schema(payload, "schedule.schema.json")


def test_schedule_opt_f64_common_denominator_past_float_range(tmp_path, capsys):
    # 1e-300 is a dyadic rational whose denominator exceeds float range: the
    # oracle's integer scaling must not multiply it into math.inf
    path = tmp_path / "tiny.txt"
    path.write_text("USP 2 3\n1\n2\n1e-300\n1\n2\n", encoding="utf-8")
    assert main(["schedule", "--algo", "opt", "--numeric", "f64", "--input", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["makespan"] == "1.0"
    assert payload["assignment"] == [[1], [0, 2]]


def test_schedule_trace_flag(dwp_file, capsys):
    code = main(["schedule", "--algo", "dwp-lpt", "--input", dwp_file, "--trace"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"][0] == {"job": 0, "machine": 0, "before": "0", "after": "6"}
    validate_schema(payload, "schedule.schema.json")
    validate_schema(payload["trace"], "trace.schema.json")


def test_schedule_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("USP x y\n", encoding="utf-8")
    assert main(["schedule", "--algo", "lpt-fast", "--input", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_schedule_infeasible_exit_3(tmp_path, capsys):
    path = tmp_path / "infeasible.txt"
    path.write_text("DWP 1 1\n1 5\n6\n", encoding="utf-8")
    assert main(["schedule", "--algo", "dwp-lpt", "--input", str(path)]) == 3
    assert capsys.readouterr().err == (
        "infeasible: no admitted machine can carry job 0 (length 6)\n")


def test_schedule_size_guard_exit_4(tmp_path):
    # m * n = 3163^2 > 10^7: past the exact search's work budget before it
    # builds anything
    lines = ["USP 3163 3163"] + ["1"] * (2 * 3163)
    path = tmp_path / "big.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["schedule", "--algo", "opt", "--input", str(path)]) == 4


@pytest.mark.parametrize("numeric", ["rational", "f64"])
def test_schedule_opt_deep_search(tmp_path, capsys, numeric):
    # 1005 jobs on 2 machines: the search goes deeper than Python's default
    # recursion limit and still solves the instance
    lines = ["USP 2 1005", "1", "1"] + ["3"] * 402 + ["2"] * 603
    path = tmp_path / "deep.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["schedule", "--algo", "opt", "--numeric", numeric, "--input", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert float(payload["makespan"]) == 1206
    assert payload["assignment"] == [list(range(402)), list(range(402, 1005))]


def test_schedule_kind_mismatch_exit_2(dwp_file, capsys):
    assert main(["schedule", "--algo", "lpt-fast", "--input", dwp_file]) == 2


def test_schedule_float_mode(dwp_file, capsys):
    code = main(["schedule", "--algo", "dwp-lpt", "--input", dwp_file,
                 "--numeric", "f64"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert float(payload["makespan"]) == 6.0


@pytest.mark.parametrize("length", ["inf", "1e400"])
@pytest.mark.parametrize("algo", ["lpt-fast", "lpt-naive"])
def test_schedule_non_finite_f64_exit_2(tmp_path, capsys, algo, length):
    path = tmp_path / "huge.txt"
    path.write_text(f"USP 1 2\n1\n{length}\n1\n", encoding="utf-8")
    code = main(["schedule", "--algo", algo, "--input", str(path), "--numeric", "f64"])
    assert code == 2
    captured = capsys.readouterr()
    assert "parse error" in captured.err and captured.out == ""


# -- gen -----------------------------------------------------------------------

def test_gen_deterministic(capsys):
    argv = ["gen", "--family", "uniform-dwp", "--n", "6", "--m", "3", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    inst = parse_instance_text(first, Mode.RATIONAL)
    assert inst.n == 6 and inst.m == 3


def test_gen_graham(capsys):
    assert main(["gen", "--family", "graham-43"]) == 0
    out = capsys.readouterr().out
    assert out == "USP 2 5\n1\n1\n3\n3\n2\n2\n2\n"


def test_gen_paper43(capsys):
    assert main(["gen", "--family", "paper-4.3", "--eps", "0.1"]) == 0
    out = capsys.readouterr().out
    assert out == "RESTRICTED 2 2\n10\n10.1\n10 1 1\n10.1 2 0 1\n"


def test_gen_round_trip_matches_generate(capsys):
    from makespan import GenSpec, generate
    assert main(["gen", "--family", "uniform-usp", "--n", "7", "--m", "2",
                 "--seed", "9"]) == 0
    out = capsys.readouterr().out
    inst = parse_instance_text(out, Mode.RATIONAL)
    assert inst == generate(GenSpec(family="uniform-usp", n=7, m=2, seed=9))


def test_gen_bad_range_exit_2(capsys):
    assert main(["gen", "--family", "uniform-usp", "--speed-range", "5:1"]) == 2


def test_gen_bad_eps_exit_2(capsys):
    assert main(["gen", "--family", "paper-4.3", "--eps", "nope"]) == 2


# -- verify ---------------------------------------------------------------------

def test_verify_paper43_pass(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["verify", "--family", "paper-4.3", "--count", "1",
                 "--bound", "1.98", "--eps", "0.1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_ratio"] == "20100/10201"
    validate_schema(payload, "sweep.schema.json")


def test_verify_paper43_fail_writes_witness(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    witness = tmp_path / "w.txt"
    code = main(["verify", "--family", "paper-4.3", "--count", "1",
                 "--bound", "1.9", "--witness", str(witness)])
    assert code == 1
    assert witness.exists()
    body = witness.read_text(encoding="utf-8")
    assert "RESTRICTED 2 2" in body


def test_verify_dwp_phi_small(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.json"
    code = main(["verify", "--family", "uniform-dwp", "--count", "40",
                 "--bound", "phi", "--max-n", "6", "--max-m", "3",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    validate_schema(payload, "sweep.schema.json")
    assert payload["bound_float"] == PHI  # the nearest double to phi


VERIFY_N30 = ["verify", "--family", "uniform-dwp", "--count", "5", "--bound", "phi",
              "--max-n", "30", "--max-m", "3"]


def test_verify_n30_is_exact_within_phi(tmp_path, capsys, monkeypatch):
    # two of the five instances have 2^28 and 3^27 raw assignments, yet the
    # pruned search solves every one within its work budget
    monkeypatch.chdir(tmp_path)
    assert main(VERIFY_N30) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == [] and le_phi(F(payload["max_ratio"]))
    assert list(tmp_path.iterdir()) == []


def test_verify_past_the_guard_is_a_size_guard_error(tmp_path, capsys, monkeypatch):
    # a sweep instance past the work budget exits 4 and names the instance:
    # verify reports exact ratios only, so it writes no witness
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MAKESPAN_THREADS", "1")
    monkeypatch.setattr("makespan.oracle.SEARCH_BUDGET", 40)
    assert main(VERIFY_N30) == 4
    err = capsys.readouterr().err
    assert "size guard" in err and "uniform-dwp-" in err
    assert list(tmp_path.iterdir()) == []


# -- bench ------------------------------------------------------------------------

def test_bench_small(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["bench", "--algo", "lpt-fast", "--sizes", "200:10,400:20",
                 "--reps", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert [entry["n"] for entry in payload] == [200, 400]
    validate_schema(payload, "bench.schema.json")


def test_bench_scientific_sizes(capsys):
    code = main(["bench", "--algo", "lpt-naive", "--sizes", "1e2:1e1", "--reps", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["n"] == 100 and payload[0]["m"] == 10


def test_bench_zero_reps_is_flag_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bench", "--algo", "lpt-fast", "--sizes", "10:2", "--reps", "0"])
    assert err.value.code == 2


def test_bench_bad_sizes_exit_2(capsys):
    assert main(["bench", "--algo", "lpt-fast", "--sizes", "nope", "--reps", "1"]) == 2


@pytest.mark.parametrize("sizes", ["1e400:10", "inf:10", "10:nan"])
def test_bench_non_finite_sizes_exit_2(sizes, capsys):
    assert main(["bench", "--algo", "lpt-fast", "--sizes", sizes, "--reps", "1"]) == 2
    assert "finite integers" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["2.5:1", "10:1.5"])
def test_bench_fractional_sizes_exit_2(sizes, capsys):
    assert main(["bench", "--algo", "lpt-fast", "--sizes", sizes, "--reps", "1"]) == 2
    assert "finite integers" in capsys.readouterr().err


# -- console entry point -----------------------------------------------------------

def test_console_script_help():
    result = subprocess.run([sys.executable, "-m", "makespan.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "schedule" in result.stdout and "verify" in result.stdout


# (family, scheduler) pairs covering all four schedulers
TRACE_CASES = (("uniform-usp", "lpt-fast"), ("uniform-usp", "lpt-naive"),
               ("equal-speed", "lpt-fast"), ("two-class-adversarial", "lpt-naive"),
               ("uniform-dwp", "dwp-lpt"), ("paper-4.3", "lpt-restricted"))


def test_schedule_trace_output_bytes_pinned(tmp_path, capsys):
    """`schedule --trace` stdout in both numeric modes hashes to a pinned
    digest: rendering may get faster, but its bytes never change."""
    digest = hashlib.sha256()
    path = tmp_path / "instance.txt"
    for family, algo in TRACE_CASES:
        for seed in range(3):
            spec = GenSpec(family=family, n=60, m=7, seed=seed)
            path.write_text(write_instance(generate(spec)), encoding="utf-8")
            for numeric in ("rational", "f64"):
                assert main(["schedule", "--algo", algo, "--input", str(path),
                             "--numeric", numeric, "--trace"]) == 0
                digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "0f946f62e33e189d26dfb265a2f65c85371865306527ce8bbf520d7d9f03a94f")
