from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

from partcalc import formulas, series, stirling, verify
from partcalc.cli import main
from partcalc.series import CostGuardExceeded, oracle_value


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_plain(capsys):
    code, out, err = run_cli(capsys, "compute", "--quantity", "pp", "--n", "3")
    assert code == 0
    assert out == "pp(3) = 6  (method: theorem)\n"
    assert err == ""


def test_compute_plain_with_r_and_parts_labels(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--quantity", "pp_r", "--n", "5", "--r", "2"
    )
    assert code == 0
    assert out == "pp_r(5; r=2) = 16  (method: theorem)\n"
    code, out, _ = run_cli(
        capsys, "compute", "--quantity", "p_a", "--n", "6", "--parts", "1,2,3"
    )
    assert code == 0
    assert out == "p_a(6; parts=1,2,3) = 7  (method: oracle-dp)\n"


def test_compute_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute", "--quantity", "P_r", "--n", "4", "--r", "3", "--format", "json",
    )
    assert code == 0
    row = json.loads(out)
    assert row == {
        "quantity": "P_r",
        "n": 4,
        "r": 3,
        "parts": None,
        "method": "theorem",
        "value": "51",
    }


def test_compute_json_lists_parts(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute", "--quantity", "p_a", "--n", "6", "--parts", "1,2,3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "quantity": "p_a",
        "n": 6,
        "r": None,
        "parts": [1, 2, 3],
        "method": "oracle-dp",
        "value": "7",
    }


def test_compute_csv(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--quantity", "pps", "--n", "4", "--format", "csv"
    )
    assert code == 0
    assert out == "n,value\n4,7\n"


def test_compute_method_fallback_and_strict(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--quantity", "pp", "--n", "2", "--method", "theorem"
    )
    assert code == 0
    assert "(method: oracle-series)" in out
    code, _, err = run_cli(
        capsys,
        "compute", "--quantity", "pp", "--n", "2", "--method", "theorem", "--strict",
    )
    assert code == 1
    assert "error" in err


def test_compute_usage_errors(capsys):
    code, _, err = run_cli(capsys, "compute", "--quantity", "pp_r", "--n", "3")
    assert code == 1
    assert "requires --r" in err
    code, _, err = run_cli(capsys, "compute", "--quantity", "pp", "--n", "-2")
    assert code == 1
    code, _, err = run_cli(
        capsys, "compute", "--quantity", "pp", "--n", "3", "--parts", "1,2"
    )
    assert code == 1


def test_argparse_failures_exit_one(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["compute", "--quantity", "nope", "--n", "3"])
    assert exc_info.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc_info:
        main(["compute", "--quantity", "p_a", "--n", "3", "--parts", "1,x"])
    assert exc_info.value.code == 1
    assert "argument --parts: cannot parse '1,x'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 1
    capsys.readouterr()


def test_cost_guard_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--quantity", "pp", "--n", "9", "--method", "stirling"
    )
    assert code == 3
    assert "cost guard" in err


@pytest.mark.parametrize("n", ["16", "30"])
def test_family_stirling_guard_exits_before_building_tables(capsys, n):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "compute", "--quantity", "pp", "--n", n, "--method", "stirling")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert "cost guard: family Stirling sums reach only n <= 5" in err


def _primes_above(low, count):
    primes = []
    k = low
    while len(primes) < count:
        k += 1
        if all(k % d for d in range(2, int(k**0.5) + 1)):
            primes.append(k)
    return primes


# Each generic box has far more than 4,300 digits' worth of points or more
# than 64 coordinates; the guard decides on the box of the first 64, 128, ...
# coordinates, or prints a power of ten below the count.  A family request
# is above the family reach, refused before its pattern is built.
HUGE_STIRLING_REQUESTS = [
    ("p", "--n", "300"),
    ("p", "--n", "1000"),
    ("p", "--n", "1000000000"),
    ("pp", "--n", "1000"),
    ("pp", "--n", "3000"),
    ("pp", "--n", "1000000000"),
    ("P_r", "--n", "1000", "--r", "5"),
    ("p_a", "--n", "50", "--parts", ",".join(map(str, range(1, 1201)))),
    ("p_a", "--n", "50", "--parts", ",".join(map(str, _primes_above(10**6, 40)))),
]


@pytest.mark.parametrize("request_args", HUGE_STIRLING_REQUESTS, ids=lambda args: args[0])
def test_stirling_guard_refuses_huge_boxes_at_once(capsys, family_patterns_up_to, request_args):
    family_patterns_up_to(0)
    quantity, *extra = request_args
    start = time.perf_counter()
    argv = ("compute", "--quantity", quantity, *extra, "--method", "stirling")
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    family = quantity in ("pp", "P_r")
    refusal = "family Stirling sums reach only " if family else "congruence box has at least "
    assert err.startswith("partcalc: cost guard: " + refusal)
    assert len(err) < 4300


def test_theorem_guard_exit_code(capsys):
    code, out, _ = run_cli(capsys, "compute", "--quantity", "pp", "--n", "100", "--format", "json")
    assert code == 0
    assert json.loads(out)["method"] == "oracle-series"
    for extra in ((), ("--strict",)):
        code, out, err = run_cli(
            capsys, "compute", "--quantity", "pp", "--n", "100", "--method", "theorem", *extra
        )
        assert code == 3
        assert out == ""
        assert "cost guard" in err


def test_table_plain(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--quantity", "pp", "--from", "0", "--to", "5"
    )
    assert code == 0
    assert out == "0 1\n1 1\n2 3\n3 6\n4 13\n5 24\n"


def test_table_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "table", "--quantity", "ppso", "--from", "0", "--to", "6", "--format", "csv",
    )
    assert code == 0
    assert out == "n,value\n0,1\n1,1\n2,2\n3,3\n4,6\n5,8\n6,15\n"


def test_table_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "table",
        "--quantity", "P_r", "--from", "0", "--to", "4", "--r", "2",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [int(row["value"]) for row in rows] == [1, 2, 5, 10, 20]
    assert [row["n"] for row in rows] == [0, 1, 2, 3, 4]
    # One series row serves the table: 10 multiply-adds at n = 4, against 20
    # by the DP.
    assert [row["method"] for row in rows] == ["oracle-series"] * 5


def test_table_strict(capsys):
    args = ("table", "--quantity", "pp", "--from", "1", "--to", "4", "--method", "theorem")
    code, out, err = run_cli(capsys, *args, "--strict")
    assert code == 1
    assert out == ""
    assert "does not cover pp, n=1" in err
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out.splitlines() == ["1 1", "2 3", "3 6", "4 13"]


def test_table_refuses_at_its_top_row_before_any_work(capsys, listings):
    args = ("table", "--quantity", "pp", "--from", "19", "--to", "21", "--method", "oracle-enum")
    code, out, err = run_cli(capsys, *args)
    assert code == 3
    assert out == ""
    assert "enumeration limit" in err
    assert listings == []
    code, out, _ = run_cli(capsys, "table", "--quantity", "pps", "--from", "2", "--to", "5",
                           "--method", "oracle-enum")
    assert code == 0
    assert out.splitlines() == ["2 2", "3 4", "4 7", "5 12"]
    assert listings == [5, 2, 3, 4]
    # The top row's error wins: n = 1 is outside the theorem's hypothesis
    # (exit 1), but n = 100 is above its cost guard (exit 3) and comes first.
    code, out, err = run_cli(capsys, "table", "--quantity", "pp", "--from", "1", "--to", "100",
                             "--method", "theorem", "--strict")
    assert code == 3
    assert out == ""
    assert "cost guard" in err


def test_table_rejects_p_a_and_bad_ranges(capsys):
    code, _, err = run_cli(
        capsys, "table", "--quantity", "p_a", "--from", "0", "--to", "3"
    )
    assert code == 1
    assert "p_a" in err
    code, _, err = run_cli(
        capsys, "table", "--quantity", "pp", "--from", "4", "--to", "2"
    )
    assert code == 1
    code, _, err = run_cli(
        capsys, "table", "--quantity", "pp", "--from", "-1", "--to", "2"
    )
    assert code == 1


def test_verify_suite_runs_clean(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "examples")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok  ") for line in lines[:-1])
    assert lines[-1].startswith("suite examples:")
    assert lines[-1].endswith("0 failing")


def test_verify_without_a_suite_runs_every_suite(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    summaries = [line for line in out.splitlines() if line.startswith("suite ")]
    assert summaries == [
        "suite examples: 9 checks, 68 cases, 0 failing",
        "suite cross-method: 10 checks, 1598 cases, 0 failing",
        "suite oracle-consistency: 13 checks, 930 cases, 0 failing",
        "suite stirling: 12 checks, 379 cases, 0 failing",
    ]


def test_verify_without_a_suite_reports_every_suite_after_a_failure(capsys, monkeypatch):
    real = verify.run_suite

    def fail_one(name, **kwargs):
        results = real(name, **kwargs)
        if name == "cross-method":
            results[0].expect(1, 0, "planted")
        return results

    monkeypatch.setattr(verify, "run_suite", fail_one)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 2
    summaries = [line for line in out.splitlines() if line.startswith("suite ")]
    assert [line.split(":")[0] for line in summaries] == [f"suite {name}" for name in verify.SUITES]
    assert summaries[1].endswith(" 1 failing")
    assert "     mismatch: planted: expected 0, got 1" in out


def test_verify_max_n_cap(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "oracle-consistency", "--max-n", "8"
    )
    assert code == 0
    assert "0 failing" in out


def test_verify_rejects_max_n_below_one(capsys):
    for suite, bound in (("cross-method", "-1"), ("oracle-consistency", "0")):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", bound)
        assert code == 1
        assert out == ""
        assert f"max_n must be >= 1, got {bound}" in err


def test_verify_prints_checks_without_cases_as_skip(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "stirling", "--max-n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert any(line.startswith("skip stirling-wrapper[pp]") for line in lines)
    assert not any(line.startswith("ok   stirling-wrapper[pp]") for line in lines)
    assert any(line.startswith("skip stirling-wrapper[pp_r]") for line in lines)
    code, out, _ = run_cli(capsys, "verify", "--suite", "stirling", "--max-n", "3")
    assert code == 0
    assert any(line.startswith("ok   stirling-wrapper[pp_r]") for line in out.splitlines())


def test_verify_cross_method_skips_the_theorem_above_the_vector_limit(capsys, monkeypatch):
    monkeypatch.setattr(series, "VECTOR_LIMIT", 42)  # p(10) = 42, p(11) = 56
    code, out, err = run_cli(capsys, "verify", "--suite", "cross-method", "--max-n", "12")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("0 failing")
    assert err == ""


def test_verify_guard_refusal_exits_3(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise CostGuardExceeded("too many points")

    monkeypatch.setattr(verify, "run_suite", refuse)
    code, out, err = run_cli(capsys, "verify", "--suite", "examples")
    assert code == 3
    assert out == ""
    assert "cost guard: too many points" in err


def test_verify_oracle_rows_pass_the_work_guard(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--suite", "oracle-consistency", "--max-n", "20000")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert "cost guard: the series oracle needs at least" in err


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "--suite", "everything"])
    assert exc_info.value.code == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'everything'" in err
    assert "'examples'" in err


def test_long_values_print_in_full(capsys):
    # P_r(100) at r = 10**9 has 743 digits, more than the lowered limit of 640.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on int to str conversion")
    old_limit = sys.get_int_max_str_digits()
    value = oracle_value("P_r", 100, r=10**9, backend="series")
    try:
        sys.set_int_max_str_digits(640)
        args = ("--quantity", "P_r", "--r", str(10**9), "--method", "oracle-series")
        code, out, _ = run_cli(capsys, "compute", "--n", "100", *args)
        assert code == 0
        digits = out.split(" = ")[1].split()[0]
        assert len(digits) > 640
        code, out, _ = run_cli(capsys, "compute", "--n", "100", *args, "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == digits
        code, out, _ = run_cli(capsys, "compute", "--n", "100", *args, "--format", "csv")
        assert out == f"n,value\n100,{digits}\n"
        code, out, _ = run_cli(
            capsys, "table", "--from", "99", "--to", "100", *args, "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[-1] == f"100,{digits}"
        code, out, _ = run_cli(capsys, "table", "--from", "100", "--to", "100", *args)
        assert out == f"100 {digits}\n"
        with pytest.raises(ValueError):
            str(value)  # the interpreter's limit still holds outside the CLI
    finally:
        sys.set_int_max_str_digits(old_limit)
    assert digits == str(value)


def test_dp_guard_exit_code(capsys, monkeypatch):
    # A limit at the series' estimate refuses the DP, which estimates more.
    limit = series.oracle_cost("series", "P_r", 50, r=100)[0]
    monkeypatch.setattr(series, "ORACLE_WORK_LIMIT", limit)
    args = ("compute", "--quantity", "P_r", "--n", "50", "--r", "100")
    code, out, err = run_cli(capsys, *args, "--method", "oracle-dp")
    assert code == 3
    assert out == ""
    assert "cost guard: the DP oracle needs at least" in err
    value = oracle_value("P_r", 50, r=100, backend="series")
    for method in ("oracle-series", "auto"):
        code, out, _ = run_cli(capsys, *args, "--method", method)
        assert code == 0
        assert out == f"P_r(50; r=100) = {value}  (method: oracle-series)\n"


def _make_tables():
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_tables.py"
    spec = importlib.util.spec_from_file_location("make_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_make_tables_exit_codes(capsys, monkeypatch):
    tables = _make_tables()
    for argv, message in ((["--method", "foo"], "argument --method: invalid choice: 'foo'"),
                          (["--from", "5", "--to", "2"], "need 0 <= --from <= --to"),
                          (["--r", "2,x"], "argument --r: cannot parse '2,x'"),
                          (["--r", "3,0"], "argument --r: values must be positive")):
        with pytest.raises(SystemExit) as exc_info:
            tables(argv)
        assert exc_info.value.code == 1
        assert message in capsys.readouterr().err
    monkeypatch.setattr(series, "VECTOR_LIMIT", 42)  # p(10) = 42, p(11) = 56
    assert tables(["--method", "theorem", "--to", "10"]) == 0
    theorem = capsys.readouterr().out
    assert tables(["--to", "10"]) == 0
    assert capsys.readouterr().out == theorem
    assert tables(["--method", "theorem", "--to", "12"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "partcalc: cost guard: A_12 has 77 multiplicity vectors, above the limit of 42\n"


def test_enumeration_tables_equal_auto(capsys):
    # Enumeration serves p, pp, pps and pp_r; ppso and P_r with r >= 2 fall back.
    tables = _make_tables()
    assert tables(["--to", "8", "--method", "oracle-enum"]) == 0
    enum = capsys.readouterr().out
    assert tables(["--to", "8"]) == 0
    assert capsys.readouterr().out == enum
    table = ("table", "--quantity", "ppso", "--from", "0", "--to", "8")
    assert run_cli(capsys, *table, "--method", "oracle-enum") == run_cli(capsys, *table)


def test_make_tables_prints_long_values_in_full(capsys, monkeypatch):
    # P_r(100) at r = 10**9 has 743 digits, more than the lowered limit of 640.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on int to str conversion")
    value = oracle_value("P_r", 100, r=10**9, backend="series")
    old_limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        code = _make_tables()(["--from", "100", "--to", "100", "--r", str(10**9)])
    finally:
        sys.set_int_max_str_digits(old_limit)
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(f",{value}")
