from __future__ import annotations

import json
import sys

import pytest

from partcalc import formulas, series, verify
from partcalc.cli import main
from partcalc.formulas import CostGuardExceeded
from partcalc.series import oracle_value


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
    assert "(method: oracle-dp)" in out
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
    capsys.readouterr()
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


def test_theorem_guard_exit_code(capsys):
    code, out, _ = run_cli(capsys, "compute", "--quantity", "pp", "--n", "100", "--format", "json")
    assert code == 0
    assert json.loads(out)["method"] == "oracle-dp"
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
    assert rows[0]["method"] == "oracle-dp"
    assert rows[-1]["method"] == "theorem"


def test_table_strict(capsys):
    args = ("table", "--quantity", "pp", "--from", "1", "--to", "4", "--method", "theorem")
    code, out, err = run_cli(capsys, *args, "--strict")
    assert code == 1
    assert out == ""
    assert "does not cover pp, n=1" in err
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out.splitlines() == ["1 1", "2 3", "3 6", "4 13"]


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
    monkeypatch.setattr(formulas, "VECTOR_LIMIT", 42)  # p(10) = 42, p(11) = 56
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
    monkeypatch.setattr(series, "DP_PART_LIMIT", 1000)
    code, out, err = run_cli(capsys, "compute", "--quantity", "P_r", "--n", "50", "--r", "100")
    assert code == 3
    assert out == ""
    assert "cost guard" in err and "--method oracle-series" in err
    code, out, _ = run_cli(
        capsys, "compute", "--quantity", "P_r", "--n", "50", "--r", "100", "--method", "oracle-series"
    )
    assert code == 0
    assert out.startswith("P_r(50; r=100) = ")
