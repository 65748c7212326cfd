"""A fresh `python -m partcalc` loads only the modules its route needs.

Each test starts a new interpreter, because the test process itself has
imported every partcalc module long before.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Not needed by a `compute` or `table` on the theorem, series or DP route.
LAZY_MODULES = ("partcalc.stirling", "partcalc.diagrams", "partcalc.verify", "dataclasses", "fractions")

# Every partcalc module that a `compute` on the series or DP route, or a
# `table`, loads: choosing the route reads no formulas or combinat.
ORACLE_MODULES = ["partcalc", "partcalc.cli", "partcalc.dispatch", "partcalc.sequences", "partcalc.series"]

# Runs `python -m partcalc ARGS...` in this process, then prints the names of
# the loaded modules as the last line of standard error.
RUN_AND_LIST_MODULES = """
import json, runpy, sys
sys.argv = ["partcalc", *sys.argv[1:]]
try:
    runpy.run_module("partcalc", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""


def _python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )


def _run_partcalc(*args: str) -> tuple[str, list[str]]:
    """Standard output of the command, and the modules it loaded."""
    done = _python("-c", RUN_AND_LIST_MODULES, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stderr.splitlines()[-1])


@pytest.mark.parametrize(
    "args, out",
    [
        (("compute", "--quantity", "pp", "--n", "42"), "pp(42) = 593001267  (method: oracle-series)\n"),
        (
            ("compute", "--quantity", "p_a", "--parts", "2,3,7,11", "--n", "50"),
            "p_a(50; parts=2,3,7,11) = 83  (method: oracle-dp)\n",
        ),
        (
            ("table", "--quantity", "pps", "--from", "1", "--to", "8"),
            "1 1\n2 2\n3 4\n4 7\n5 12\n6 21\n7 34\n8 56\n",
        ),
    ],
    ids=["series", "dp", "table"],
)
def test_oracle_commands_load_no_formulas(args, out):
    got, modules = _run_partcalc(*args)
    assert got == out
    assert [name for name in modules if name.split(".")[0] == "partcalc"] == ORACLE_MODULES
    assert [name for name in LAZY_MODULES if name in modules] == []


def test_theorem_loads_formulas_on_first_use():
    got, modules = _run_partcalc("compute", "--quantity", "pp", "--n", "5")
    assert got == "pp(5) = 24  (method: theorem)\n"
    assert "partcalc.formulas" in modules
    assert [name for name in LAZY_MODULES if name in modules] == []


def test_theorem_loads_no_combinat():
    # The theorem sums take their binomials from math.comb.
    got, modules = _run_partcalc("compute", "--quantity", "pp", "--n", "20", "--method", "theorem")
    assert got == "pp(20) = 75278  (method: theorem)\n"
    assert "partcalc.formulas" in modules
    assert [name for name in ("partcalc.combinat", *LAZY_MODULES) if name in modules] == []


@pytest.mark.parametrize("fmt, loaded", [("plain", False), ("csv", False), ("json", True)])
def test_only_json_output_imports_json(fmt, loaded):
    # The harness above imports json itself, so the import list comes from
    # the interpreter's own -X importtime report.
    done = _python("-X", "importtime", "-m", "partcalc", "compute", "--quantity", "pp", "--n", "42",
                   "--format", fmt)
    assert done.returncode == 0, done.stderr
    imported = [line.rpartition("|")[2].strip() for line in done.stderr.splitlines()]
    assert ("json" in imported) is loaded


@pytest.mark.parametrize(
    "args, out, loaded",
    [
        (
            ("compute", "--quantity", "pps", "--n", "4", "--method", "stirling"),
            "pps(4) = 7  (method: stirling)\n",
            "partcalc.stirling",
        ),
        (
            ("compute", "--quantity", "pp_r", "--n", "5", "--r", "2", "--method", "stirling"),
            "pp_r(5; r=2) = 16  (method: stirling)\n",
            "partcalc.stirling",
        ),
        (
            ("compute", "--quantity", "pp", "--n", "5", "--method", "oracle-enum"),
            "pp(5) = 24  (method: oracle-enum)\n",
            "partcalc.diagrams",
        ),
    ],
    ids=["stirling-pps", "stirling-pp_r", "oracle-enum"],
)
def test_stirling_and_enumeration_load_on_first_use(args, out, loaded):
    got, modules = _run_partcalc(*args)
    assert got == out
    assert loaded in modules
    assert [name for name in ("partcalc.formulas", "partcalc.verify") if name in modules] == []


def test_verify_loads_verify():
    got, modules = _run_partcalc("verify", "--suite", "examples")
    lines = got.splitlines()
    assert lines[-1] == "suite examples: 9 checks, 68 cases, 0 failing"
    assert all(line.startswith("ok   known-values[") for line in lines[:-1])
    assert "partcalc.verify" in modules


def test_every_public_name_resolves():
    check = """
import sys
import partcalc
lazy = ("formulas", "combinat", "stirling", "diagrams")
assert [name for name in lazy if f"partcalc.{name}" in sys.modules] == []
missing = [name for name in partcalc.__all__ if getattr(partcalc, name, None) is None]
assert not missing, missing
cached = [name for name in partcalc.__all__ if name not in vars(partcalc)]
from partcalc import *
assert all(name in globals() for name in partcalc.__all__)
from partcalc import combinat, formulas, stirling
assert partcalc.pp_stirling is stirling.pp_stirling
assert partcalc.pp_formula is formulas.pp_formula
assert partcalc.bounded_composition_count is combinat.bounded_composition_count
assert [name for name in cached if name in vars(partcalc)] == []
try:
    partcalc.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("partcalc.no_such_name resolved")
print(len(cached))
"""
    done = _python("-c", check)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == 26  # the formulas, combinat, stirling and diagrams names
