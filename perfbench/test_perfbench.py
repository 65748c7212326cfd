"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import multiplicity, row  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_reference_rows_match_known_values():
    assert row("p", 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert row("pp", 10) == [1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500]
    assert row("pps", 4) == [1, 1, 2, 4, 7]
    assert row("P_r", 5, r=2) == [1, 2, 5, 10, 20, 36]
    assert row("ppso", 3)[3] == 3
    assert row("p_a", 6, parts=(1, 2, 3))[6] == 7


def _expanded(quantity, top, r=None, parts=()):
    """prod_k (1 - q^k)^(-m(k)) up to q^top, one geometric factor at a time."""
    a = [1] + [0] * top
    for k in range(1, top + 1):
        for _ in range(multiplicity(quantity, k, r, parts)):
            for i in range(k, top + 1):
                a[i] += a[i - k]
    return a


@pytest.mark.parametrize("quantity,r,parts", [
    ("p", None, ()), ("pp", None, ()), ("pps", None, ()), ("ppso", None, ()),
    *(("pp_r", r, ()) for r in range(1, 7)), *(("P_r", r, ()) for r in range(1, 7)),
    ("p_a", None, (1, 3, 3, 7, 12, 12, 40)),
])
def test_reference_rows_match_the_product_expansion(quantity, r, parts):
    assert row(quantity, 60, r, parts) == _expanded(quantity, 60, r, parts)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_the_plan(workload):
    first, again = workloads.make_plan(workload, 1), workloads.make_plan(workload, 1)
    assert first.digest == again.digest
    assert first.expected == again.expected
    if workload != "verify-suites":  # the suites take no seed
        assert workloads.make_plan(workload, 2).digest != first.digest


def test_crosscheck_keeps_the_known_defect():
    ops = [op for ops in workloads.make_plan("crosscheck", 1).rounds for op in ops]
    assert any(op["quantity"] == "ppso" and op["method"] == "oracle-enum" for op in ops)


def test_only_marked_refusals_count_as_refused():
    parts = [5, 7, 9, 11, 12]  # a box of about 10**16 points, above the guard
    op = {"id": 0, "quantity": "p_a", "n": 20, "r": None, "parts": parts, "method": "stirling"}
    assert workloads.run_compute(op, None).status == "error"
    assert workloads.run_compute({**op, "refused": True}, None).status == "refused"


def test_route_disagreement_is_wrong_even_when_one_matches_the_reference():
    op = {"quantity": "pp", "n": 5, "r": None, "parts": None, "method": "oracle-dp"}
    agreed = {}
    assert workloads.check_values(op, [24], agreed, [25]).status == "wrong"
    assert workloads.check_values({**op, "method": "oracle-series"}, [24], agreed, [24]).status == "wrong"
    assert workloads.check_values({**op, "n": 4}, [13], agreed, [13]).status == "ok"


def test_tracer_refuses_a_name_the_package_lacks(monkeypatch):
    from partcalc import dispatch

    compute = dispatch.compute
    monkeypatch.setattr(tracing, "SPECS", tracing.SPECS + (("series", "no_such_function", "series", None),))
    with pytest.raises(LookupError, match="series.no_such_function"):
        tracing.Tracer().install()
    assert dispatch.compute is compute


def _cheap(op: dict) -> bool:
    """Keeps a traced round short: no heavy commands, sums or box walks."""
    if "suite" in op:
        return True
    if "argv" in op:
        return op["n"] < 40
    if op["method"] == "stirling":
        if op["quantity"] == "p_a":
            size, walk = workloads.box_points(op["parts"])
            return walk <= 10**5 or size > 10**9
        return op["n"] <= 4
    return op["n"] <= 150


def _traced_counts(workload: str) -> tuple[dict, list]:
    plan = workloads.make_plan(workload, 3)
    ops = [op for op in plan.rounds[0] if _cheap(op)]
    if workload == "verify-suites":
        ops = ops[:len(tracing.SUITES)]  # one repetition is enough to compare counts
    plan.rounds = [ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with run.Clock() as clock:
            samples = run.run_rounds(plan, 1, 0, clock, tracer)
    finally:
        tracer.uninstall()
    tracer.resolve()
    metrics = tracing.summarize(tracer.spans)
    counts = {name: value for name, value in metrics.items() if not name.endswith(("_s", "_ms"))}
    return counts, samples


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    first, samples = _traced_counts(workload)
    second, _ = _traced_counts(workload)
    assert first == second
    assert any(first.values())
    assert {outcome.status for *_, outcome in samples} <= {"ok", "known", "refused"}


def test_per_layer_names_match_benchmark_json():
    emitted = [name for name, _ in tracing.PER_LAYER] + [name for name, _ in run.TRACE_METRICS]
    assert emitted == [metric["name"] for metric in BENCHMARK["per_layer"]]


def test_end_to_end_run_prints_every_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-suites", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 64 and result["failed"] == 0
    assert set(result["metrics"]) == {metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crosscheck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
