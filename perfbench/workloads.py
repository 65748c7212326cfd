"""The four workloads: seeded operation lists, their references, one-op runners.

Every workload is a list of rounds.  All rounds of a workload hold the same
strata of operations; the seed only picks parameters inside each stratum and
the order within a round.  A run executes whole rounds, so every run sees the
same mix of cheap and expensive operations whatever its seed and length.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import partcalc
from partcalc import dispatch, formulas, verify

from reference import Reference
from tracing import SUITES

ROUNDS = 8  # generated per seed; a run that needs more cycles through them
SIX = ("p", "pp", "pps", "ppso", "pp_r", "P_r")
THEOREM = ("pp", "pps", "ppso", "pp_r", "P_r")  # families with a multiplicity-vector formula
ENUM_QUANTITIES = ("p", "pp", "pp_r", "pps", "ppso")  # those with a diagram predicate
WITH_ENUM = tuple(q for q in THEOREM if q in ENUM_QUANTITIES)
WITH_R = ("pp_r", "P_r")
ROUTES = ("oracle-dp", "oracle-series", "oracle-enum", "theorem", "stirling")
ENUM_CAP = 10
GUARD = 10**9  # stirling.DEFAULT_BOX_LIMIT: larger boxes are refused
# Classes of generic p_a boxes for the Stirling sum: (low, high) box points
# and (low, high) points walked, the box without its first coordinate, which
# the walk solves from the congruence.  The walk sets the cost, so a narrow
# walk window keeps each class's cost alike across seeds.  The last class
# lies above the guard and is refused.
BOX_CLASSES = (
    (1, 10**3, 0, 10**3),
    (10**5, 10**7, 10**3, 3 * 10**4),
    (5 * 10**7, 10**8, 9 * 10**5, 11 * 10**5),
    (GUARD + 1, 10**15, 0, 10**15),
)
SUITE_REPEATS = 8  # verify-suites: fresh-process passes over the four suites per round
# ROADMAP item 3: oracle-enum counts symmetric diagrams for ppso, which is
# another sequence.  Its mismatches are counted in wrong_values, not hidden.
KNOWN_DEFECTS = frozenset({("ppso", "oracle-enum")})
CHILD = Path(__file__).resolve().with_name("cli_child.py")


@dataclass(frozen=True)
class Outcome:
    status: str  # ok, wrong, known (the listed defect), refused or error
    wrong: int = 0  # returned values that differ from the reference
    units: int = 1  # work credited to ops_per_s: 1, or verified cases
    rss_kb: int = 0  # peak RSS of the child process, cli-auto only


def _op(quantity, n, method="auto", r=None, parts=None, refused=False) -> dict:
    op = {"quantity": quantity, "n": n, "r": r, "parts": parts, "method": method}
    if refused:
        op["refused"] = True  # the cost guard refuses it today
    return op


def _cli(quantity, n, r=None, parts=None) -> dict:
    argv = ["compute", "--quantity", quantity, "--n", str(n)]
    if r is not None:
        argv += ["--r", str(r)]
    if parts:
        argv += ["--parts", ",".join(map(str, parts))]
    return {**_op(quantity, n, r=r, parts=parts), "ns": [n], "argv": argv + ["--format", "json"]}


def _table(quantity, low, high, r=None) -> dict:
    argv = ["table", "--quantity", quantity, "--from", str(low), "--to", str(high)]
    if r is not None:
        argv += ["--r", str(r)]
    return {**_op(quantity, high, r=r), "ns": list(range(low, high + 1)),
            "argv": argv + ["--format", "json"]}


def _cli_round(rng: random.Random) -> list[dict]:
    """14 light commands, 5 theorem sums at n = 42 and 1 table to 45.

    The light commands fill the lowest 70% of latencies and the sums the
    next 25%, so the median and the p75 tail each sit inside one cluster of
    commands of like cost.
    """
    ops = [
        _cli("p", rng.randint(40, 60)),
        _cli("pp", rng.randint(0, 2)),
        *(_cli(q, rng.randint(3, 30)) for q in ("pp", "pps", "ppso")),
        *(_cli(q, rng.randint(3, 30), r=rng.randint(1, 6)) for q in WITH_R),
    ]
    for _ in range(4):
        ops.append(_cli("p_a", rng.randint(20, 60), parts=sorted(rng.choices(range(1, 13), k=rng.randint(2, 6)))))
    for _ in range(3):
        q = rng.choice(SIX)
        ops.append(_table(q, rng.randint(0, 5), rng.randint(15, 25), rng.randint(2, 6) if q in WITH_R else None))
    for q in THEOREM:
        ops.append(_cli(q, 42, r=rng.randint(2, 6) if q in WITH_R else None))
    # The families whose tables from 40 to 45 cost alike (about 3 s and 160 MB).
    ops.append(_table(rng.choice(("pp", "pps", "ppso")), 40, 45))
    rng.shuffle(ops)
    return ops


def _oracle_round(rng: random.Random) -> list[dict]:
    """Every quantity through both oracles at 8 sizes from n = 100 to 300.

    Cost grows with the parts of the weight sequence times n, so pp, pps and
    ppso at the two largest sizes hold the p95 tail.  Each size has its own
    r, so every round has the same costs; the seed moves n by at most 2 and
    draws the p_a part lists.
    """
    ops = []
    for band, r in zip((100, 115, 130, 150, 175, 210, 260, 300), (1, 2, 3, 4, 5, 6, 3, 4)):
        parts = sorted(rng.choices(range(1, 61), k=rng.randint(20, 30)))
        for q in partcalc.QUANTITIES:
            n = band + rng.randint(-2, 2)
            for method in ("oracle-dp", "oracle-series"):
                ops.append(_op(q, n, method, r if q in WITH_R else None, parts if q == "p_a" else None))
    rng.shuffle(ops)
    return ops


def box_points(parts: list[int]) -> tuple[int, int]:
    """Points of the generic Stirling box for sorted parts, and points walked."""
    lcm = math.lcm(*parts)
    size = math.prod(lcm // p for p in parts)
    return size, size * parts[0] // lcm


def _box_parts(rng: random.Random, low: int, high: int, walk_low: int, walk_high: int) -> list[int]:
    for _ in range(100_000):
        parts = sorted(rng.choices(range(1, 13), k=rng.randint(2, 7)))
        size, walk = box_points(parts)
        if low <= size <= high and walk_low <= walk <= walk_high:
            return parts
    raise RuntimeError(f"no part list with a box of {low}..{high} points")


def _crosscheck_round(rng: random.Random) -> list[dict]:
    """Small cases, each through every route that applies, all non-strict.

    Each case is (quantity, n, r, parts, refused): refused marks a case whose
    Stirling route the cost guard refuses today.
    """
    cases = [(q, n, rng.randint(1, n + 1) if q in WITH_R else None, None, False)
             for q in WITH_ENUM for n in (3, 4)]
    # The family Stirling wrappers at n = 5 that finish within about a second.
    cases += [("pps", 5, None, None, False), ("ppso", 5, None, None, False),
              ("pp_r", 5, 2, None, False), ("P_r", 5, 2, None, False)]
    # n = 6: the family box has lcm(1..6) = 60 values per coordinate, about
    # 4*10**10 points, so the guard refuses it; r = 1 goes through the
    # generic sum over parts 1..6 instead, a box of 6.5*10**7 points.
    for q in rng.sample(WITH_ENUM, 3):
        cases.append((q, 6, rng.randint(2, 5) if q in WITH_R else None, None, True))
    cases += [("p", 6, None, None, False), ("pp_r", 6, 1, None, False), ("P_r", 6, 1, None, False)]
    for box_class, count in zip(BOX_CLASSES, (3, 2, 1, 1)):
        for _ in range(count):
            parts = _box_parts(rng, *box_class)
            cases.append(("p_a", rng.randint(10, 60), None, parts, box_points(parts)[0] > GUARD))
    ops = [
        _op(q, n, method, r, parts, refused and method == "stirling")
        for q, n, r, parts, refused in cases
        for method in ROUTES
        if method != "oracle-enum" or (q in ENUM_QUANTITIES and 1 <= n <= ENUM_CAP)
    ]
    rng.shuffle(ops)
    return ops


def _suite_round(rng: random.Random) -> list[dict]:
    # Each repetition empties the caches first, as a fresh `verify` process would.
    return [{"suite": name, "fresh": name == SUITES[0]} for _ in range(SUITE_REPEATS) for name in SUITES]


GENERATORS = {
    "cli-auto": _cli_round,
    "oracle-large": _oracle_round,
    "crosscheck": _crosscheck_round,
    "verify-suites": _suite_round,
}


@dataclass
class Plan:
    """Seeded rounds of one workload, with the reference value of every op."""

    workload: str
    seed: int
    rounds: list[list[dict]]
    expected: dict[int, list[int]]  # op id -> reference values

    @property
    def digest(self) -> str:
        text = json.dumps([self.workload, self.rounds], sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def round(self, i: int) -> list[dict]:
        return self.rounds[i % len(self.rounds)]


def make_plan(workload: str, seed: int) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    rounds = [GENERATORS[workload](rng) for _ in range(ROUNDS)]
    ops = [op for ops in rounds for op in ops]
    for i, op in enumerate(ops):
        op["id"] = i
    ref = Reference()
    expected = {}
    # Largest n first, so each reference row is computed once.
    for op in sorted(ops, key=lambda op: -op.get("n", 0)):
        if "suite" in op:
            continue
        parts = tuple(op["parts"] or ())
        ns = op.get("ns", [op["n"]])
        expected[op["id"]] = [ref.value(op["quantity"], n, op["r"], parts) for n in ns]
    return Plan(workload, seed, rounds, expected)


def reset_caches() -> None:
    """Leave memory as a fresh process would have it.

    Each vector list that multiplicity_vectors builds stays referenced from a
    reference cycle (its recursive closure) until the cycle collector runs,
    so emptying the cache alone would let peak RSS grow from round to round.
    """
    formulas.multiplicity_vectors.cache_clear()
    gc.collect()


def check_values(op: dict, expected: list[int], agreed: dict, values: list[int]) -> Outcome:
    """Compare values with the reference and with the other routes' values.

    `agreed` maps each case of the current round to the values its first
    route returned.  A value must equal both, so a route that shares the
    reference's algorithm is still checked against the routes that do not.
    The listed known defect is checked against the reference only.
    """
    wrong = abs(len(values) - len(expected))
    if (op["quantity"], op["method"]) in KNOWN_DEFECTS:
        wrong += sum(got != want for got, want in zip(values, expected))
        return Outcome("known" if wrong else "ok", wrong)
    case = json.dumps([op["quantity"], op.get("ns", op["n"]), op["r"], op["parts"]])
    other = agreed.setdefault(case, values)
    wrong += sum(got != want or got != seen for got, want, seen in zip(values, expected, other))
    return Outcome("wrong" if wrong else "ok", wrong)


def run_compute(op: dict, check, **_) -> Outcome:
    """One in-process dispatch.compute call."""
    try:
        req = dispatch.ComputationRequest(
            quantity=op["quantity"], n=op["n"], r=op["r"],
            parts=tuple(op["parts"]) if op["parts"] else None,
            method=op["method"], strict=False,
        )
        value, _ = dispatch.compute(req)
    except partcalc.CostGuardExceeded as exc:
        if op.get("refused"):
            return Outcome("refused")
        print(f"perfbench: op {op['id']}: unexpected refusal: {exc}", file=sys.stderr)
        return Outcome("error")
    except Exception as exc:  # any other failure is an outcome to count, not a crash
        print(f"perfbench: op {op['id']}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return Outcome("error")
    return check([value])


def run_cli(op: dict, check, *, env: dict, spans: Path | None = None, tracer=None) -> Outcome:
    """One `python -m partcalc` command in a fresh child process."""
    if spans is None:
        argv = [sys.executable, "-m", "partcalc", *op["argv"]]
    else:
        argv = [sys.executable, str(CHILD), str(spans), *op["argv"]]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if tracer is not None and spans is not None and spans.exists():
        with open(spans) as fh:
            tracer.adopt(json.load(fh))
        spans.unlink()
    rss = usage.ru_maxrss
    if proc.returncode != 0:  # no command of the plan should be refused (exit 3) or fail
        print(f"perfbench: op {op['id']}: exit {proc.returncode}: {err.decode()[-300:]}", file=sys.stderr)
        return Outcome("error", rss_kb=rss)
    try:
        rows = json.loads(out)
        values = [int(row["value"]) for row in (rows if isinstance(rows, list) else [rows])]
    except (ValueError, KeyError, TypeError):
        print(f"perfbench: op {op['id']}: unreadable output {out[-300:]!r}", file=sys.stderr)
        return Outcome("error", rss_kb=rss)
    outcome = check(values)
    return Outcome(outcome.status, outcome.wrong, rss_kb=rss)


def run_suite(op: dict, check=None, **_) -> Outcome:
    """One verify suite at its default arguments; credits its verified cases."""
    if op["fresh"]:
        reset_caches()
    try:
        results = verify.run_suite(op["suite"])
    except Exception as exc:  # a crashing suite is an outcome to count
        print(f"perfbench: suite {op['suite']}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return Outcome("error", units=0)
    failing = sum(not result.ok for result in results)
    cases = sum(result.cases for result in results)
    if failing:
        return Outcome("wrong", failing, units=cases)
    # A suite that checked nothing has verified nothing.
    return Outcome("ok" if cases else "error", units=cases)


RUNNERS = {
    "cli-auto": run_cli,
    "oracle-large": run_compute,
    "crosscheck": run_compute,
    "verify-suites": run_suite,
}
