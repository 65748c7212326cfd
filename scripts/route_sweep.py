#!/usr/bin/env python3
"""Run a fixed grid and a seeded random grid of CLI requests and print each result.

Every request goes through `partcalc.cli.main` in this process.  Each one
prints one canonical line, a JSON list [arguments, exit code, stdout,
stderr], and the run ends with a SHA-256 digest of those lines.  Two
checkouts that serve every request alike print the same output, so a change
that must move no value can be compared with its parent by diff:

    PYTHONPATH=src python scripts/route_sweep.py --seed 1 > after.txt

The fixed grid is every quantity at n = 0..9 (r = 1..10 where the quantity
takes r, parts 1,2,3 for p_a) by every method, as `compute` at each n and
as `table --from 0 --to 9`: 1,650 requests.  The random grid draws
RANDOM_COUNT = 400 requests from --seed: a quantity, a method, `compute` at
n = 0..60 or a `table` of at most 8 rows below 61, r = 1..12, and for p_a
1..4 parts of 1..6.  Family Stirling requests and enumeration requests are
drawn at n <= 12: the family Stirling sums reach only n <= 5
(stirling.FAMILY_REACH), so a larger n would add only more of the same
refusal.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys

from partcalc import cli
from partcalc.dispatch import METHODS
from partcalc.sequences import QUANTITIES, R_QUANTITIES

GRID_TOP = 9
GRID_R = range(1, 11)
GRID_PARTS = "1,2,3"
RANDOM_COUNT = 400
RANDOM_TOP = 60
STIRLING_TOP = 12
ENUM_TOP = 12


def run(argv: list[str]) -> list:
    """[arguments, exit code, stdout, stderr] of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return [" ".join(argv), code, out.getvalue(), err.getvalue()]


def _extra(quantity: str, r: int | None, parts: str) -> list[str]:
    if quantity in R_QUANTITIES:
        return ["--r", str(r)]
    return ["--parts", parts] if quantity == "p_a" else []


def fixed_grid():
    for quantity in QUANTITIES:
        for r in GRID_R if quantity in R_QUANTITIES else (None,):
            extra = _extra(quantity, r, GRID_PARTS)
            for method in METHODS:
                for n in range(GRID_TOP + 1):
                    yield ["compute", "--quantity", quantity, "--n", str(n), *extra, "--method", method]
                table = ["--from", "0", "--to", str(GRID_TOP)]
                yield ["table", "--quantity", quantity, *table, *extra, "--method", method]


def random_grid(seed: int):
    rng = random.Random(seed)
    for _ in range(RANDOM_COUNT):
        quantity = rng.choice(QUANTITIES)
        method = rng.choice(METHODS)
        top = RANDOM_TOP
        if method == "stirling" and quantity != "p_a":
            top = STIRLING_TOP
        elif method == "oracle-enum":
            top = ENUM_TOP
        parts = ",".join(str(rng.randint(1, 6)) for _ in range(rng.randint(1, 4)))
        extra = _extra(quantity, rng.randint(1, 12), parts)
        if rng.random() < 0.8:
            n = ["--n", str(rng.randint(0, top))]
            yield ["compute", "--quantity", quantity, *n, *extra, "--method", method]
        else:
            low = rng.randint(0, top)
            rows = ["--from", str(low), "--to", str(min(top, low + rng.randint(0, 7)))]
            yield ["table", "--quantity", quantity, *rows, *extra, "--method", method]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    digest = hashlib.sha256()
    requests = 0
    for request in (*fixed_grid(), *random_grid(args.seed)):
        line = json.dumps(run(request))
        print(line)
        digest.update(line.encode() + b"\n")
        requests += 1
    print(f"digest sha256:{digest.hexdigest()} over {requests} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
