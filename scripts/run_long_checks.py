#!/usr/bin/env python3
"""Run every verification suite back to back and report timings.

Example:
    python scripts/run_long_checks.py --long-running
"""

from __future__ import annotations

import argparse
import sys
import time

from partcalc import verify


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", dest="max_n", type=int)
    parser.add_argument(
        "--long-running",
        dest="long_running",
        action="store_true",
        help="also count diagrams to n=16 and run the congruence-sum wrappers at n=5",
    )
    args = parser.parse_args(argv)

    failing_suites = 0
    for suite in verify.SUITES:
        started = time.perf_counter()
        results = verify.run_suite(
            suite, max_n=args.max_n, long_running=args.long_running
        )
        elapsed = time.perf_counter() - started
        failing = [res for res in results if not res.ok]
        cases = sum(res.cases for res in results)
        status = "FAIL" if failing else "ok"
        print(f"{status:<4} suite {suite:<20} {len(results)} checks, {cases} cases, {elapsed:.2f}s")
        for res in failing:
            for failure in res.failures:
                print(f"     {res.name}: {failure}")
        failing_suites += bool(failing)
    return 2 if failing_suites else 0


if __name__ == "__main__":
    sys.exit(main())
