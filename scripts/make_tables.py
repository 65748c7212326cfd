#!/usr/bin/env python3
"""Emit value tables for all counting families side by side.

Example:
    python scripts/make_tables.py --to 20 --r 2,3,4 --format markdown

Each column is one dispatch.compute_table row, as `partcalc table` reads
it.  Values print in full, however many digits they have.  Exit codes are
the CLI's: 1 for a usage error, 3 when a cost guard refuses a value, with
the CLI's message on stderr and no table.
"""

from __future__ import annotations

import argparse
import sys

from partcalc.cli import Parser, digits, positive_ints, run
from partcalc.dispatch import METHODS, compute_table


def build_columns(r_values: tuple[int, ...]) -> list[tuple[str, str, int | None]]:
    columns: list[tuple[str, str, int | None]] = [
        ("p", "p", None),
        ("pp", "pp", None),
        ("pps", "pps", None),
        ("ppso", "ppso", None),
    ]
    for r in r_values:
        columns.append((f"pp_{r}", "pp_r", r))
    for r in r_values:
        columns.append((f"P_{r}", "P_r", r))
    return columns


def main(argv: list[str] | None = None) -> int:
    parser = Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--from", dest="n_from", type=int, default=0)
    parser.add_argument("--to", dest="n_to", type=int, default=20)
    parser.add_argument(
        "--r", type=positive_ints, default=(2, 3), metavar="r1,r2,...",
        help="r values for the row-bounded and multipartition columns",
    )
    parser.add_argument("--method", default="auto", choices=METHODS)
    parser.add_argument("--format", choices=("csv", "markdown"), default="csv")
    args = parser.parse_args(argv)
    if args.n_from < 0 or args.n_from > args.n_to:
        parser.error("need 0 <= --from <= --to")
    return run(lambda: print_table(args))


def print_table(args: argparse.Namespace) -> int:
    columns = build_columns(args.r)
    values = [
        [value for _, value, _ in compute_table(quantity, args.n_from, args.n_to, r, args.method)]
        for _, quantity, r in columns
    ]
    rows = [[n, *row] for n, *row in zip(range(args.n_from, args.n_to + 1), *values)]

    header = ["n"] + [label for label, _, _ in columns]
    if args.format == "markdown":
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join("---" for _ in header) + "|")
        for row in rows:
            print("| " + " | ".join(map(digits, row)) + " |")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(map(digits, row)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
