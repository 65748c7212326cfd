"""Command-line front end: compute single values, emit tables, run verify suites.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 cost-guard
refusal.  Values print in full, however many digits they have.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dispatch import METHODS, ComputationRequest, compute
from .formulas import CostGuardExceeded
from .sequences import QUANTITIES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_COST = 3

FORMATS = ("plain", "json", "csv")

_CHUNK = 10**600


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; usage errors are 1 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _verify():
    """The verify module, imported only by the verify command."""
    from . import verify

    return verify


class _SuiteNames:
    """verify.SUITES as argparse choices, read only when a verify command
    checks a suite name or prints them, so no other command loads verify."""

    def __contains__(self, name) -> bool:
        return name in _verify().SUITES

    def __iter__(self):
        return iter(_verify().SUITES)


def _digits(value: int) -> str:
    """The decimal digits of value >= 0, however many.  Python 3.11 refuses
    int to str above 4,300 digits by default, so the digits are converted in
    chunks of 600, below 640, the least limit the interpreter accepts."""
    chunks = []
    while value >= _CHUNK:
        value, low = divmod(value, _CHUNK)
        chunks.append(f"{low:0600d}")
    chunks.append(str(value))
    return "".join(reversed(chunks))


def _parts(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse parts {text!r}") from None
    if not parts or any(p < 1 for p in parts):
        raise argparse.ArgumentTypeError("parts must be positive integers")
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="partcalc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    compute_p = sub.add_parser("compute", help="compute a single value")
    compute_p.add_argument("--quantity", required=True, choices=QUANTITIES)
    compute_p.add_argument("--n", required=True, type=int)
    compute_p.add_argument("--r", type=int)
    compute_p.add_argument("--parts", type=_parts, metavar="a1,a2,...")
    compute_p.add_argument("--method", default="auto", choices=METHODS)
    compute_p.add_argument("--format", default="plain", choices=FORMATS)
    compute_p.add_argument(
        "--strict",
        action="store_true",
        help="error out instead of falling back when a formula hypothesis fails",
    )
    compute_p.set_defaults(func=cmd_compute)

    table_p = sub.add_parser("table", help="compute a value table over an n range")
    table_p.add_argument("--quantity", required=True, choices=QUANTITIES)
    table_p.add_argument("--from", dest="n_from", required=True, type=int)
    table_p.add_argument("--to", dest="n_to", required=True, type=int)
    table_p.add_argument("--r", type=int)
    table_p.add_argument("--method", default="auto", choices=METHODS)
    table_p.add_argument("--format", default="plain", choices=FORMATS)
    table_p.add_argument(
        "--strict",
        action="store_true",
        help="error out instead of falling back when a formula hypothesis fails",
    )
    table_p.set_defaults(func=cmd_table)

    verify_p = sub.add_parser("verify", help="run a cross-validation suite")
    verify_p.add_argument(
        "--suite", required=True, choices=_SuiteNames(), metavar="SUITE", help="one of %(choices)s"
    )
    verify_p.add_argument("--max-n", dest="max_n", type=int)
    verify_p.add_argument("--long-running", dest="long_running", action="store_true")
    verify_p.set_defaults(func=cmd_verify)

    return parser


def _label(req: ComputationRequest) -> str:
    inner = str(req.n)
    if req.r is not None:
        inner += f"; r={req.r}"
    if req.parts is not None:
        inner += f"; parts={','.join(map(str, req.parts))}"
    return f"{req.quantity}({inner})"


def _json_row(req: ComputationRequest, value: int, used: str) -> dict:
    return {
        "quantity": req.quantity,
        "n": req.n,
        "r": req.r,
        "parts": None if req.parts is None else list(req.parts),
        "method": used,
        "value": _digits(value),
    }


def cmd_compute(args) -> int:
    req = ComputationRequest(
        quantity=args.quantity,
        n=args.n,
        r=args.r,
        parts=args.parts,
        method=args.method,
        strict=args.strict,
    )
    value, used = compute(req)
    if args.format == "json":
        print(json.dumps(_json_row(req, value, used)))
    elif args.format == "csv":
        print("n,value")
        print(f"{req.n},{_digits(value)}")
    else:
        print(f"{_label(req)} = {_digits(value)}  (method: {used})")
    return EXIT_OK


def cmd_table(args) -> int:
    if args.quantity == "p_a":
        print("partcalc: error: table mode does not support quantity 'p_a'", file=sys.stderr)
        return EXIT_USAGE
    if args.n_from < 0 or args.n_from > args.n_to:
        print("partcalc: error: need 0 <= --from <= --to", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for n in range(args.n_from, args.n_to + 1):
        req = ComputationRequest(
            quantity=args.quantity, n=n, r=args.r, method=args.method, strict=args.strict
        )
        value, used = compute(req)
        rows.append((req, value, used))
    if args.format == "json":
        print(json.dumps([_json_row(req, value, used) for req, value, used in rows]))
    elif args.format == "csv":
        print("n,value")
        for req, value, _ in rows:
            print(f"{req.n},{_digits(value)}")
    else:
        for req, value, _ in rows:
            print(f"{req.n} {_digits(value)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = _verify().run_suite(args.suite, max_n=args.max_n, long_running=args.long_running)
    failing = 0
    total_cases = 0
    for res in results:
        status = "FAIL" if not res.ok else "ok  " if res.cases else "skip"
        print(f"{status} {res.name:<44} {res.cases:>6} cases")
        for failure in res.failures:
            print(f"     mismatch: {failure}")
        total_cases += res.cases
        failing += 0 if res.ok else 1
    print(
        f"suite {args.suite}: {len(results)} checks, {total_cases} cases, "
        f"{failing} failing"
    )
    return EXIT_VERIFY if failing else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CostGuardExceeded as exc:
        print(f"partcalc: cost guard: {exc}", file=sys.stderr)
        return EXIT_COST
    except ValueError as exc:  # RequestError and HypothesisError among them
        print(f"partcalc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
