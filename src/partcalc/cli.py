"""Command-line front end: compute single values, emit tables, run verify suites.

`verify --suite S` runs one suite; `verify` alone runs every suite of
verify.SUITES in order, prints their reports one after another and exits 2 if
any check fails.  Each suite's run builds its own rows, one oracle row per
pattern and backend, and reads every n off them.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 cost-guard
refusal or out of memory.  Values print in full, however many digits they
have.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from .dispatch import METHODS, ComputationRequest, compute, compute_table
from .sequences import QUANTITIES
from .series import CostGuardExceeded

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_COST = 3

FORMATS = ("plain", "json", "csv")

_CHUNK = 10**600


class Parser(argparse.ArgumentParser):
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


def digits(value: int) -> str:
    """The decimal digits of value >= 0, however many.  Python 3.11 refuses
    int to str above 4,300 digits by default, so the digits are converted in
    chunks of 600, below 640, the least limit the interpreter accepts."""
    chunks = []
    while value >= _CHUNK:
        value, low = divmod(value, _CHUNK)
        chunks.append(f"{low:0600d}")
    chunks.append(str(value))
    return "".join(reversed(chunks))


def positive_ints(text: str) -> tuple[int, ...]:
    """The argparse type of a comma-separated list of positive integers:
    --parts here, and --r of scripts/make_tables.py."""
    try:
        values = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as a list of integers") from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("values must be positive integers")
    return values


def _add_route_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", default="auto", choices=METHODS)
    parser.add_argument("--format", default="plain", choices=FORMATS)
    parser.add_argument(
        "--strict",
        action="store_true",
        help="error out instead of falling back when a formula hypothesis fails",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(prog="partcalc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    compute_p = sub.add_parser("compute", help="compute a single value")
    compute_p.add_argument("--quantity", required=True, choices=QUANTITIES)
    compute_p.add_argument("--n", required=True, type=int)
    compute_p.add_argument("--r", type=int)
    compute_p.add_argument("--parts", type=positive_ints, metavar="a1,a2,...")
    _add_route_options(compute_p)
    compute_p.set_defaults(func=cmd_compute)

    table_p = sub.add_parser("table", help="compute a value table over an n range")
    table_p.add_argument("--quantity", required=True, choices=QUANTITIES)
    table_p.add_argument("--from", dest="n_from", required=True, type=int)
    table_p.add_argument("--to", dest="n_to", required=True, type=int)
    table_p.add_argument("--r", type=int)
    _add_route_options(table_p)
    table_p.set_defaults(func=cmd_table)

    verify_p = sub.add_parser("verify", help="run the cross-validation suites, or one of them")
    verify_p.add_argument(
        "--suite", choices=_SuiteNames(), metavar="SUITE", help="one of %(choices)s; all when omitted"
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


def _json_row(quantity: str, n: int, r, parts, value: int, used: str) -> dict:
    return {
        "quantity": quantity,
        "n": n,
        "r": r,
        "parts": None if parts is None else list(parts),
        "method": used,
        "value": digits(value),
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
        import json  # only JSON output needs it

        print(json.dumps(_json_row(req.quantity, req.n, req.r, req.parts, value, used)))
    elif args.format == "csv":
        print("n,value")
        print(f"{req.n},{digits(value)}")
    else:
        print(f"{_label(req)} = {digits(value)}  (method: {used})")
    return EXIT_OK


def cmd_table(args) -> int:
    if args.quantity == "p_a":
        print("partcalc: error: table mode does not support quantity 'p_a'", file=sys.stderr)
        return EXIT_USAGE
    if args.n_from < 0 or args.n_from > args.n_to:
        print("partcalc: error: need 0 <= --from <= --to", file=sys.stderr)
        return EXIT_USAGE
    rows = compute_table(
        args.quantity, args.n_from, args.n_to, r=args.r, method=args.method, strict=args.strict
    )
    if args.format == "json":
        import json  # only JSON output needs it

        out = [_json_row(args.quantity, n, args.r, None, value, used) for n, value, used in rows]
        print(json.dumps(out))
    elif args.format == "csv":
        print("n,value")
        for n, value, _ in rows:
            print(f"{n},{digits(value)}")
    else:
        for n, value, _ in rows:
            print(f"{n} {digits(value)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = (args.suite,) if args.suite else _verify().SUITES
    failed = [_report_suite(suite, args) for suite in suites]
    return EXIT_VERIFY if any(failed) else EXIT_OK


def _report_suite(suite: str, args) -> int:
    """Run one suite and print its report; the number of failing checks."""
    results = _verify().run_suite(suite, max_n=args.max_n, long_running=args.long_running)
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
        f"suite {suite}: {len(results)} checks, {total_cases} cases, "
        f"{failing} failing"
    )
    return failing


def run(command: Callable[[], int]) -> int:
    """command()'s exit code, or, when it raises, EXIT_COST for a cost-guard
    refusal or a MemoryError and EXIT_USAGE for a bad request, with one line
    on stderr."""
    try:
        return command()
    except CostGuardExceeded as exc:
        print(f"partcalc: cost guard: {exc}", file=sys.stderr)
        return EXIT_COST
    except MemoryError:
        print("partcalc: out of memory", file=sys.stderr)
        return EXIT_COST
    except ValueError as exc:  # RequestError and HypothesisError among them
        print(f"partcalc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
