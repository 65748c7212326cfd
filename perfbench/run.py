"""partcalc benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 20 --trace 0

--trace 0 runs whole rounds of the seeded operation list, at least
MIN_ROUNDS of them and then until --seconds have passed, and reports the
end-to-end metrics.  --trace 1 runs the first TRACE_ROUNDS rounds untraced,
then the same rounds under the span tracer, and reports the per-layer
metrics and the tracing overhead.  Each run first sets up SETUPS times and
reports the median set-up time.  The load is a closed loop: one client, one
operation at a time, no threads.

Times are reported at a fixed reference speed.  The speed of a shared
machine drifts by tens of percent within seconds, for CPU time as much as
for wall time, so every PERIOD_S a timer signal makes the benchmark time a
fixed loop of pure-Python work (`Clock`).  Each operation's and set-up's
wall time, less the sampling, is scaled by the machine's speed sampled just
before and during it.  The benchmark and its child processes are pinned to
one CPU, so the loop runs where the operations run.

Every value is checked against a reference computed during set-up and
against the other routes' values for the same case.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

# workloads and tracing import partcalc, so functions import them only after
# main() has checked for src/partcalc and put src/ on sys.path.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("cli-auto", "oracle-large", "crosscheck", "verify-suites")
SETUPS = 9
MIN_ROUNDS = 2
TRACE_ROUNDS = 1
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)
# Seconds reference_loop takes at the reference speed: about its median on
# a 2-core Intel Xeon virtual machine at 2.0 GHz, so reported times read
# close to that machine's wall times.
REFERENCE_S = 0.0004
PERIOD_S = 0.05  # between speed samples: 1% of the time goes to sampling
# Samples before a call that set its speed with those during it: enough to
# average out one sample's noise, few enough to follow drift over 0.2 s.
WINDOW = 4
# Per-layer metrics of the traced run beyond the tracer's own.
TRACE_METRICS = (
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.traced_over_untraced", "ratio"),
    ("outcome.failed_share", "ratio"),
    ("outcome.wrong_values", "count"),
)


def reference_loop() -> Fraction:
    """A fixed piece of pure-Python work of the kinds partcalc does: exact
    big-integer and rational arithmetic, tuples, dicts and calls."""
    total, big, seen = Fraction(0), 3**100, {}
    for i in range(70):
        big = big * 3 + i
        seen[i % 16] = (i, big % 97)
        total += Fraction(big % 1000 + 1, i % 9 + 1)
    return total


class Clock:
    """Samples the machine's speed while entered, and times calls at the reference speed.

    Every PERIOD_S a SIGALRM handler times reference_loop; REFERENCE_S over
    that time is the machine's speed.  A call's time at the reference speed
    is its wall time, less the sampling, times the mean speed of the last
    WINDOW samples before the call and of every sample during it.
    """

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.spent = 0.0  # seconds the handler has taken

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - start
        self.speeds.append(REFERENCE_S / elapsed)
        self.spent += elapsed

    def __enter__(self) -> "Clock":
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def time(self, fn):
        """fn()'s result, its time at the reference speed, and its wall time."""
        first, spent, start = max(len(self.speeds) - WINDOW, 0), self.spent, time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start - (self.spent - spent)
        return result, wall * statistics.fmean(self.speeds[first:]), wall


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def tail_percentile(round_ops: int) -> float:
    """The highest percentile of TAIL_LADDER with ten samples beyond it in
    MIN_ROUNDS rounds; fixed per workload, so runs of any length compare."""
    for p in TAIL_LADDER:
        if MIN_ROUNDS * round_ops * (100 - p) / 100 >= 10:
            return p
    raise ValueError(f"{MIN_ROUNDS} rounds of {round_ops} operations leave no tail percentile")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def set_up(workload: str, seed: int, clock: Clock):
    """A fresh interpreter importing partcalc, then the seeded plan and its references."""
    import workloads

    def once():
        subprocess.run([sys.executable, "-c", "import partcalc, partcalc.cli"],
                       env=child_env(), check=True)
        return workloads.make_plan(workload, seed)

    plan, seconds, _ = clock.time(once)
    return plan, seconds


def run_rounds(plan, rounds: int, seconds: float, clock: Clock, tracer=None) -> list[tuple]:
    """Whole rounds: at least `rounds` of them, then until `seconds` have passed.

    Returns (seconds at the reference speed, wall seconds, outcome) for
    every operation.
    """
    import workloads

    runner = workloads.RUNNERS[plan.workload]
    extra = {"env": child_env()} if plan.workload == "cli-auto" else {}
    if tracer is not None:
        OUT.mkdir(parents=True, exist_ok=True)
        if plan.workload == "cli-auto":
            extra["spans"] = OUT / "child-spans.json"
            extra["tracer"] = tracer
    workloads.reset_caches()
    samples = []
    start = time.perf_counter()
    i = 0
    while i < rounds or time.perf_counter() - start < seconds:
        agreed = {}  # case -> values of its first route in this round
        for op in plan.round(i):
            check = partial(workloads.check_values, op, plan.expected.get(op["id"]), agreed)
            call = partial(runner, op, check, **extra)
            if tracer is not None:
                tracer.op = op["id"]
                call = partial(tracer.call, "bench.op", "bench", call)
            outcome, reference_s, wall = clock.time(call)
            samples.append((reference_s, wall, outcome))
        i += 1
    return samples


def ops_per_s(samples: list[tuple]) -> float:
    """Work done per second of operation time at the reference speed."""
    return sum(outcome.units for *_, outcome in samples) / sum(seconds for seconds, *_ in samples)


def outcome_summary(samples: list[tuple]) -> dict:
    outcomes = [outcome for *_, outcome in samples]
    status = Counter(outcome.status for outcome in outcomes)
    attempted = len(outcomes)
    return {
        "status": status,
        "attempted": attempted,
        "wrong_values": sum(outcome.wrong for outcome in outcomes),
        "known_wrong": sum(outcome.wrong for outcome in outcomes if outcome.status == "known"),
        "failed_share": (attempted - status["ok"]) / attempted,
        # Outcomes the program does not document: an error, or a wrong value
        # other than the listed known defect.  Expected refusals are documented.
        "unexpected": status["error"] + status["wrong"],
    }


def end_to_end(plan, samples: list[tuple], setup_s: float) -> tuple[dict, str]:
    latencies = [seconds * 1000 for seconds, *_ in samples]
    wall = [seconds * 1000 for _, seconds, _ in samples]
    p = tail_percentile(len(plan.rounds[0]))
    if plan.workload == "cli-auto":
        rss_mb = max(outcome.rss_kb for *_, outcome in samples) / 1024
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s(samples), "1/s"),
        "latency_p50_ms": (percentile(latencies, 50), "ms"),
        "latency_tail_ms": (percentile(latencies, p), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, (f"latency_tail_ms is p{p:g} of {len(latencies)} samples; "
                     f"setup_s is the median of {SETUPS} set-ups\n"
                     f"  wall times: p50 {percentile(wall, 50):.6g} ms, p{p:g} {percentile(wall, p):.6g} ms; "
                     f"the machine ran at {sum(latencies) / sum(wall):.3f} times the reference speed")


def traced(plan) -> tuple[dict, list[tuple]]:
    import tracing

    with Clock() as clock:
        untraced = run_rounds(plan, TRACE_ROUNDS, 0, clock)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            samples = run_rounds(plan, TRACE_ROUNDS, 0, clock, tracer)
        finally:
            tracer.uninstall()
    tracer.write(OUT / f"spans-{plan.workload}-seed{plan.seed}.jsonl")
    layers = tracing.summarize(tracer.spans)
    base, rate = ops_per_s(untraced), ops_per_s(samples)
    samples = untraced + samples
    summary = outcome_summary(samples)
    layers.update({
        "trace.ops_per_s_traced": rate,
        "trace.ops_per_s_untraced": base,
        "trace.traced_over_untraced": rate / base,
        "outcome.failed_share": summary["failed_share"],
        "outcome.wrong_values": summary["wrong_values"],
    })
    metrics = {name: (layers[name], unit) for name, unit in tracing.PER_LAYER + TRACE_METRICS}
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "partcalc" / "__init__.py").is_file():
        print(f"perfbench: no partcalc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and its children, so the reference loop and
    # the operations it scales run on the same CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    with Clock() as clock:
        plans, times = zip(*(set_up(args.workload, args.seed, clock) for _ in range(SETUPS)))
    plan, setup_s = plans[-1], statistics.median(times)

    print(f"workload {plan.workload}  seed {plan.seed}  plan {plan.digest}  "
          f"({sum(map(len, plan.rounds))} ops in {len(plan.rounds)} rounds)")
    if args.trace:
        metrics, samples = traced(plan)
        note = f"traced phase: {TRACE_ROUNDS} rounds; counts marked * are computed from the inputs"
    else:
        with Clock() as clock:
            samples = run_rounds(plan, MIN_ROUNDS, args.seconds, clock)
        metrics, note = end_to_end(plan, samples, setup_s)
    summary = outcome_summary(samples)

    import tracing

    for name, (value, unit) in metrics.items():
        mark = "*" if name in tracing.COMPUTED else " "
        print(f"  {name:<34}{mark} {value:>16.6g} {unit}")
    status = summary["status"]
    print(f"  {note}")
    print(f"  outcomes of {summary['attempted']} ops: ok {status['ok']}, wrong {status['wrong']}, "
          f"known defect {status['known']}, refused {status['refused']}, error {status['error']}")
    print(f"  failed_share {summary['failed_share']:.4f}  wrong_values {summary['wrong_values']} "
          f"(of which {summary['known_wrong']} from ppso x oracle-enum, ROADMAP item 3)")
    print(json.dumps({
        "correct": summary["unexpected"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["unexpected"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
