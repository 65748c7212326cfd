"""Span tracer for partcalc, installed from the benchmark's own files.

`Tracer.install` wraps the public functions of each partcalc layer, plus the
two methods that do a layer's inner work (`WeightFunction.expand` and
`StirlingKernel.value`).  A function is replaced in every partcalc module
that binds it, so the wrapper runs however a caller looks the name up:
`stirling.stirling_first_unsigned` as well as
`combinat.stirling_first_unsigned`.  Hot scalar helpers such as `binomial`
and `bounded_composition_count` are not wrapped.  A name of SPECS that the
package no longer has stops the install with that name, so a renamed or
removed function cannot leave its metrics reading 0 unnoticed.

Each call appends one span [name, layer, start_ns, end_ns, parent, op,
counts, error] to an in-memory list.  Work counts are computed from the
call's inputs and result after the traced phase, never read from the
program, so every count is labelled "computed".
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter

from reference import Reference

# CLOCK_MONOTONIC is one clock for the whole machine on Linux, so span times
# written by a child process line up with the parent's spawn time.
now_ns = time.monotonic_ns

LAYERS = ("cli", "dispatch", "formulas", "series", "sequences", "stirling", "combinat", "diagrams", "verify")
REFUSALS = ("CostGuardExceeded",)  # the only refusal a non-strict request can meet
ROUTES = ("theorem", "oracle-dp", "oracle-series", "oracle-enum", "stirling")
SUITES = ("examples", "cross-method", "oracle-consistency", "stirling")
FORMULAS = ("pp_formula", "ppr_formula", "pps_formula", "ppso_formula", "multipartition_formula")
VECTOR_SUMS = frozenset(f"formulas.{name}" for name in FORMULAS + ("ppr_via_multipartition_formula",))


def _vectors(ref, args, result):
    return {"vectors": ref.value("p", args["n"])}


def _dp_cells(ref, args, result):
    n = args["n"]
    return {"cells": sum(n - part + 1 for part in args["a"].parts if part <= n)}


def _product_steps(ref, args, result):
    # Stride steps building each factor (1 - z^k)^(-w), plus the inner-loop
    # bound (N+1)(N+2)/2 of multiplying it in; zero coefficients the product
    # skips are not subtracted.
    weights, top = args["weights"], args["degree_bound"]
    steps = 0
    for k, w in enumerate(weights.weights[:top], start=1):
        if w:
            steps += w * (top - k + 1) + (top + 1) * (top + 2) // 2
    return {"steps": steps}


def _expanded(ref, args, result):
    return {"parts": sum(args["self"].weights)}


def _box(ref, args, result):
    return {"points": math.prod(b + 1 for b in args["box"].bounds), "terms": len(result)}


def _diagrams(ref, args, result):
    # count_diagrams builds every plane partition of n, then filters.
    return {"visited": ref.value("pp", args["n"]), "kept": result}


def _suite(ref, args, result):
    return {"label": args["name"], "checks": len(result), "cases": sum(c.cases for c in result)}


def _route(ref, args, result):
    return {"label": result[1], "requested": args["req"].method}


# (module, attribute, layer, counter); the span is named module.attribute.
SPECS = (
    ("dispatch", "compute", "dispatch", _route),
    *(("formulas", name, "formulas", _vectors) for name in FORMULAS),
    ("formulas", "ppr_via_multipartition_formula", "formulas", None),
    ("formulas", "multiplicity_vectors", "formulas", None),
    ("series", "oracle_value", "series", None),
    ("series", "restricted_partition_dp", "series", _dp_cells),
    ("series", "euler_product", "series", _product_steps),
    ("sequences", "quantity_weights", "sequences", None),
    *(("sequences", name, "sequences", None)
      for name in ("seq_pp", "seq_pp_r", "seq_strict", "seq_symmetric", "seq_multipartition")),
    ("sequences", "WeightFunction.expand", "sequences", _expanded),
    *(("stirling", name, "stirling", None)
      for name in ("restricted_count_stirling", "pp_stirling", "ppr_stirling", "pps_stirling",
                   "ppso_stirling", "multipartition_stirling", "regrouped_sum",
                   "regrouped_partial_sums")),
    ("stirling", "box_weight_histogram", "stirling", _box),
    ("stirling", "StirlingKernel.value", "stirling", None),
    ("combinat", "stirling_first_unsigned", "combinat", None),
    ("diagrams", "count_diagrams", "diagrams", _diagrams),
    ("verify", "run_suite", "verify", _suite),
)

# Every metric `summarize` returns, with its unit, in output order.
PER_LAYER = (
    ("cli.startup_ms", "ms"),
    ("cli.self_ms", "ms"),
    *((f"dispatch.route.{route}", "count") for route in ROUTES),
    ("dispatch.fallbacks", "count"),
    ("dispatch.refused", "count"),
    ("dispatch.errors", "count"),
    ("formulas.vector_sum_s", "s"),
    ("formulas.vector_gen_s", "s"),
    ("formulas.vectors_walked", "count"),
    ("formulas.vector_cache_hit_ratio", "ratio"),
    ("series.dp_s", "s"),
    ("series.dp_cells", "count"),
    ("series.product_s", "s"),
    ("series.product_steps", "count"),
    ("sequences.expand_s", "s"),
    ("sequences.parts_expanded", "count"),
    ("stirling.histogram_s", "s"),
    ("stirling.kernel_s", "s"),
    ("stirling.kernel_calls", "count"),
    ("stirling.box_points", "count"),
    ("stirling.hist_terms", "count"),
    ("stirling.hist_terms_per_point", "ratio"),
    ("stirling.guard_refusals", "count"),
    ("combinat.stirling_row_s", "s"),
    ("diagrams.enum_s", "s"),
    ("diagrams.visited", "count"),
    ("diagrams.kept_ratio", "ratio"),
    *((f"verify.{suite}_s", "s") for suite in SUITES),
    ("verify.checks", "count"),
    ("verify.cases", "count"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
)

COMPUTED = frozenset(
    ("formulas.vectors_walked", "series.dp_cells", "series.product_steps",
     "sequences.parts_expanded", "stirling.box_points", "diagrams.visited")
)


class Tracer:
    """Wraps partcalc while installed and keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.ref = Reference()
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {name: importlib.import_module(f"partcalc.{name}") for name in LAYERS}
        loaded = [mod for key, mod in sys.modules.items()
                  if key == "partcalc" or key.startswith("partcalc.")]
        for module, attr, layer, counter in SPECS:
            owner, _, method = attr.rpartition(".")
            span = f"{module}.{attr}"
            try:
                if owner:
                    cls = getattr(modules[module], owner)
                    orig = vars(cls)[method]
                else:
                    orig = getattr(modules[module], attr)
            except (AttributeError, KeyError):
                self.uninstall()
                raise LookupError(f"perfbench tracing: partcalc has no {span}; update SPECS") from None
            if owner:
                self._undo.append((cls, method, orig))
                setattr(cls, method, self.wrap(orig, span, layer, counter))
                continue
            wrapper = self.wrap(orig, span, layer, counter)
            for target in loaded:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        self._undo.append((target, key, orig))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    def wrap(self, orig, name: str, layer: str, counter=None):
        spans, stack = self.spans, self.stack
        signature = inspect.signature(orig) if counter is not None else None
        cache_info = getattr(orig, "cache_info", None)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            record = [name, layer, now_ns(), 0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(record)
            misses = cache_info().misses if cache_info is not None else 0
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                record[7] = type(exc).__name__
                raise
            finally:
                record[3] = now_ns()
                stack.pop()
            if cache_info is not None:
                # A call that adds no miss to the lru_cache statistics was a hit.
                record[6] = {"misses": cache_info().misses - misses}
            if counter is not None:
                # Resolved later by `resolve`, so counting costs no span time.
                record[6] = (counter, signature.bind(*args, **kwargs).arguments, result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(orig, attr):
                setattr(wrapper, attr, getattr(orig, attr))
        return wrapper

    def call(self, name: str, layer: str, fn, *args):
        """Run fn(*args) inside a span of its own."""
        return self.wrap(fn, name, layer)(*args)

    def resolve(self) -> None:
        for record in self.spans:
            if isinstance(record[6], tuple):
                counter, args, result = record[6]
                record[6] = counter(self.ref, args, result)

    def dump(self) -> dict:
        self.resolve()
        return {"spans": self.spans}

    def adopt(self, child: dict) -> None:
        """Append a child process's spans under the open span."""
        parent = self.stack[-1] if self.stack else -1
        offset = len(self.spans)
        for name, layer, start, end, up, _, counts, error in child["spans"]:
            self.spans.append([name, layer, start, end, parent if up < 0 else up + offset,
                               self.op, counts, error])

    def write(self, path) -> None:
        self.resolve()
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of PER_LAYER from resolved spans."""
    children = [0] * len(spans)
    for record in spans:
        if record[4] >= 0:
            children[record[4]] += record[3] - record[2]
    total, own, calls = Counter(), Counter(), Counter()
    counts, labels = Counter(), Counter()
    errors = Counter()
    startup, cli_self = [], []
    vector_sum = 0.0
    for i, (name, layer, start, end, parent, _, tally, error) in enumerate(spans):
        duration = (end - start) / 1e9
        mine = duration - children[i] / 1e9
        total[name] += duration
        own[layer] += mine
        calls[name] += 1
        if name in VECTOR_SUMS:
            vector_sum += mine
        if name == "cli.main":
            cli_self.append(mine)
            if parent >= 0:
                startup.append((start - spans[parent][2]) / 1e9)
        if error:
            errors[name, error] += 1
        for key, value in (tally or {}).items():
            if key == "label":
                labels[name, value] += 1
                if name == "verify.run_suite":
                    total[f"verify.{value}"] += duration
            elif key == "requested":
                if value in ("theorem", "stirling") and tally["label"] != value:
                    counts["dispatch.fallbacks"] += 1
            else:
                counts[name, key] += value

    def mean_ms(values):
        return 1000 * sum(values) / len(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    refused = sum(v for (name, err), v in errors.items() if name == "dispatch.compute" and err in REFUSALS)
    failed = sum(v for (name, _), v in errors.items() if name == "dispatch.compute")
    points = counts["stirling.box_weight_histogram", "points"]
    vector_calls = calls["formulas.multiplicity_vectors"]
    terms = counts["stirling.box_weight_histogram", "terms"]
    visited = counts["diagrams.count_diagrams", "visited"]
    return {
        "cli.startup_ms": mean_ms(startup),
        "cli.self_ms": mean_ms(cli_self),
        **{f"dispatch.route.{route}": labels["dispatch.compute", route] for route in ROUTES},
        "dispatch.fallbacks": counts["dispatch.fallbacks"],
        "dispatch.refused": refused,
        "dispatch.errors": failed - refused,
        "formulas.vector_sum_s": vector_sum,
        "formulas.vector_gen_s": total["formulas.multiplicity_vectors"],
        "formulas.vectors_walked": sum(counts[f"formulas.{name}", "vectors"] for name in FORMULAS),
        "formulas.vector_cache_hit_ratio": ratio(
            vector_calls - counts["formulas.multiplicity_vectors", "misses"], vector_calls),
        "series.dp_s": total["series.restricted_partition_dp"],
        "series.dp_cells": counts["series.restricted_partition_dp", "cells"],
        "series.product_s": total["series.euler_product"],
        "series.product_steps": counts["series.euler_product", "steps"],
        "sequences.expand_s": own["sequences"],
        "sequences.parts_expanded": counts["sequences.WeightFunction.expand", "parts"],
        "stirling.histogram_s": total["stirling.box_weight_histogram"],
        "stirling.kernel_s": total["stirling.StirlingKernel.value"],
        "stirling.kernel_calls": calls["stirling.StirlingKernel.value"],
        "stirling.box_points": points,
        "stirling.hist_terms": terms,
        "stirling.hist_terms_per_point": ratio(terms, points),
        "stirling.guard_refusals": errors["stirling.regrouped_partial_sums", "CostGuardExceeded"],
        "combinat.stirling_row_s": total["combinat.stirling_first_unsigned"],
        "diagrams.enum_s": total["diagrams.count_diagrams"],
        "diagrams.visited": visited,
        "diagrams.kept_ratio": ratio(counts["diagrams.count_diagrams", "kept"], visited),
        **{f"verify.{suite}_s": total[f"verify.{suite}"] for suite in SUITES},
        "verify.checks": counts["verify.run_suite", "checks"],
        "verify.cases": counts["verify.run_suite", "cases"],
        **{f"{layer}.self_s": own[layer] for layer in LAYERS},
    }
