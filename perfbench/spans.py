"""Spans and counters around calls into flathg's public functions.

The tracer wraps the program from outside, so `src/flathg` stays as it is.
flathg's modules import each other's public functions by name (`suite` holds
`check_identity_flat`, `constructions` holds `build_semiring`), so each
wrapper is rebound in every loaded flathg module that holds the original;
otherwise those calls would bypass the span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# The layers are flathg's modules; a span is recorded around each call into
# one of these public functions.
LAYERS = {
    "hypergraph": ("validate", "girth", "is_linear"),
    "hg_semiring": ("build_semiring",),
    "semiring": (
        "flat_completion",
        "verify_axioms",
        "is_flat",
        "is_zero_cancellative",
        "subdirect_irreducibility_certificate",
    ),
    "words": ("build_sc",),
    "terms": ("check_identity_bruteforce", "check_identity_flat", "eval_term", "parse_identity"),
    "coloring": ("is_2_robust", "extends", "enumerate_strong_colorings"),
    "constructions": (
        "generated_subsemiring",
        "quotient_by_ideal",
        "find_semiring_isomorphism",
        "find_subword_embedding",
        "verify_witness",
    ),
    "suite": ("run_suite",),
    "cli": ("main",),
}


def _closure_counts(args, result):
    k = len(result.elements)
    # The worklist pairs each element with every earlier one and itself and
    # applies add and mul both ways: 4 * k(k+1)/2 products.
    return {"elements": k, "products": 2 * k * (k + 1), "new": k - len(set(result.generators))}


def _quotient_counts(args, result):
    a, j, n = len(result.carrier.elements), len(result.ideal), result.quotient.size
    # Congruence check: two operations, both sides, every element against
    # every ideal member; then the two n-by-n quotient tables.
    return {"ops": 4 * a * j + 2 * n * n}


# Counts read from each call's arguments and return value.
COUNTERS = {
    "hg_semiring.build_semiring": lambda args, r: {"elements": r.exported.size},
    "semiring.flat_completion": lambda args, r: {"cells": r.size**3},
    "semiring.verify_axioms": lambda args, r: {"cells": args[0].size ** 3},
    "terms.check_identity_bruteforce": lambda args, r: {"explored": r.explored},
    "terms.check_identity_flat": lambda args, r: {"explored": r.explored},
    "coloring.enumerate_strong_colorings": lambda args, r: {"colorings": len(r)},
    "constructions.generated_subsemiring": _closure_counts,
    "constructions.quotient_by_ideal": _quotient_counts,
}

# Reported counts beyond calls and self_s: (stat, unit, better). A unit
# ending in "-computed" marks a count derived by formula from sizes, not
# counted as the work happened.
EXTRA = {
    "hg_semiring.build_semiring": (("elements", "count", "lower"),),
    "semiring.flat_completion": (("cells", "count-computed", "lower"),),
    "semiring.verify_axioms": (("cells", "count-computed", "lower"),),
    "terms.check_identity_bruteforce": (("explored", "count", "lower"),),
    "terms.check_identity_flat": (("explored", "count", "lower"),),
    "coloring.enumerate_strong_colorings": (("colorings", "count", "lower"),),
    "constructions.generated_subsemiring": (
        ("elements", "count", "lower"),
        ("products", "count-computed", "lower"),
        ("new_per_product", "ratio-computed", "higher"),
    ),
    "constructions.quotient_by_ideal": (("ops", "count-computed", "lower"),),
}

OVERHEAD = "trace.overhead"


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for module, functions in LAYERS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            specs.append((f"{name}.calls", "count", "lower"))
            specs.append((f"{name}.self_s", "s", "lower"))
            specs.extend((f"{name}.{stat}", unit, better) for stat, unit, better in EXTRA.get(name, ()))
    specs.append((OVERHEAD, "ratio", "lower"))
    return specs


class Tracer:
    """Holds every span in memory as [name, start, end, parent index]."""

    def __init__(self, wall=lambda start, end: end - start):
        # wall(start, end) -> the seconds a span counts; the harness's clock
        # takes out the calibration samples taken inside the span.
        self._wall = wall
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._counts: Counter = Counter()
        self._mark = (0, Counter())
        # (module, attribute, original, wrapper) for every rebinding.
        self._bindings: list[tuple] = []

    def install(self) -> None:
        """Wrap every function in LAYERS wherever a flathg module holds it."""
        if not self._bindings:
            self._bind()
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _bind(self) -> None:
        modules = {m: importlib.import_module(f"flathg.{m}") for m in LAYERS}
        loaded = [
            mod for name, mod in list(sys.modules.items())
            if name == "flathg" or name.startswith("flathg.")
        ]
        for module, functions in LAYERS.items():
            for fn in functions:
                original = getattr(modules[module], fn)
                wrapper = self._wrap(f"{module}.{fn}", original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bindings.append((mod, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans, stack, counts, clock = self.spans, self._stack, self._counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                for stat, value in count(args, result).items():
                    counts[f"{name}.{stat}"] += value
            return result

        return traced

    def begin_pass(self) -> None:
        self._mark = (len(self.spans), Counter(self._counts))

    def end_pass(self) -> dict[str, float]:
        """Calls, self time and counts of the spans since begin_pass.

        Self time is a span's time minus the times of its direct children;
        with one thread, children nest inside their parent.
        """
        lo, before = self._mark
        spans = self.spans[lo:]
        walls = [self._wall(start, end) for _, start, end, _ in spans]
        covered = [0.0] * len(spans)
        for k, (_, _, _, parent) in enumerate(spans):
            if parent is not None:
                covered[parent - lo] += walls[k]
        values: dict[str, float] = {}
        for module, functions in LAYERS.items():
            for fn in functions:
                values[f"{module}.{fn}.calls"] = 0
                values[f"{module}.{fn}.self_s"] = 0.0
        for k, (name, _, _, _) in enumerate(spans):
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += walls[k] - covered[k]
        delta = self._counts - before
        for name, extras in EXTRA.items():
            for stat, _, _ in extras:
                values[f"{name}.{stat}"] = delta[f"{name}.{stat}"]
        closure = "constructions.generated_subsemiring"
        products = values[f"{closure}.products"]
        values[f"{closure}.new_per_product"] = (
            delta[f"{closure}.new"] / products if products else 0.0
        )
        return values

    def write(self, path) -> None:
        """One JSON object per span: id, name, start, end (seconds on the
        perf_counter clock) and parent id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")
