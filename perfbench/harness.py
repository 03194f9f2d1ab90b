"""Timed passes over a case list, with every answer checked and every time
scaled to a reference machine speed.

The shared host this benchmark was built on changes speed by up to 1.8x
within a minute, in CPU time and wall time alike, so raw medians of separate
runs differ by more than any useful regression bound. So while timed work
runs, a Clock measures a fixed stdlib-only calibration loop every PERIOD_S
seconds, from a SIGALRM handler. The handler runs between two bytecodes of
whatever is running, so the samples follow the machine's speed even through
a case that lasts seconds. A stretch of work (a set-up or a case) is timed
as its wall time less the samples taken inside it, multiplied by the loop's
reference time over the mean sample near the stretch. A reported second is
a second at the speed where the loop takes its reference time. The loops use
no flathg code, so a change to flathg moves the scaled times as it moves the
wall times.

Not all work slows alike when the host does: lookups scattered over a large
table slow less than tight interpreter loops. So there are two loops, and
each workload is scaled by the one whose work is most like its own.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import random
import signal
import statistics
import time
from typing import Callable, NamedTuple

PERIOD_S = 0.2


class Calibration(NamedTuple):
    loop: Callable[[], object]
    # The loop's wall seconds on the host the benchmark was built on.
    reference_s: float


_rng = random.Random(16)
_PERMS = [tuple(_rng.sample(range(16), 16)) for _ in range(16)]
_SMALL = tuple(tuple(_rng.randrange(32) for _ in range(32)) for _ in range(32))
_LARGE = tuple(tuple(_rng.randrange(100) for _ in range(100)) for _ in range(100))
_TRIPLES = [bytes(_rng.randrange(100) for _ in range(60_000)) for _ in range(3)]


def _interpreter_loop():
    """Build tuples componentwise and intern them in a dict (as the subpower
    closure does), scan a 32x32 table for associativity, and chase single
    lookups (as the searches do)."""
    seen: dict[tuple[int, ...], int] = {}
    x = tuple(range(8))
    for k in range(4_000):
        perm = _PERMS[k % 16]
        x = tuple(perm[a] for a in x)
        seen.setdefault(x, k)
    t, r = _SMALL, range(32)
    sum(1 for a, b, c in itertools.product(r, r, r) if t[t[a][b]][c] != t[a][t[b][c]])
    y = 0
    for k in range(50_000):
        y = _PERMS[y][k & 15]


def _table_loop():
    """Test associativity on fixed random triples of a 100x100 table, as the
    semiring checks do on tables of up to 104 elements."""
    t = _LARGE
    return sum(1 for a, b, c in zip(*_TRIPLES) if t[t[a][b]][c] != t[a][t[b][c]])


INTERPRETER = Calibration(_interpreter_loop, 0.012)
TABLE_SCAN = Calibration(_table_loop, 0.010)


class Clock:
    """While entered, runs the calibration loop every PERIOD_S seconds of
    wall time and keeps each sample's start and duration.

    Stretches are given as (start, end) perf_counter readings. Ask for
    their times after the work they bracket is done, so that the samples
    after each stretch exist.
    """

    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self._starts: list[float] = []
        self._durations: list[float] = []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, *_):
        start = time.perf_counter()
        self.calibration.loop()
        self._starts.append(start)
        self._durations.append(time.perf_counter() - start)

    def _between(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self._starts, start)
        return self._durations[lo:bisect.bisect_left(self._starts, end, lo)]

    def wall(self, start: float, end: float) -> float:
        """Wall seconds of the stretch, less the samples taken inside it."""
        return end - start - sum(self._between(start, end))

    def scale(self, start: float, end: float) -> float:
        """The loop's reference time over its mean time in the samples
        taken during the stretch or within PERIOD_S of it."""
        near = self._between(start - PERIOD_S, end + PERIOD_S) or self._durations
        return self.calibration.reference_s / statistics.fmean(near)

    def scaled(self, start: float, end: float) -> float:
        return self.wall(start, end) * self.scale(start, end)


class Pass(NamedTuple):
    # (start, end) of each case.
    cases: list[tuple[float, float]]
    # Per-layer values of a traced pass, else None.
    layers: dict[str, float] | None


class Harness:
    """Runs passes over a case list, timing each case and checking each answer."""

    def __init__(self, cases):
        self.cases = cases
        # References are computed once, here, outside every timed region.
        self.expected = [case.reference() for case in cases]
        self.attempted = 0
        self.failures: list[str] = []

    def run_passes(self, seconds: float, tracer=None) -> list[Pass]:
        """One warm-up pass, then passes until `seconds` have gone by since
        the start, at least one.

        The warm-up pass is checked but not returned: the first pass of a
        process pays for growing the heap, which later passes reuse. With a
        tracer, passes alternate untraced and traced, starting untraced and
        ending traced, so both kinds see the same machine speed. Checks, and
        installing the tracer, happen outside the case times.
        """
        deadline = time.perf_counter() + seconds
        self._run_pass()
        passes = []
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            passes.append(self._run_pass(tracer if traced else None))
            if time.perf_counter() >= deadline and (tracer is None or traced):
                return passes

    def _run_pass(self, tracer=None) -> Pass:
        gc.collect()
        if tracer:
            tracer.install()
            tracer.begin_pass()
        cases = [self._run_case(case, expected) for case, expected in zip(self.cases, self.expected)]
        layers = None
        if tracer:
            layers = tracer.end_pass()
            tracer.uninstall()
        return Pass(cases, layers)

    def _run_case(self, case, expected) -> tuple[float, float]:
        """Run and check one case; returns its (start, end).

        A case that raises, or whose answer the check cannot read, is a
        failed case; the run goes on.
        """
        start = time.perf_counter()
        try:
            result = case.run()
        except Exception as exc:
            end = time.perf_counter()
            problem = f"raised {type(exc).__name__}: {exc}"
        else:
            end = time.perf_counter()
            try:
                problem = case.check(result, expected)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{case.name}: {problem}")
        return start, end
