"""Strong 3-colorings and the 2-robust extension test.

A coloring maps every vertex to one of the colors 0, 1, 2, and is strong
when each hyperedge sees pairwise distinct colors. Robustness asks more:
whichever two vertices you pin to whichever valid colors, a full strong
coloring must still exist. The search routines are plain backtracking with
forward checking; the instances here are far too small for anything else.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

from .hypergraph import Hypergraph

logger = logging.getLogger(__name__)

COLORS = (0, 1, 2)

Coloring = dict[str, int]


@dataclass(frozen=True)
class ExtensionFailure:
    """A pinned pair with no strong completion; the marker records that the
    verdict came from an exhausted search, not a heuristic."""

    pair: tuple[str, str]
    assignment: tuple[int, int]
    marker: str = "exhaustive-search-no-extension"


@dataclass(frozen=True)
class RobustnessReport:
    robust: bool
    failure: ExtensionFailure | None


def _pair_constraints(h: Hypergraph) -> dict[str, set[str]]:
    """For each vertex, the vertices it must differ from (edge mates)."""
    mates: dict[str, set[str]] = {v: set() for v in h.vertices}
    for e in h.edges:
        for u, v in itertools.combinations(e, 2):
            mates[u].add(v)
            mates[v].add(u)
    return mates


def _degree_order(h: Hypergraph) -> list[str]:
    """Vertices by descending degree, ties by label: most constrained first."""
    degree = dict.fromkeys(h.vertices, 0)
    for e in h.edges:
        for v in e:
            degree[v] += 1
    return sorted(h.vertices, key=lambda v: (-degree[v], v))


def _complete(
    assignment: dict[str, int],
    order: list[str],
    mates: dict[str, set[str]],
    collect: list[Coloring] | None,
    cap: int | None,
) -> bool:
    """Depth-first completion; returns True as soon as one coloring exists
    unless collect is given, in which case the full list is gathered."""

    def assign(i: int) -> bool:
        if i == len(order):
            if collect is None:
                return True
            collect.append(dict(assignment))
            if cap is not None and len(collect) > cap:
                raise ValueError(f"more than {cap} strong colorings; raise the cap")
            return False
        v = order[i]
        if v in assignment:
            return assign(i + 1)
        for color in COLORS:
            for m in mates[v]:
                if assignment.get(m) == color:
                    break
            else:
                assignment[v] = color
                if assign(i + 1):
                    return True
                del assignment[v]
        return False

    return assign(0)


def enumerate_strong_colorings(h: Hypergraph, cap: int | None = None) -> list[Coloring]:
    """All strong 3-colorings, ordered by vertex order then color order.

    An empty result means the hypergraph is not strong 3-colorable. With a
    cap, exceeding it raises instead of truncating silently.
    """
    mates = _pair_constraints(h)
    collect: list[Coloring] = []
    _complete({}, list(h.vertices), mates, collect, cap)
    return collect


def extends(h: Hypergraph, partial: dict[str, int]) -> bool:
    """Can the partial assignment grow to a full strong 3-coloring?

    The partial must be valid on its own domain: two vertices lying in a
    common edge may not share a color. An invalid partial raises, naming the
    violated vertex pair. Decision is by constrained backtracking, not by
    filtering the full enumeration.
    """
    vertices = set(h.vertices)
    for v, color in partial.items():
        if v not in vertices:
            raise ValueError(f"unknown vertex {v!r} in partial assignment")
        if color not in COLORS:
            raise ValueError(f"color {color!r} is not one of 0, 1, 2")
    mates = _pair_constraints(h)
    for u, v in itertools.combinations(sorted(partial), 2):
        if partial[u] == partial[v] and v in mates[u]:
            raise ValueError(
                f"invalid partial assignment: {{{u}, {v}}} is a subhyperedge "
                f"but both are colored {partial[u]}"
            )
    return _complete(dict(partial), _degree_order(h), mates, None, None)


def is_2_robust(h: Hypergraph) -> RobustnessReport:
    """Try every vertex pair and every valid pinned pair of colors.

    The first pinning with no strong completion is reported; none means the
    hypergraph is 2-robustly strong 3-colorable. Non-uniform hypergraphs are
    accepted with a warning, since the notion is really about 3-uniform ones.
    """
    if any(len(e) != 3 for e in h.edges):
        logger.warning("2-robustness tested on a non-3-uniform hypergraph")
    mates = _pair_constraints(h)
    order = _degree_order(h)
    for u, v in itertools.combinations(sorted(h.vertices), 2):
        adjacent = v in mates[u]
        for cu, cv in itertools.product(COLORS, COLORS):
            if adjacent and cu == cv:
                continue
            if not _complete({u: cu, v: cv}, order, mates, None, None):
                return RobustnessReport(
                    robust=False,
                    failure=ExtensionFailure(pair=(u, v), assignment=(cu, cv)),
                )
    return RobustnessReport(robust=True, failure=None)
