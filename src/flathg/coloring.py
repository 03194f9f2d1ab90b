"""Strong 3-colorings and the 2-robust extension test.

A coloring maps every vertex to one of the colors 0, 1, 2, and is strong
when each hyperedge sees pairwise distinct colors. Robustness asks more:
whichever two vertices you pin to whichever valid colors, a full strong
coloring must still exist. Every search here runs hypergraph.homomorphisms
into the simplex on the three colors, whose edges are all sets of distinct
colors.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

from .hypergraph import Hypergraph, degree_order, homomorphisms, pair_incidence

logger = logging.getLogger(__name__)

COLORS = (0, 1, 2)

_SIMPLEX = Hypergraph(
    COLORS,
    frozenset(frozenset(c) for k in range(4) for c in itertools.combinations(COLORS, k)),
)

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


def enumerate_strong_colorings(h: Hypergraph, cap: int | None = None) -> list[Coloring]:
    """All strong 3-colorings, ordered by vertex order then color order.

    An empty result means the hypergraph is not strong 3-colorable. With a
    cap, exceeding it raises instead of truncating silently.
    """
    limit = None if cap is None else cap + 1
    colorings = list(itertools.islice(homomorphisms(h, _SIMPLEX, h.vertices, {}), limit))
    if cap is not None and len(colorings) > cap:
        raise ValueError(f"more than {cap} strong colorings; raise the cap")
    return colorings


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
        if isinstance(color, bool) or color not in COLORS:
            raise ValueError(f"color {color!r} is not one of 0, 1, 2")
    pairs = pair_incidence(h.edges)
    for u, v in itertools.combinations(sorted(partial), 2):
        if partial[u] == partial[v] and frozenset((u, v)) in pairs:
            raise ValueError(
                f"invalid partial assignment: {{{u}, {v}}} is a subhyperedge "
                f"but both are colored {partial[u]}"
            )
    pins = {v: (color,) for v, color in partial.items()}
    return next(homomorphisms(h, _SIMPLEX, degree_order(h), pins), None) is not None


def is_2_robust(h: Hypergraph) -> RobustnessReport:
    """Try every vertex pair and every valid pinned pair of colors.

    The first pinning with no strong completion is reported; none means the
    hypergraph is 2-robustly strong 3-colorable. Non-uniform hypergraphs are
    accepted with a warning, since the notion is really about 3-uniform ones.
    """
    if any(len(e) != 3 for e in h.edges):
        logger.warning("2-robustness tested on a non-3-uniform hypergraph")
    pairs = pair_incidence(h.edges)
    order = degree_order(h)
    vertices = sorted(h.vertices)
    # Permuting the colors of a strong coloring gives another one. So a
    # coloring in which u and v are alike (or unlike) shows that every
    # pinning of u and v to equal (or distinct) colors extends. Bit i of
    # masks[w][c] is set when the i-th coloring found gives w the color c,
    # and `found` has a bit for each coloring found.
    masks = {w: [0, 0, 0] for w in vertices}
    found = 0
    for u, v in itertools.combinations(vertices, 2):
        adjacent = frozenset((u, v)) in pairs
        mu, mv = masks[u], masks[v]
        same = mu[0] & mv[0] | mu[1] & mv[1] | mu[2] & mv[2]
        alike = set()
        if same:
            alike.add(True)
        if same != found:
            alike.add(False)
        for cu, cv in itertools.product(COLORS, COLORS):
            if adjacent and cu == cv or (cu == cv) in alike:
                continue
            coloring = next(homomorphisms(h, _SIMPLEX, order, {u: (cu,), v: (cv,)}), None)
            if coloring is None:
                return RobustnessReport(
                    robust=False,
                    failure=ExtensionFailure(pair=(u, v), assignment=(cu, cv)),
                )
            bit = found + 1  # found's bits are the lowest ones
            for w, c in coloring.items():
                masks[w][c] |= bit
            found |= bit
            alike.add(coloring[u] == coloring[v])
    return RobustnessReport(robust=True, failure=None)
