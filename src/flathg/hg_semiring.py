"""Semirings presented by a 3-hypergraph, built as one operation table.

Every element of the carrier is zero, a vertex generator, a class of linked
vertex pairs, or the absorbing-by-squares top element. Products follow the
subhyperedge structure: a pair of generators survives only inside an edge,
a full edge's product is the top, and anything longer in total generator
length collapses to zero. Rather than trusting that recipe, the builder
re-verifies associativity and cancellation on the finished table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import Hypergraph, linked_classes, validate
from .semiring import FiniteSemiring, _flat_completion


@dataclass(frozen=True)
class HypergraphSemiring:
    """A hypergraph semiring's exported tables and its degenerate-shape flag."""

    exported: FiniteSemiring
    degenerate_no_top_triple: bool


def build_semiring(h: Hypergraph) -> HypergraphSemiring:
    """Flat completion of the hypergraph's multiplication table.

    Elements are ordered zero first, then generators in vertex order, then
    pair classes by representative, then top. The completion re-verifies
    associativity, absorption and 0-cancellation, so a wrong pair-class
    partition cannot silently produce a non-semiring. A hypergraph
    consisting only of 2-vertex edges is accepted, but then no product of
    three generators reaches the top; the result flags that degenerate shape.
    """
    report = validate(h)
    if not report.valid:
        broken = ", ".join(name for name, _ in report.violations)
        raise ValueError(f"hypergraph is not admissible: {broken}")
    classes = linked_classes(h)
    labels = (
        "0",
        *(f"a·{v}" for v in h.vertices),
        *("PAIR{" + ",".join(sorted(rep)) + "}" for rep in classes),
        "TOP",
    )
    n = len(labels)
    top = n - 1
    gen = {v: i for i, v in enumerate(h.vertices, 1)}
    # Each linked pair -> the index of its class.
    pair_class = {
        pair: i for i, members in enumerate(classes.values(), len(gen) + 1) for pair in members
    }
    mul = [[0] * n for _ in range(n)]
    # Only products inside one edge are non-zero: two of its generators, or
    # the class of two of its vertices with the third generator, either way.
    for edge in h.edges:
        for u in edge:
            gen_u = gen[u]
            for v in edge - {u}:
                uv = frozenset((u, v))
                mul[gen_u][gen[v]] = top if uv in h.edges else pair_class.get(uv, 0)
            if len(edge) == 3:
                pair = pair_class[edge - {u}]
                mul[pair][gen_u] = mul[gen_u][pair] = top
    exported = _flat_completion(labels, tuple(map(tuple, mul)), 0)
    degenerate = all(len(e) != 3 for e in h.edges)
    return HypergraphSemiring(exported=exported, degenerate_no_top_triple=degenerate)
