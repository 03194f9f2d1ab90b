"""Semirings presented by a 3-hypergraph, built directly on normal forms.

Every element of the carrier is zero, a vertex generator, a class of linked
vertex pairs, or the absorbing-by-squares top element. Products follow the
subhyperedge structure: a pair of generators survives only inside an edge,
a full edge's product is the top, and anything longer in total generator
length collapses to zero. Rather than trusting that recipe, the builder
re-verifies associativity and cancellation on the finished table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import Hypergraph, Pair, linked_classes, validate
from .semiring import FiniteSemiring, _flat_completion


@dataclass(frozen=True)
class HgElement:
    """Normal form: kind is one of "zero", "gen", "pair", "top".

    A "gen" carries its vertex; a "pair" carries the canonical representative
    of its linked class.
    """

    kind: str
    vertex: str | None = None
    pair: tuple[str, str] | None = None

    @property
    def label(self) -> str:
        if self.kind == "zero":
            return "0"
        if self.kind == "gen":
            return f"a·{self.vertex}"
        if self.kind == "pair":
            return "PAIR{" + ",".join(self.pair) + "}"
        return "TOP"


ZERO = HgElement("zero")
TOP = HgElement("top")


@dataclass(frozen=True)
class HypergraphSemiring:
    """A hypergraph semiring's element list and exported tables."""

    elements: tuple[HgElement, ...]
    exported: FiniteSemiring
    degenerate_no_top_triple: bool


def _require_valid(h: Hypergraph) -> None:
    report = validate(h)
    if not report.valid:
        broken = ", ".join(name for name, _ in report.violations)
        raise ValueError(f"hypergraph is not admissible: {broken}")


class _NormalForms:
    def __init__(self, h: Hypergraph):
        self.h = h
        self.classes = linked_classes(h)
        self.rep_of: dict[Pair, tuple[str, str]] = {}
        for rep, members in self.classes.items():
            canonical = tuple(sorted(rep))
            for pair in members:
                self.rep_of[pair] = canonical
        self.vertex_set = set(h.vertices)
        self.edges = h.edges

    def gen_product(self, u: str, v: str) -> HgElement:
        pair = frozenset((u, v))
        if u == v:
            return ZERO
        if pair in self.edges:
            return TOP
        if pair in self.rep_of:
            return HgElement("pair", pair=self.rep_of[pair])
        return ZERO

    def pair_times_gen(self, rep: tuple[str, str], w: str) -> HgElement:
        for pair in self.classes[frozenset(rep)]:
            if w not in pair and pair | {w} in self.edges:
                return TOP
        return ZERO


def _product(nf: _NormalForms, x: HgElement, y: HgElement) -> HgElement:
    if x.kind == "zero" or y.kind == "zero":
        return ZERO
    if x.kind == "top" or y.kind == "top":
        return ZERO
    if x.kind == "gen" and y.kind == "gen":
        return nf.gen_product(x.vertex, y.vertex)
    if x.kind == "gen":
        return nf.pair_times_gen(y.pair, x.vertex)
    if y.kind == "gen":
        return nf.pair_times_gen(x.pair, y.vertex)
    return ZERO


def normal_form_product(h: Hypergraph, x: HgElement, y: HgElement) -> HgElement:
    """Multiply two normal forms of the semiring presented by h.

    Rejects elements that do not belong to h (a foreign vertex, or a pair
    that is not the canonical representative of one of h's linked classes).
    """
    nf = _NormalForms(h)
    for e in (x, y):
        if e.kind == "gen" and e.vertex not in nf.vertex_set:
            raise ValueError(f"element {e.label} does not belong to this hypergraph")
        if e.kind == "pair" and (
            frozenset(e.pair) not in nf.rep_of
            or nf.rep_of[frozenset(e.pair)] != tuple(e.pair)
        ):
            raise ValueError(f"element {e.label} does not belong to this hypergraph")
    return _product(nf, x, y)


def build_semiring(h: Hypergraph) -> HypergraphSemiring:
    """Flat completion of the hypergraph's multiplication table.

    Elements are ordered zero first, then generators in vertex order, then
    pair classes by representative, then top. The completion re-verifies
    associativity, absorption and 0-cancellation, so a wrong pair-class
    partition cannot silently produce a non-semiring. A hypergraph
    consisting only of 2-vertex edges is accepted, but then no product of
    three generators reaches the top; the result flags that degenerate shape.
    """
    _require_valid(h)
    nf = _NormalForms(h)
    elements: list[HgElement] = [ZERO]
    elements.extend(HgElement("gen", vertex=v) for v in h.vertices)
    elements.extend(HgElement("pair", pair=tuple(sorted(rep))) for rep in nf.classes)
    elements.append(TOP)
    n = len(elements)
    top = n - 1
    gen = {v: i for i, v in enumerate(h.vertices, 1)}
    # Each linked pair -> the index of its class.
    pair_class = {
        pair: i for i, members in enumerate(nf.classes.values(), len(gen) + 1) for pair in members
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
    labels = tuple(e.label for e in elements)
    exported = _flat_completion(labels, tuple(map(tuple, mul)), 0)
    degenerate = all(len(e) != 3 for e in h.edges)
    return HypergraphSemiring(
        elements=tuple(elements),
        exported=exported,
        degenerate_no_top_triple=degenerate,
    )
