"""Finite 3-hypergraphs: validation, girth, pair classes, leaf edges, families, homomorphisms.

Vertices are opaque strings. An admissible hypergraph is finite and linear,
has no loops or isolated vertices, and keeps every 2-vertex edge disjoint
from all other edges. All values are immutable and all operations are pure,
so everything here is safe to share across threads.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import operator
from dataclasses import dataclass

Edge = frozenset[str]
Pair = frozenset[str]

INFINITE: float = math.inf

FAMILY_KINDS = ("n_cycle", "beam", "fan", "nested")


class HypergraphParseError(ValueError):
    """Structurally malformed input, as opposed to an inadmissible hypergraph."""


@dataclass(frozen=True)
class Hypergraph:
    """A finite hypergraph with ordered vertex labels and 2- or 3-vertex edges."""

    vertices: tuple[str, ...]
    edges: frozenset[Edge]

    def edge_list(self) -> list[tuple[str, ...]]:
        """Edges as sorted tuples, in a single deterministic order."""
        return sorted(map(_key, self.edges))


@dataclass(frozen=True)
class ValidationReport:
    """Admissibility verdict plus one entry per violated rule."""

    valid: bool
    violations: tuple[tuple[str, tuple], ...]


def build_hypergraph(vertices, edges) -> Hypergraph:
    """Assemble a Hypergraph from raw vertex and edge collections.

    Raises HypergraphParseError for structural defects (non-string labels,
    duplicate vertex ids, an edge naming an unknown vertex or repeating one).
    Admissibility is not checked here; use validate for that.
    """
    vertex_list = list(vertices)
    for v in vertex_list:
        if not isinstance(v, str):
            raise HypergraphParseError(f"vertex id must be a string, got {v!r}")
    seen = set()
    for v in vertex_list:
        if v in seen:
            raise HypergraphParseError(f"duplicate vertex id {v!r}")
        seen.add(v)
    edge_set = set()
    for raw in edges:
        members = list(raw)
        for v in members:
            if not isinstance(v, str):
                raise HypergraphParseError(f"edge member must be a string, got {v!r}")
            if v not in seen:
                raise HypergraphParseError(f"edge {members!r} names unknown vertex {v!r}")
        if len(set(members)) != len(members):
            raise HypergraphParseError(f"edge {members!r} repeats a vertex")
        edge_set.add(frozenset(members))
    return Hypergraph(tuple(vertex_list), frozenset(edge_set))


def _key(e) -> tuple[str, ...]:
    """An edge or pair as its sorted vertices: the order of every report."""
    return tuple(sorted(e))


def _incident(h: Hypergraph) -> dict[str, list[Edge]]:
    """Each vertex's edges, shortest first."""
    incident: dict[str, list[Edge]] = {v: [] for v in h.vertices}
    for e in sorted(h.edges, key=len):
        for v in e:
            incident.setdefault(v, []).append(e)
    return incident


def validate(h: Hypergraph) -> ValidationReport:
    """Check every admissibility rule and report all violations at once.

    Every rule is read off one count: of the vertex labels (repeated
    vertices), and of the edges at each vertex (isolated, unlisted and
    adjacent vertices) and at each vertex pair (two edges holding one pair
    are not linear).
    """
    edges = h.edge_list()
    incident = _incident(h)
    pair_edges = pair_incidence(edges).values()
    offenders = {
        "edge-cardinality": [e for e in edges if len(e) not in (2, 3)],
        "isolated-vertex": [v for v in h.vertices if not incident[v]],
        "unknown-vertex": sorted(incident.keys() - set(h.vertices)),
        "duplicate-vertex": sorted(v for v, k in collections.Counter(h.vertices).items() if k > 1),
        "linear": sorted({ef for held in pair_edges for ef in itertools.combinations(held, 2)}),
        "degree-2-adjacency": [
            e for e in edges if len(e) == 2 and any(len(incident[v]) > 1 for v in e)
        ],
    }
    violations = [("empty", ())] if not h.vertices or not h.edges else []
    violations += [(rule, tuple(found)) for rule, found in offenders.items() if found]
    return ValidationReport(valid=not violations, violations=tuple(violations))


def _pairs(e):
    """The vertex pairs of an edge."""
    return map(frozenset, itertools.combinations(e, 2))


def pair_incidence(edges) -> dict[Pair, list]:
    """Each vertex pair in some edge, with the edges that hold it in the
    order given: the pairs that must differ in any strong coloring."""
    incidence: dict[Pair, list] = {}
    for e in edges:
        for p in _pairs(e):
            incidence.setdefault(p, []).append(e)
    return incidence


def is_linear(h: Hypergraph) -> bool:
    """True when no vertex pair lies in two edges, so that every two
    distinct edges share at most one vertex."""
    seen: set[Pair] = set()
    for e in h.edges:
        for p in _pairs(e):
            if p in seen:
                return False
            seen.add(p)
    return True


def girth(h: Hypergraph) -> int | float:
    """Length of the shortest alternating cycle, or INFINITE when acyclic.

    A cycle of length n >= 2 alternates n distinct vertices and n distinct
    edges, consecutive vertices sharing the edge between them. Works on any
    loop-free hypergraph, admissible or not, so a pair of edges sharing two
    vertices is reported as a 2-cycle. Found as half the vertex-edge incidence
    graph's girth, by breadth-first search from each vertex. Until a cycle
    is found, a search covers its whole component; one that finds no cycle
    has covered a tree, whose vertices need no search of their own.
    """
    incident = _incident(h)
    neighbours: dict = dict(incident)  # a vertex's edges, and an edge's vertices
    for e in h.edges:
        neighbours[e] = e
    best = INFINITE
    in_trees: set[str] = set()
    for start in incident:
        if start in in_trees:
            continue
        dist = {start: 0}
        parent = {start: None}
        queue = [start]
        for x in queue:
            if dist[x] >= best:
                break
            for y in neighbours[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif y != parent[x]:
                    best = min(best, (dist[x] + dist[y] + 1) // 2)
        if best == INFINITE:  # the search covered its component and found no cycle
            in_trees.update(dist)
    return best


def linked_classes(h: Hypergraph) -> dict[Pair, frozenset[Pair]]:
    """Partition the 2-subsets of 3-vertex edges by the completion relation.

    Each 3-edge {u, v, w} completes the pair {u, v} with w, and two pairs
    are linked when one vertex completes both. In a linear hypergraph each
    pair lies in one edge, so it has one completer, and the classes are the
    pairs that each vertex completes, keyed by their least member in sorted
    order. A pair with two completers means the input is not linear, and is
    refused with a ValueError that names it.
    """
    completer: dict[Pair, str] = {}
    completes: dict[str, list[Pair]] = {}
    for e in sorted(h.edges, key=_key):
        if len(e) == 3:
            for w in sorted(e):
                p = e - {w}
                if completer.setdefault(p, w) != w:
                    u, v = _key(p)
                    raise ValueError(f"not linear: the pair {{{u}, {v}}} lies in two edges")
                completes.setdefault(w, []).append(p)
    keyed = {min(ps, key=_key): frozenset(ps) for ps in completes.values()}
    return dict(sorted(keyed.items(), key=lambda item: _key(item[0])))


def sub_hypergraph(h: Hypergraph, edges) -> Hypergraph:
    """The partial subhypergraph of h on the given edges: those edges and
    the vertices they cover, in h's vertex order."""
    edges = frozenset(edges)
    covered = set().union(*edges)
    return Hypergraph(tuple(v for v in h.vertices if v in covered), edges)


def leaf_edges(edges: frozenset[Edge]) -> list[tuple[Edge, frozenset[str]]]:
    """Each leaf edge with the vertices it shares with the other edges.

    A leaf meets the union of the other edges in at most one vertex: it has
    at most one vertex in two or more edges. Pairs come sorted by the
    edge's sorted vertices.
    """
    degree = collections.Counter(itertools.chain.from_iterable(edges))
    shares = ((e, frozenset(v for v in e if degree[v] > 1)) for e in sorted(edges, key=_key))
    return [(e, shared) for e, shared in shares if len(shared) <= 1]


def _beam_edges(index: int) -> list[tuple[str, ...]]:
    edges = [("u1", "u2", "u3"), ("u3", "u4", "u5"), ("u5", "u6", "u1")]
    peaks = {0: "u1", 1: "u3"}
    for m in range(2, index + 1):
        peaks[m] = f"u{3 * m + 2}"
    for j in range(2, index + 1):
        if j % 2 == 0:
            first, second = peaks[j - 2], peaks[j - 1]
        else:
            first, second = peaks[j - 1], peaks[j - 2]
        edges.append((first, f"u{3 * j + 1}", f"u{3 * j + 2}"))
        edges.append((f"u{3 * j + 2}", f"u{3 * j + 3}", second))
    return edges


def family(kind: str, index: int) -> Hypergraph:
    """Build a named family member on vertices u1, u2, ...

    Kinds: n_cycle (index >= 3), beam, fan, nested (index >= 1). The index
    is an int, and a bool is not one.
    """
    if isinstance(index, bool) or not isinstance(index, int):
        raise ValueError(f"family index must be an integer, not {index!r}")
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unsupported kind/index combination: {kind!r}, {index}")
    if kind == "n_cycle":
        if index < 3:
            raise ValueError(f"unsupported kind/index combination: n_cycle, {index}")
        n = index
        vertices = [f"u{k}" for k in range(1, 2 * n + 1)]
        edges = []
        for j in range(1, n + 1):
            a, b, c = 2 * j - 1, 2 * j, 2 * j + 1
            edges.append((f"u{a}", f"u{b}", f"u{(c - 1) % (2 * n) + 1}"))
        return build_hypergraph(vertices, edges)
    if index < 1:
        raise ValueError(f"unsupported kind/index combination: {kind}, {index}")
    if kind == "nested":
        vertices = [f"u{k}" for k in range(1, 3 * index + 4)]
        edges = []
        for j in range(1, index + 1):
            a, b, c = f"u{3 * j - 2}", f"u{3 * j - 1}", f"u{3 * j}"
            edges.append((b, f"u{3 * j + 3}", a))
            edges.append((a, f"u{3 * j + 2}", c))
            edges.append((c, f"u{3 * j + 1}", b))
        return build_hypergraph(vertices, edges)
    if kind == "beam":
        vertices = [f"u{k}" for k in range(1, 3 * index + 4)]
        return build_hypergraph(vertices, _beam_edges(index))
    vertices = [f"u{k}" for k in range(1, 3 * index + 4)]
    edges = [("u1", "u2", "u3"), ("u3", "u4", "u5"), ("u5", "u6", "u1")]
    for j in range(2, index + 1):
        edges.append((f"u{3 * (j - 1) + 2}", f"u{3 * j + 1}", f"u{3 * j + 2}"))
        edges.append((f"u{3 * j + 2}", f"u{3 * j + 3}", "u1"))
    return build_hypergraph(vertices, edges)


def degree_order(h: Hypergraph) -> list[str]:
    """Vertices by descending degree, ties by label: most constrained first."""
    incident = _incident(h)
    return sorted(h.vertices, key=lambda v: (-len(incident[v]), v))


class _EdgeFits(dict):
    """Maps the images of an edge's members (None where unmapped) to the
    target vertices that can fill the unmapped places: those of the target
    edges of the same size that hold every image. Filled on first use. A
    search maps each vertex into the fits of its edges, so the images it
    asks about are distinct and lie in one target edge: the target bounds
    the table, not the hypergraph searched."""

    def __init__(self, target: Hypergraph):
        self.target = target
        self.incident = _incident(target)

    def __missing__(self, images):
        mapped = [x for x in images if x is not None]
        edges = self.incident[mapped[0]] if mapped else self.target.edges
        fit = set()
        for f in edges:
            if len(f) == len(images) and f.issuperset(mapped):
                fit |= f.difference(mapped)
        self[images] = frozenset(fit)
        return self[images]


def _images_of(members):
    """A function from an image dict to the tuple of the members' images."""
    if len(members) == 1:
        (v,) = members
        return lambda image: (image[v],)
    return operator.itemgetter(*members)


def homomorphisms(h: Hypergraph, target: Hypergraph, order, candidates):
    """Yield each map of h's vertices to target's under which every edge of h
    lands on an edge of target of the same size (Hell and Nešetřil, Graphs
    and Homomorphisms, 2004), as a dict in h's vertex order.

    Maps come in lexicographic order over order (all of h's vertices) times
    each vertex's candidates (its list in candidates, else target's vertices);
    one with a single candidate is mapped first. The search keeps one
    iterator of choices per mapped vertex on an explicit stack; a vertex's
    choices are its candidates in the fits of all its edges, one table
    lookup per edge.

    The cost depends on order. A vertex none of whose edges has a mapped
    member yet takes every target vertex, so an order that reaches such
    vertices early finds its dead ends late: the first 40 maps of a
    relabelled fan(3) into fan(3) took 6.6 s in a shuffled vertex order and
    1 ms in degree_order (2-core machine, Python 3.11). Callers should pass
    degree_order(h), as the library does wherever the maps need not come in
    h's own vertex order.
    """
    if frozenset() in h.edges and frozenset() not in target.edges:
        return
    getters = {v: [_images_of(tuple(e)) for e in edges] for v, edges in _incident(h).items()}
    fits = _EdgeFits(target)
    everything = frozenset(target.vertices)
    image = dict.fromkeys(h.vertices)

    def choices(v):
        """v's candidates, in order, that keep each of v's edges on a target
        edge given the images so far."""
        fit = everything
        for images_of in getters[v]:
            fit = fit & fits[images_of(image)]
            if not fit:
                break
        return filter(fit.__contains__, candidates.get(v, target.vertices))

    # Vertices with a single candidate go first (sorted is stable), so that
    # every check sees them.
    order = sorted(order, key=lambda v: len(candidates.get(v, target.vertices)) > 1)
    if not order:
        yield dict(image)
        return
    stack = [choices(order[0])]
    while stack:
        v = order[len(stack) - 1]
        image[v] = next(stack[-1], None)
        if image[v] is None:
            stack.pop()
            continue
        if len(stack) == len(order):
            yield dict(image)
        else:
            stack.append(choices(order[len(stack)]))


def parse_hypergraph(text: str) -> Hypergraph:
    """Read a hypergraph from its JSON document form."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise HypergraphParseError(f"not valid JSON: {exc}") from exc
    return hypergraph_from_document(data)


def hypergraph_from_document(data) -> Hypergraph:
    """Read a hypergraph from its decoded JSON document: an object with a
    "vertices" list of strings and an "edges" list of lists of strings."""
    if not isinstance(data, dict):
        raise HypergraphParseError("top level must be an object")
    missing = {"vertices", "edges"} - set(data)
    if missing:
        raise HypergraphParseError(f"missing fields: {', '.join(sorted(missing))}")
    if not isinstance(data["vertices"], list) or not isinstance(data["edges"], list):
        raise HypergraphParseError("'vertices' and 'edges' must be lists")
    for edge in data["edges"]:
        if not isinstance(edge, list):
            raise HypergraphParseError(f"edge must be a list of vertex ids, got {edge!r}")
    return build_hypergraph(data["vertices"], data["edges"])


def format_hypergraph(h: Hypergraph) -> str:
    """Serialize to the JSON document form accepted by parse_hypergraph."""
    doc = {"vertices": list(h.vertices), "edges": [list(e) for e in h.edge_list()]}
    return json.dumps(doc, indent=2) + "\n"
