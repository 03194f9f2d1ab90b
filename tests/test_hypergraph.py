import inspect
import json
import math
import re
import sys
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flathg.constructions import verify_witness
from flathg.hg_semiring import build_semiring
from flathg.hypergraph import (
    FAMILY_KINDS,
    Hypergraph,
    HypergraphParseError,
    ValidationReport,
    build_hypergraph,
    degree_order,
    family,
    format_hypergraph,
    girth,
    homomorphisms,
    is_linear,
    leaf_edges,
    linked_classes,
    parse_hypergraph,
    sub_hypergraph,
    validate,
)
from test_search_differential import reference_isomorphism

TRIANGLE_EDGES = [("u1", "u2", "u3"), ("u3", "u4", "u5"), ("u5", "u6", "u1")]


def triangle():
    return build_hypergraph([f"u{i}" for i in range(1, 7)], TRIANGLE_EDGES)


class TestBuild:
    def test_duplicate_vertex_rejected(self):
        with pytest.raises(HypergraphParseError, match="duplicate"):
            build_hypergraph(["a", "a"], [])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(HypergraphParseError, match="unknown"):
            build_hypergraph(["a", "b"], [("a", "c")])

    def test_repeated_vertex_in_edge_rejected(self):
        with pytest.raises(HypergraphParseError):
            build_hypergraph(["a", "b"], [("a", "a")])

    def test_non_string_vertex_rejected(self):
        with pytest.raises(HypergraphParseError):
            build_hypergraph([1, 2], [])


class TestValidate:
    def test_triangle_is_admissible(self):
        assert validate(triangle()).valid

    def test_empty_flagged(self):
        report = validate(build_hypergraph([], []))
        assert not report.valid
        assert report.violations[0][0] == "empty"

    def test_isolated_vertex_flagged(self):
        h = build_hypergraph(["a", "b", "c", "d"], [("a", "b", "c")])
        rules = {rule for rule, _ in validate(h).violations}
        assert "isolated-vertex" in rules

    def test_pair_of_overlapping_edges_flagged(self):
        h = build_hypergraph(["a", "b", "c", "d"], [("a", "b", "c"), ("a", "b", "d")])
        rules = {rule for rule, _ in validate(h).violations}
        assert rules == {"linear"}

    def test_attached_degree2_edge_flagged(self):
        h = build_hypergraph(["a", "b", "c", "d"], [("a", "b", "c"), ("c", "d")])
        rules = {rule for rule, _ in validate(h).violations}
        assert "degree-2-adjacency" in rules

    def test_oversized_edge_flagged(self):
        h = build_hypergraph(["a", "b", "c", "d"], [("a", "b", "c", "d")])
        rules = {rule for rule, _ in validate(h).violations}
        assert "edge-cardinality" in rules


class TestFamilies:
    def test_beam_1_is_the_triangle(self):
        assert family("beam", 1).edges == triangle().edges

    @pytest.mark.parametrize("i", range(1, 7))
    def test_beam_shape(self, i):
        h = family("beam", i)
        assert len(h.vertices) == 3 * i + 3
        assert len(h.edges) == 2 * i + 1
        assert validate(h).valid

    @pytest.mark.parametrize("i", range(1, 5))
    def test_fan_shape(self, i):
        h = family("fan", i)
        assert len(h.vertices) == 3 * i + 3
        assert len(h.edges) == 2 * i + 1
        assert validate(h).valid

    def test_nested_1_edges(self):
        h = family("nested", 1)
        expected = {
            frozenset({"u1", "u2", "u6"}),
            frozenset({"u1", "u3", "u5"}),
            frozenset({"u2", "u3", "u4"}),
        }
        assert h.edges == expected

    @pytest.mark.parametrize("i", range(1, 5))
    def test_nested_shape(self, i):
        h = family("nested", i)
        assert len(h.vertices) == 3 * i + 3
        assert len(h.edges) == 3 * i
        assert validate(h).valid

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle_girth_is_n(self, n):
        assert girth(family("n_cycle", n)) == n

    def test_cycle_needs_three_edges(self):
        with pytest.raises(ValueError, match="unsupported kind/index"):
            family("n_cycle", 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unsupported kind/index"):
            family("wheel", 3)

    @pytest.mark.parametrize("index", (True, 2.0, "2"))
    def test_the_index_is_an_int_and_not_a_bool(self, index):
        with pytest.raises(ValueError, match=f"^family index must be an integer, not {re.escape(repr(index))}$"):
            family("beam", index)

    def test_s7_marker_is_an_unknown_kind(self):
        with pytest.raises(ValueError, match=r"^unsupported kind/index combination: 's7_marker', 1$"):
            family("s7_marker", 1)

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_every_kind_builds_at_index_3(self, kind):
        assert validate(family(kind, 3)).valid

    def test_fan3_isomorphic_to_beam3(self):
        iso = reference_isomorphism(family("fan", 3), family("beam", 3))
        assert iso is not None

    def test_fan4_not_isomorphic_to_beam4(self):
        assert reference_isomorphism(family("fan", 4), family("beam", 4)) is None


class TestGirth:
    def test_triangle(self):
        assert girth(triangle()) == 3

    def test_single_edge_infinite(self):
        h = build_hypergraph(["a", "b", "c"], [("a", "b", "c")])
        assert girth(h) == math.inf

    def test_two_edge_cycle_detected(self):
        """Non-linear input has a length-2 alternating cycle."""
        h = build_hypergraph(["a", "b", "c", "d"], [("a", "b", "c"), ("a", "b", "d")])
        assert girth(h) == 2

    def test_hyperpath_deeper_than_the_recursion_limit(self):
        # 1,200 edges in a row: a search with a frame per edge needs 1,200
        # frames, and a breadth-first search from every vertex of the path
        # would take seconds; one search covers the whole tree.
        vertices = [f"v{i}" for i in range(2401)]
        path = build_hypergraph(vertices, [vertices[i : i + 3] for i in range(0, 2400, 2)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            assert girth(path) == math.inf
        finally:
            sys.setrecursionlimit(limit)

    def test_linearity_matches_girth_on_families(self):
        for kind, idx in [("beam", 2), ("fan", 2), ("nested", 2), ("nested", 16), ("n_cycle", 5)]:
            h = family(kind, idx)
            assert is_linear(h) and girth(h) >= 3


@st.composite
def loopfree_hypergraphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    vertices = tuple(f"v{i}" for i in range(n))
    edge_count = draw(st.integers(min_value=0, max_value=7))
    edges = set()
    for _ in range(edge_count):
        size = draw(st.sampled_from([2, 3]))
        if size > n:
            continue
        start = draw(st.integers(min_value=0, max_value=n - size))
        picks = draw(st.permutations(range(n)))
        edges.add(frozenset(vertices[p] for p in picks[:size]))
        del start
    return Hypergraph(vertices, frozenset(edges))


@settings(max_examples=120, deadline=None)
@given(loopfree_hypergraphs())
def test_linear_iff_girth_at_least_three(h):
    assert is_linear(h) == (girth(h) >= 3)


class TestLinkedClasses:
    def test_triangle_classes(self):
        classes = linked_classes(triangle())
        sizes = sorted(len(members) for members in classes.values())
        assert sizes == [1, 1, 1, 2, 2, 2]
        linked = classes[frozenset({"u2", "u3"})]
        assert frozenset({"u5", "u6"}) in linked

    def test_single_edge_all_singletons(self):
        h = build_hypergraph(["a", "b", "c"], [("a", "b", "c")])
        classes = linked_classes(h)
        assert len(classes) == 3
        assert all(len(m) == 1 for m in classes.values())

    def test_universe_excludes_2_edges(self):
        h = build_hypergraph(
            ["a", "b", "c", "d", "e"], [("a", "b", "c"), ("d", "e")]
        )
        classes = linked_classes(h)
        assert frozenset({"d", "e"}) not in classes


def _strip_leaves(h):
    """h after removing its leaf edges, and the vertices only they cover,
    until no leaf edge is left."""
    while leaves := {e for e, _ in leaf_edges(h.edges)}:
        h = sub_hypergraph(h, h.edges - leaves)
    return h


class TestLeafEdges:
    def test_stripping_a_pendant_leaves_the_triangle(self):
        h = build_hypergraph(
            [f"u{i}" for i in range(1, 9)],
            TRIANGLE_EDGES + [("u7", "u8", "u1")],
        )
        assert leaf_edges(h.edges) == [(frozenset({"u1", "u7", "u8"}), frozenset({"u1"}))]
        core = _strip_leaves(h)
        assert core.edges == triangle().edges
        assert core.vertices == triangle().vertices

    def test_a_cycle_has_no_leaf_edge(self):
        assert leaf_edges(family("n_cycle", 5).edges) == []

    def test_a_hyperforest_strips_to_nothing(self):
        h = build_hypergraph(["a", "b", "c", "d", "e"], [("a", "b", "c"), ("c", "d", "e")])
        assert [shared for _, shared in leaf_edges(h.edges)] == [frozenset({"c"})] * 2
        assert _strip_leaves(h) == Hypergraph((), frozenset())

    def test_stripping_a_400_edge_pendant_path(self):
        # A hyperpath of 400 edges hangs off u1: each round removes its far end.
        path = [f"p{i}" for i in range(800)]
        edges = TRIANGLE_EDGES + [(["u1"] + path)[i : i + 3] for i in range(0, 800, 2)]
        h = build_hypergraph([f"u{i}" for i in range(1, 7)] + path, edges)
        assert len(h.edges) == 403
        assert leaf_edges(h.edges) == [(frozenset({"p797", "p798", "p799"}), frozenset({"p797"}))]
        core = _strip_leaves(h)
        assert core.edges == triangle().edges
        assert core.vertices == triangle().vertices

    def test_sub_hypergraph_keeps_its_edges_vertices_in_order(self):
        h = build_hypergraph(["e", "c", "a", "d", "b"], [("a", "b", "c"), ("d", "e")])
        sub = sub_hypergraph(h, [frozenset({"a", "b", "c"})])
        assert sub == Hypergraph(("c", "a", "b"), frozenset({frozenset({"a", "b", "c"})}))

    def test_sub_hypergraph_on_no_edges_is_empty(self):
        assert sub_hypergraph(triangle(), []) == Hypergraph((), frozenset())


def _relabelled(h, width):
    names = {v: f"w{i:0{width}d}" for i, v in enumerate(sorted(h.vertices))}
    relabelled = build_hypergraph(sorted(names.values()), [[names[v] for v in e] for e in h.edges])
    return relabelled, names


def _lands(h, target, image):
    return all(frozenset(image[v] for v in e) in target.edges for e in h.edges)


class TestHomomorphisms:
    def test_relabelled_beam_found(self):
        h = family("beam", 2)
        relabelled, names = _relabelled(h, 1)
        first = next(homomorphisms(h, relabelled, degree_order(h), {}))
        assert list(first) == list(h.vertices)
        assert _lands(h, relabelled, first)
        pins = {v: (w,) for v, w in names.items()}
        assert list(homomorphisms(h, relabelled, h.vertices, pins)) == [names]

    def test_search_deeper_than_the_recursion_limit(self):
        h = family("beam", 330)
        relabelled, names = _relabelled(h, 4)
        first = next(homomorphisms(h, relabelled, degree_order(h), {}))
        assert len(first) == 993 and _lands(h, relabelled, first)
        pins = {v: (w,) for v, w in names.items()}
        assert list(homomorphisms(h, relabelled, degree_order(h), pins)) == [names]

    def test_an_edge_with_no_target_edge_of_its_size_has_no_map(self):
        two = build_hypergraph(["a", "b"], [("a", "b")])
        nonuniform = build_hypergraph(["a", "b", "c", "d", "e"], [("a", "b", "c"), ("d", "e")])
        with_empty = build_hypergraph(["a", "b", "c"], ["", "abc"])
        assert list(homomorphisms(nonuniform, triangle(), nonuniform.vertices, {})) == []
        assert list(homomorphisms(triangle(), two, triangle().vertices, {})) == []
        assert list(homomorphisms(with_empty, triangle(), with_empty.vertices, {})) == []
        assert len(list(homomorphisms(two, nonuniform, two.vertices, {}))) == 2

    def test_maps_come_in_lexicographic_order(self):
        # u2 has one candidate, so it is mapped first; the order of the maps
        # is still that of order over each vertex's candidates.
        h = triangle()
        order = list(reversed(h.vertices))
        candidates = {"u2": ("u4",), "u6": ("u6", "u5", "u4", "u3", "u2", "u1")}
        want = []
        for images in product(*(candidates.get(v, h.vertices) for v in order)):
            image = dict(zip(order, images))
            if _lands(h, h, image):
                want.append({v: image[v] for v in h.vertices})
        got = list(homomorphisms(h, h, order, candidates))
        assert [list(m.items()) for m in got] == [list(m.items()) for m in want]
        assert len(got) > 1

    def test_no_vertices_have_the_empty_map(self):
        empty = Hypergraph((), frozenset())
        assert list(homomorphisms(empty, triangle(), [], {})) == [{}]


class TestSerialization:
    def test_round_trip(self):
        h = family("nested", 2)
        assert parse_hypergraph(format_hypergraph(h)).edges == h.edges

    def test_parse_rejects_garbage(self):
        with pytest.raises(HypergraphParseError):
            parse_hypergraph("not json")

    def test_parse_rejects_deep_nesting(self):
        with pytest.raises(HypergraphParseError, match="^not valid JSON: maximum recursion depth"):
            parse_hypergraph("[" * 100_000 + "]" * 100_000)

    def test_parse_rejects_missing_keys(self):
        with pytest.raises(HypergraphParseError):
            parse_hypergraph('{"vertices": ["a"]}')

    @pytest.mark.parametrize("edge", ["abc", {"a": 1, "b": 2, "c": 3}, 7], ids=["string", "dict", "int"])
    def test_parse_rejects_an_edge_that_is_not_a_list(self, edge):
        """A string or dict edge would be read as its characters or keys."""
        text = json.dumps({"vertices": ["a", "b", "c"], "edges": [edge]})
        message = f"^edge must be a list of vertex ids, got {re.escape(repr(edge))}$"
        with pytest.raises(HypergraphParseError, match=message):
            parse_hypergraph(text)


# Pairwise reference versions of the incidence-count checks: every pair of
# edges is compared, and linked classes are closed by breadth-first search.


def _key(e):
    return tuple(sorted(e))


def reference_validate(h):
    violations = []
    if not h.vertices or not h.edges:
        violations.append(("empty", ()))
    bad_size = sorted(_key(e) for e in h.edges if len(e) not in (2, 3))
    if bad_size:
        violations.append(("edge-cardinality", tuple(bad_size)))
    covered = set().union(*h.edges)
    isolated = tuple(v for v in h.vertices if v not in covered)
    if isolated:
        violations.append(("isolated-vertex", isolated))
    ordered = sorted(h.edges, key=_key)
    nonlinear = [(_key(e), _key(f)) for e, f in combinations(ordered, 2) if len(e & f) >= 2]
    if nonlinear:
        violations.append(("linear", tuple(nonlinear)))
    adjacent = [_key(e) for e in ordered if len(e) == 2 and any(e & f for f in h.edges if f != e)]
    if adjacent:
        violations.append(("degree-2-adjacency", tuple(adjacent)))
    return ValidationReport(valid=not violations, violations=tuple(violations))


def reference_is_linear(h):
    return all(len(e & f) <= 1 for e, f in combinations(h.edges, 2))


def reference_leaf_edges(edges):
    out = []
    for e in edges:
        shared = e & set().union(*(f for f in edges if f != e))
        if len(shared) <= 1:
            out.append((e, shared))
    return sorted(out, key=lambda pair: _key(pair[0]))


def reference_linked_classes(h):
    completers, completed_by = {}, {}
    for e in h.edges:
        if len(e) == 3:
            for w in e:
                completers.setdefault(e - {w}, set()).add(w)
                completed_by.setdefault(w, set()).add(e - {w})
    classes, unvisited = [], set(completers)
    while unvisited:
        component, frontier = set(), [next(iter(unvisited))]
        while frontier:
            p = frontier.pop()
            if p not in component:
                component.add(p)
                frontier.extend(q for w in completers[p] for q in completed_by[w])
        unvisited -= component
        classes.append(frozenset(component))
    keyed = {min(cls, key=_key): cls for cls in classes}
    return dict(sorted(keyed.items(), key=lambda item: _key(item[0])))


@st.composite
def raw_hypergraphs(draw):
    """Up to 7 listed vertices and up to 8 edges of 0 to 4 of them."""
    vertices = tuple(f"v{i}" for i in range(draw(st.integers(min_value=1, max_value=7))))
    edge = st.sets(st.sampled_from(vertices), max_size=min(4, len(vertices)))
    return Hypergraph(vertices, frozenset(map(frozenset, draw(st.lists(edge, max_size=8)))))


@settings(max_examples=300, deadline=None)
@given(raw_hypergraphs())
@example(family("beam", 3))
@example(family("nested", 2))
@example(family("n_cycle", 5))
@example(build_hypergraph("abcde", ["abc", "abd", "abe", "cd"]))
def test_incidence_checks_match_the_pairwise_reference(h):
    assert validate(h) == reference_validate(h)
    assert is_linear(h) == reference_is_linear(h)
    assert leaf_edges(h.edges) == reference_leaf_edges(h.edges)
    triples = Hypergraph(h.vertices, frozenset(e for e in h.edges if len(e) == 3))
    if reference_is_linear(triples):
        assert linked_classes(h) == reference_linked_classes(h)
    else:
        with pytest.raises(ValueError, match=r"^not linear: the pair \{") as err:
            linked_classes(h)
        u, v = re.fullmatch(r".*\{(\w+), (\w+)\} lies in two edges", str(err.value)).groups()
        assert sum({u, v} < e for e in triples.edges) >= 2


def test_linked_classes_refuses_a_pair_in_two_edges():
    h = build_hypergraph(["a", "b", "c", "d"], [("a", "b", "c"), ("b", "a", "d")])
    with pytest.raises(ValueError, match=r"^not linear: the pair \{a, b\} lies in two edges$"):
        linked_classes(h)


def test_an_edge_naming_an_unlisted_vertex_is_reported_and_refused():
    h = Hypergraph(("a", "b"), frozenset({frozenset({"a", "b", "x"})}))
    assert validate(h) == ValidationReport(False, (("unknown-vertex", ("x",)),))
    with pytest.raises(ValueError, match="^hypergraph is not admissible: unknown-vertex$"):
        build_semiring(h)
    with pytest.raises(ValueError, match="requires an admissible hypergraph"):
        verify_witness("strongcolor_equiv", hypergraph=h)


def test_a_repeated_vertex_label_is_reported_once_and_refused():
    h = Hypergraph(("b", "a", "a", "c", "b", "a"), frozenset({frozenset("abc")}))
    assert validate(h) == ValidationReport(False, (("duplicate-vertex", ("a", "b")),))
    # The rule comes after unknown-vertex, so the earlier reports keep their order.
    h = Hypergraph(("a", "a", "b"), frozenset({frozenset("abx")}))
    assert [rule for rule, _ in validate(h).violations] == ["unknown-vertex", "duplicate-vertex"]
    h = Hypergraph(("a", "a", "b", "c"), frozenset({frozenset("abc")}))
    with pytest.raises(ValueError, match="^hypergraph is not admissible: duplicate-vertex$"):
        build_semiring(h)
    with pytest.raises(ValueError, match="requires an admissible hypergraph"):
        verify_witness("strongcolor_equiv", hypergraph=h)
