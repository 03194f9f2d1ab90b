"""The coloring searches against frozen recursive references.

The references below are copies of the recursive backtracking searches the
library used before the colorings moved onto one homomorphism search, and
of the recursive alternating-cycle search girth used before its
breadth-first one. Every public answer must match them exactly: the
coloring list in order (keys in order too), the first failing pair of
is_2_robust, extends on every valid pinned pair, and the girth.
reference_homomorphisms checks the vertex-map search on targets other than
the coloring simplex: relabelled copies and hypergraphs of the same size.
reference_isomorphism is a brute-force hypergraph isomorphism search, which
the library does not have; the family tests in test_hypergraph use it.

is_2_robust is also checked against its earlier bookkeeping, in which each
coloring found marked every vertex pair as witnessed alike or unlike: the
report and the sequence of pinned searches must be the same.
"""

import itertools
import math
import random

import pytest

from flathg import coloring as coloring_module
from flathg.coloring import (
    COLORS,
    ExtensionFailure,
    RobustnessReport,
    enumerate_strong_colorings,
    extends,
    is_2_robust,
)
from flathg.hypergraph import (
    build_hypergraph,
    degree_order,
    family,
    girth,
    homomorphisms,
    pair_incidence,
)
from flathg.suite import (
    SUITE_SEED,
    _family_members,
    _random_loopfree,
    _samples,
    random_hyperforest,
    sample_nonuniform,
    sample_pendant,
    single_edge,
)


def _mates(h):
    mates = {v: set() for v in h.vertices}
    for e in h.edges:
        for u, v in itertools.combinations(e, 2):
            mates[u].add(v)
            mates[v].add(u)
    return mates


def _degree_order(h):
    degree = dict.fromkeys(h.vertices, 0)
    for e in h.edges:
        for v in e:
            degree[v] += 1
    return sorted(h.vertices, key=lambda v: (-degree[v], v))


def _complete(assignment, order, mates, collect):
    def assign(i):
        if i == len(order):
            if collect is None:
                return True
            collect.append(dict(assignment))
            return False
        v = order[i]
        if v in assignment:
            return assign(i + 1)
        for color in COLORS:
            if all(assignment.get(m) != color for m in mates[v]):
                assignment[v] = color
                if assign(i + 1):
                    return True
                del assignment[v]
        return False

    return assign(0)


def reference_colorings(h):
    collect = []
    _complete({}, list(h.vertices), _mates(h), collect)
    return collect


def reference_extends(h, partial):
    return _complete(dict(partial), _degree_order(h), _mates(h), None)


def reference_is_2_robust(h):
    mates, order = _mates(h), _degree_order(h)
    for u, v in itertools.combinations(sorted(h.vertices), 2):
        for cu, cv in itertools.product(COLORS, COLORS):
            if cu == cv and v in mates[u]:
                continue
            if not _complete({u: cu, v: cv}, order, mates, None):
                return RobustnessReport(False, ExtensionFailure((u, v), (cu, cv)))
    return RobustnessReport(True, None)


def _signature(h, v):
    sizes = sorted(len(e) for e in h.edges if v in e)
    return (len(sizes), tuple(sizes))


def reference_isomorphism(h1, h2):
    if len(h1.vertices) != len(h2.vertices) or len(h1.edges) != len(h2.edges):
        return None
    sig1 = {v: _signature(h1, v) for v in h1.vertices}
    sig2 = {v: _signature(h2, v) for v in h2.vertices}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None
    if sorted(len(e) for e in h1.edges) != sorted(len(e) for e in h2.edges):
        return None
    order = sorted(h1.vertices, key=lambda v: (-sig1[v][0], v))

    def feasible(mapping):
        for e in h1.edges:
            image = {mapping[v] for v in e if v in mapping}
            if len(image) == len(e):
                if frozenset(image) not in h2.edges:
                    return False
            elif image and not any(image <= f for f in h2.edges if len(f) == len(e)):
                return False
        return True

    used, mapping = set(), {}

    def assign(i):
        if i == len(order):
            return True
        v = order[i]
        for w in sorted(h2.vertices):
            if w in used or sig2[w] != sig1[v]:
                continue
            mapping[v] = w
            used.add(w)
            if feasible(mapping) and assign(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return {v: mapping[v] for v in h1.vertices} if assign(0) else None


def reference_homomorphisms(h, target, order, candidates):
    """Each map under which every edge of h lands on an edge of target of
    the same size, in lexicographic order over order times candidates: a
    recursive search that refuses a partial map once a partly mapped edge
    repeats an image or lies in no target edge of its size."""
    order = list(order)
    mapping = {}

    def fits(e):
        image = [mapping[v] for v in e if v in mapping]
        if len(set(image)) != len(image):
            return False
        if len(image) == len(e):
            return frozenset(image) in target.edges
        return any(len(f) == len(e) and f.issuperset(image) for f in target.edges)

    def assign(i):
        if i == len(order):
            yield {v: mapping[v] for v in h.vertices}
            return
        v = order[i]
        for w in candidates.get(v, target.vertices):
            mapping[v] = w
            if all(fits(e) for e in h.edges if v in e):
                yield from assign(i + 1)
            del mapping[v]

    if all(fits(e) for e in h.edges if not e):
        yield from assign(0)


def reference_girth(h):
    incident = {v: [] for v in h.vertices}
    for e in h.edges:
        for v in e:
            incident.setdefault(v, []).append(e)
    rank = {v: i for i, v in enumerate(sorted(incident))}
    best = math.inf

    def extend(start, current, used_v, used_e):
        nonlocal best
        depth = len(used_e)
        if depth + 1 >= best:
            return
        for e in incident[current]:
            if e in used_e:
                continue
            if depth >= 1 and start in e:
                best = min(best, depth + 1)
                continue
            used_e.add(e)
            for nxt in e:
                if nxt in used_v or rank[nxt] < rank[start]:
                    continue
                used_v.add(nxt)
                extend(start, nxt, used_v, used_e)
                used_v.discard(nxt)
            used_e.discard(e)

    for start in sorted(incident):
        extend(start, start, {start}, set())
        if best == 2:
            break
    return best


def _random_mixed(rng):
    """Up to 7 vertices and edges of 0 to 4 vertices: admissible or not."""
    vertices = [f"v{i}" for i in range(rng.randint(1, 7))]
    sizes = [rng.choice((0, 1, 2, 2, 3, 3, 3, 4)) for _ in range(rng.randint(0, 6))]
    return build_hypergraph(vertices, [rng.sample(vertices, k) for k in sizes if k <= len(vertices)])


HAND_MADE = {
    # a 1-vertex edge constrains nothing: 3 * 6 colorings
    "one-vertex edge": build_hypergraph("abcd", ["a", "bcd"]),
    "four-vertex edge": build_hypergraph("abcde", ["abcd", "de"]),
    "two 3-edges share two vertices": build_hypergraph("abcd", ["abc", "abd"]),
    "attached 2-edge": build_hypergraph("abcde", ["abc", "cd", "de"]),
    "isolated vertex": build_hypergraph("abcd", ["abc"]),
    # a vertex of high degree that comes last in the vertex order
    "star, hub last": build_hypergraph("abcdefghijz", ["zab", "zcd", "zef", "zgh", "zij"]),
    "empty edge": build_hypergraph("abc", ["", "abc"]),
    "no edges": build_hypergraph("ab", []),
    "nonuniform sample": sample_nonuniform(),
    "pendant sample": sample_pendant(),
    "single edge": single_edge(),
}

CASES = dict(HAND_MADE)
CASES.update({f"{kind}({i})": family(kind, i) for kind in ("beam", "fan", "nested")
              for i in (1, 2, 3)})
CASES.update({f"n_cycle({n})": family("n_cycle", n) for n in range(3, 11)})
CASES.update({f"forest {seed}": random_hyperforest(random.Random(seed), max_edges=6)
              for seed in range(30)})
CASES.update({f"mixed {seed}": _random_mixed(random.Random(1000 + seed)) for seed in range(40)})


def test_the_case_list_covers_what_it_claims():
    assert len(CASES) == 98
    assert len(reference_colorings(HAND_MADE["one-vertex edge"])) == 18
    assert reference_colorings(HAND_MADE["four-vertex edge"]) == []
    sizes = {len(e) for h in CASES.values() for e in h.edges}
    assert sizes == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("name", sorted(CASES))
def test_colorings_match_in_order(name):
    h = CASES[name]
    got = enumerate_strong_colorings(h)
    want = reference_colorings(h)
    assert [list(c.items()) for c in got] == [list(c.items()) for c in want]


@pytest.mark.parametrize("name", sorted(CASES))
def test_2_robustness_reports_match(name):
    h = CASES[name]
    assert is_2_robust(h) == reference_is_2_robust(h)


@pytest.mark.parametrize("name", sorted(CASES))
def test_extends_matches_on_every_valid_pinned_pair(name):
    h = CASES[name]
    mates = _mates(h)
    partials = [{}] + [{v: c} for v in h.vertices for c in COLORS]
    for u, v in itertools.combinations(h.vertices, 2):
        for cu, cv in itertools.product(COLORS, COLORS):
            if cu != cv or v not in mates[u]:
                partials.append({u: cu, v: cv})
    for partial in partials:
        assert extends(h, partial) == reference_extends(h, partial), partial


def _relabelled(h, rng):
    """A copy of h with shuffled names, vertex order and edge order, and the
    renaming."""
    names = [f"w{i}" for i in range(len(h.vertices))]
    rng.shuffle(names)
    rename = dict(zip(h.vertices, names))
    edges = [[rename[v] for v in e] for e in h.edges]
    rng.shuffle(edges)
    return build_hypergraph(sorted(names, key=lambda _: rng.random()), edges), rename


def _first_maps(search, h, target, order, candidates, count=40):
    return [list(m.items()) for m in itertools.islice(search(h, target, order, candidates), count)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_homomorphisms_match_on_a_relabelled_copy(name):
    h = CASES[name]
    twin, rename = _relabelled(h, random.Random(name))
    for source, target in [(h, twin), (twin, h), (h, h)]:
        order = degree_order(source)
        got = _first_maps(homomorphisms, source, target, order, {})
        assert got == _first_maps(reference_homomorphisms, source, target, order, {})
        assert got
    # Pinning every vertex to its new name leaves the renaming alone; pinning
    # half of them (the rest keep every target vertex) keeps it among the maps.
    pins = {v: (w,) for v, w in rename.items()}
    assert [list(m.items()) for m in homomorphisms(h, twin, h.vertices, pins)] == [
        list(rename.items())
    ]
    half = dict(list(pins.items())[::2])
    got = _first_maps(homomorphisms, h, twin, degree_order(h), half, count=None)
    assert got == _first_maps(reference_homomorphisms, h, twin, degree_order(h), half, count=None)
    assert list(rename.items()) in got


def _same_size_groups():
    groups = {}
    for name, h in sorted(CASES.items()):
        groups.setdefault((len(h.vertices), len(h.edges)), []).append(h)
    return [g for g in groups.values() if len(g) > 1]


def test_homomorphisms_match_on_same_size_pairs():
    pairs = [(a, b) for group in _same_size_groups() for a, b in itertools.permutations(group, 2)]
    assert len(pairs) > 200
    found = 0
    for a, b in pairs:
        want = _first_maps(reference_homomorphisms, a, b, degree_order(a), {}, count=5)
        assert _first_maps(homomorphisms, a, b, degree_order(a), {}, count=5) == want
        found += bool(want)
    assert 0 < found < len(pairs)


def test_girth_matches():
    rng = random.Random(7)
    hypergraphs = list(CASES.values()) + [_random_loopfree(rng) for _ in range(300)]
    # The reference takes seconds on nested(8) under some hash seeds, and
    # grows about 7x for every 2 more.
    hypergraphs += [family(kind, i) for kind in ("beam", "fan", "nested") for i in (4, 6)]
    assert [girth(h) for h in hypergraphs] == [reference_girth(h) for h in hypergraphs]
    assert {2, 3, 4, math.inf} <= {girth(h) for h in hypergraphs}


def witnessed_is_2_robust(h):
    """is_2_robust with its earlier bookkeeping: after each coloring found,
    every vertex pair is added to one set as witnessed alike or unlike."""
    pairs = pair_incidence(h.edges)
    order = degree_order(h)
    vertices = sorted(h.vertices)
    witnessed = set()
    for u, v in itertools.combinations(vertices, 2):
        adjacent = frozenset((u, v)) in pairs
        for cu, cv in itertools.product(COLORS, COLORS):
            if adjacent and cu == cv or (u, v, cu == cv) in witnessed:
                continue
            pins = {u: (cu,), v: (cv,)}
            coloring = next(
                coloring_module.homomorphisms(h, coloring_module._SIMPLEX, order, pins), None
            )
            if coloring is None:
                return RobustnessReport(False, ExtensionFailure((u, v), (cu, cv)))
            for x, y in itertools.combinations(vertices, 2):
                witnessed.add((x, y, coloring[x] == coloring[y]))
    return RobustnessReport(True, None)


def _suite_forests():
    """The random hyperforests of the suite's coloring section."""
    rng = random.Random(SUITE_SEED)
    return [random_hyperforest(rng, max_edges=10) for _ in range(5)]


BOOKKEEPING_CASES = dict(_family_members() + _samples())
BOOKKEEPING_CASES.update({f"suite forest {t}": h for t, h in enumerate(_suite_forests(), 1)})
BOOKKEEPING_CASES.update({f"n_cycle({n})": family("n_cycle", n) for n in range(3, 31)})
BOOKKEEPING_CASES.update({f"{kind}({i})": family(kind, i) for kind in ("beam", "fan", "nested")
                          for i in range(1, 6)})
BOOKKEEPING_CASES.update({f"hyperforest {seed}": random_hyperforest(random.Random(seed))
                          for seed in range(50)})


def test_the_bookkeeping_case_list_covers_what_it_claims():
    # n_cycle(3..8) and beam/fan/nested(1..3) are also family members.
    assert len(BOOKKEEPING_CASES) == 16 + 2 + 5 + (28 - 6) + (15 - 9) + 50
    assert {is_2_robust(h).robust for h in BOOKKEEPING_CASES.values()} == {True, False}


@pytest.mark.parametrize("name", sorted(BOOKKEEPING_CASES))
def test_2_robustness_bookkeeping_matches_the_witnessed_set(name, monkeypatch):
    searches = []
    search = coloring_module.homomorphisms

    def counted(h, target, order, pins):
        searches.append(pins)
        return search(h, target, order, pins)

    monkeypatch.setattr(coloring_module, "homomorphisms", counted)
    h = BOOKKEEPING_CASES[name]
    got = is_2_robust(h)
    got_searches, searches[:] = list(searches), []
    assert got == witnessed_is_2_robust(h)
    assert got_searches == searches
