import pytest

from flathg.constructions import find_semiring_isomorphism
from flathg.hg_semiring import build_semiring
from flathg.hypergraph import build_hypergraph, family, linked_classes
from flathg.semiring import is_flat, subdirect_irreducibility_certificate, verify_axioms
from flathg.suite import sample_nonuniform, sample_pendant, single_edge


def reference_kinds(h):
    """Each carrier label of h's semiring -> its kind and what it stands for:
    a generator's vertex, or the member pairs of a linked class."""
    kinds = {"0": ("zero", None), "TOP": ("top", None)}
    kinds.update((f"a·{v}", ("gen", v)) for v in h.vertices)
    kinds.update(
        ("PAIR{" + ",".join(sorted(rep)) + "}", ("pair", members))
        for rep, members in linked_classes(h).items()
    )
    return kinds


def reference_product(h, kinds, x, y):
    """The label of x·y, read off h's edges.

    Two generators multiply to the top on a 2-edge, to the class of their
    pair inside a 3-edge, and to zero otherwise. A generator and a pair
    class, either way round, multiply to the top when the vertex completes
    some member of the class to an edge. Every other product is zero.
    """
    (kx, vx), (ky, vy) = kinds[x], kinds[y]
    if kx == ky == "gen":
        uv = frozenset((vx, vy))
        if vx == vy:
            return "0"
        if uv in h.edges:
            return "TOP"
        return next((label for label, (k, members) in kinds.items() if k == "pair" and uv in members), "0")
    if {kx, ky} == {"gen", "pair"}:
        w, members = (vx, vy) if kx == "gen" else (vy, vx)
        if any(w not in pair and pair | {w} in h.edges for pair in members):
            return "TOP"
    return "0"


class TestSizes:
    """Carrier size is 2 + vertices + linked classes, checked both ways."""

    def test_triangle_has_fourteen_elements(self, triangle_semiring):
        assert triangle_semiring.size == 14

    def test_single_edge_has_eight(self, sc_abc):
        h = build_hypergraph(["x", "y", "z"], [("x", "y", "z")])
        assert build_semiring(h).exported.size == 8

    @pytest.mark.parametrize("i", (1, 2, 3))
    def test_nested_size_formula(self, i):
        s = build_semiring(family("nested", i)).exported
        assert s.size == 6 * i + 8

    @pytest.mark.parametrize("kind,index", [("beam", 2), ("fan", 3), ("n_cycle", 6)])
    def test_size_decomposition(self, kind, index):
        h = family(kind, index)
        s = build_semiring(h).exported
        assert s.size == 2 + len(h.vertices) + len(linked_classes(h))


class TestTables:
    def test_multiplication_is_commutative(self, triangle_semiring):
        s = triangle_semiring
        assert all(
            s.mul[i][j] == s.mul[j][i] for i in range(s.size) for j in range(s.size)
        )

    def test_every_square_is_zero(self, triangle_semiring):
        s = triangle_semiring
        assert all(s.mul[i][i] == s.zero for i in range(s.size))

    def test_edge_triple_reaches_top(self, triangle_semiring):
        s = triangle_semiring
        ab = s.mul_label("a·u1", "a·u2")
        assert ab == "PAIR{u1,u2}"
        assert s.mul_label(ab, "a·u3") == "TOP"

    def test_non_subhyperedge_pair_is_zero(self, triangle_semiring):
        assert triangle_semiring.mul_label("a·u2", "a·u4") == "0"

    def test_top_annihilates(self, triangle_semiring):
        s = triangle_semiring
        top = s.index("TOP")
        assert all(s.mul[top][x] == s.zero for x in range(s.size))

    def test_linked_pairs_share_one_element(self):
        s = build_semiring(sample_pendant()).exported
        assert s.mul_label("a·u7", "a·u8") == s.mul_label("a·u2", "a·u3")

    def test_axioms_and_flatness(self):
        s = build_semiring(family("fan", 2)).exported
        assert verify_axioms(s).all_pass
        assert is_flat(s)


class TestNormalForms:
    """Products of the carrier's labels, read off the built table."""

    def test_gen_times_gen_on_subhyperedge(self):
        s = build_semiring(family("beam", 1)).exported
        assert s.mul_label("a·u1", "a·u2") == "PAIR{u1,u2}"

    def test_gen_squared_is_zero(self):
        s = build_semiring(family("beam", 1)).exported
        assert s.mul_label("a·u1", "a·u1") == "0"

    def test_pair_times_completer_is_top(self):
        s = build_semiring(sample_pendant()).exported
        assert s.mul_label("PAIR{u2,u3}", "a·u1") == "TOP"
        assert s.mul_label("a·u1", "PAIR{u2,u3}") == "TOP"

    def test_class_member_routes_through_its_representative(self):
        """u7·u8 lands in the class of {u2,u3}, and the class still reaches the top."""
        s = build_semiring(sample_pendant()).exported
        pair = s.mul_label("a·u7", "a·u8")
        assert pair == "PAIR{u2,u3}"
        assert s.mul_label(pair, "a·u1") == "TOP"

    def test_pair_times_pair_is_zero(self):
        s = build_semiring(family("beam", 1)).exported
        pairs = [label for label in s.elements if label.startswith("PAIR{")]
        assert len(pairs) == 6
        assert all(s.mul_label(x, y) == "0" for x in pairs for y in pairs)


class TestBuildSemiring:
    def test_inadmissible_input_rejected(self):
        h = build_hypergraph(["a", "b", "c", "d"], [("a", "b", "c"), ("a", "b", "d")])
        with pytest.raises(ValueError, match="not admissible"):
            build_semiring(h)

    @pytest.mark.parametrize(
        "name",
        ["n_cycle:3"]
        + [f"{kind}:{i}" for kind in ("beam", "fan", "nested") for i in (1, 2, 3)]
        + ["nonuniform", "pendant", "single-edge"],
    )
    def test_semigroup_is_the_normal_form_product_table(self, name):
        """The table filled from the edges equals all n^2 products of the reference."""
        samples = {"nonuniform": sample_nonuniform, "pendant": sample_pendant, "single-edge": single_edge}
        if name in samples:
            h = samples[name]()
        else:
            kind, i = name.split(":")
            h = family(kind, int(i))
        built = build_semiring(h).exported
        kinds = reference_kinds(h)
        assert sorted(built.elements) == sorted(kinds)
        want = tuple(
            tuple(built.index(reference_product(h, kinds, x, y)) for y in built.elements)
            for x in built.elements
        )
        assert built.mul == want

    def test_beam_100_builds_and_certifies(self):
        """A 608-element carrier: the table scans read only its non-zero products."""
        s = build_semiring(family("beam", 100)).exported
        assert s.size == 608
        assert verify_axioms(s).all_pass
        assert subdirect_irreducibility_certificate(s).granted

    def test_relabelling_gives_isomorphic_semiring(self):
        h = family("nested", 2)
        names = {v: f"w{len(h.vertices) - i}" for i, v in enumerate(h.vertices)}
        relabelled = build_hypergraph(
            [names[v] for v in h.vertices],
            [tuple(names[v] for v in sorted(e)) for e in h.edges],
        )
        s1 = build_semiring(h).exported
        s2 = build_semiring(relabelled).exported
        assert find_semiring_isomorphism(s1, s2) is not None

    def test_element_order_is_zero_gens_pairs_top(self, triangle_semiring):
        labels = triangle_semiring.elements
        assert labels[0] == "0"
        assert labels[-1] == "TOP"
        assert all(lbl.startswith("a·") for lbl in labels[1:7])
        assert all(lbl.startswith("PAIR{") for lbl in labels[7:13])

    def test_single_2_edge_is_degenerate(self):
        h = build_hypergraph(["a", "b"], [("a", "b")])
        s = build_semiring(h)
        assert s.degenerate_no_top_triple
        assert s.exported.mul_label("a·a", "a·b") == "TOP"

    def test_3_edge_not_degenerate(self):
        assert not build_semiring(family("beam", 1)).degenerate_no_top_triple
