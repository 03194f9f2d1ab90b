import itertools
import logging

import pytest

from flathg.coloring import (
    COLORS,
    enumerate_strong_colorings,
    extends,
    is_2_robust,
)
from flathg.hypergraph import build_hypergraph, family


@pytest.fixture(scope="module")
def triangle():
    return family("beam", 1)


@pytest.fixture(scope="module")
def four_cycle():
    return family("n_cycle", 4)


class TestEnumeration:
    def test_triangle_has_six_colorings(self, triangle):
        assert len(enumerate_strong_colorings(triangle)) == 6

    def test_four_cycle_has_eighteen(self, four_cycle):
        assert len(enumerate_strong_colorings(four_cycle)) == 18

    def test_triangle_contains_the_symmetric_coloring(self, triangle):
        target = {"u1": 1, "u4": 1, "u2": 2, "u5": 2, "u3": 0, "u6": 0}
        assert target in enumerate_strong_colorings(triangle)

    def test_four_cycle_contains_the_alternating_coloring(self, four_cycle):
        target = {
            "u1": 0, "u5": 0,
            "u2": 1, "u4": 1, "u6": 1, "u8": 1,
            "u3": 2, "u7": 2,
        }
        assert target in enumerate_strong_colorings(four_cycle)

    def test_every_coloring_is_rainbow_on_every_edge(self, four_cycle):
        for col in enumerate_strong_colorings(four_cycle):
            for edge in four_cycle.edges:
                assert len({col[v] for v in edge}) == len(edge)

    def test_count_divisible_by_six(self, triangle, four_cycle):
        # permuting the three colors acts freely on the solution set
        for h in (triangle, family("n_cycle", 5), four_cycle):
            assert len(enumerate_strong_colorings(h)) % 6 == 0

    def test_color_permutation_closure(self, triangle):
        cols = enumerate_strong_colorings(triangle)
        for perm in itertools.permutations(COLORS):
            for col in cols:
                assert {v: perm[c] for v, c in col.items()} in cols

    def test_order_is_deterministic(self, four_cycle):
        first = enumerate_strong_colorings(four_cycle)
        assert first == enumerate_strong_colorings(four_cycle)

    def test_cap_exceeded(self, four_cycle):
        with pytest.raises(ValueError, match="more than 3 strong colorings"):
            enumerate_strong_colorings(four_cycle, cap=3)

    def test_cap_large_enough_is_quiet(self, triangle):
        assert len(enumerate_strong_colorings(triangle, cap=6)) == 6


class TestExtends:
    def test_empty_assignment_always_extends(self, triangle):
        assert extends(triangle, {})

    def test_blocked_pair_on_triangle(self, triangle):
        assert not extends(triangle, {"u1": 0, "u4": 1})

    def test_same_pair_fine_on_four_cycle(self, four_cycle):
        assert extends(four_cycle, {"u1": 0, "u4": 1})

    def test_agrees_with_enumeration_filter(self, triangle):
        cols = enumerate_strong_colorings(triangle)
        covered = {frozenset(e) for edge in triangle.edges
                   for e in itertools.combinations(edge, 2)}
        for u, v in itertools.combinations(sorted(triangle.vertices), 2):
            for cu, cv in itertools.product(COLORS, repeat=2):
                if cu == cv and frozenset((u, v)) in covered:
                    continue  # invalid partial, rejected rather than unextendable
                expected = any(c[u] == cu and c[v] == cv for c in cols)
                assert extends(triangle, {u: cu, v: cv}) == expected

    def test_unknown_vertex_rejected(self, triangle):
        with pytest.raises(ValueError, match="zz"):
            extends(triangle, {"zz": 0})

    def test_bad_color_rejected(self, triangle):
        with pytest.raises(ValueError, match="color"):
            extends(triangle, {"u1": 5})

    @pytest.mark.parametrize("color", [True, False])
    def test_bool_color_rejected(self, triangle, color):
        # True == 1 and False == 0, but a bool is not a color
        with pytest.raises(ValueError, match="is not one of 0, 1, 2"):
            extends(triangle, {"u1": color})

    def test_subhyperedge_clash_rejected(self, triangle):
        with pytest.raises(ValueError, match="subhyperedge but both are colored"):
            extends(triangle, {"u1": 0, "u2": 0})


class TestRobustness:
    def test_triangle_fails_at_the_antipodal_pair(self, triangle):
        report = is_2_robust(triangle)
        assert not report.robust
        assert report.failure.pair == ("u1", "u4")
        assert report.failure.assignment == (0, 1)
        assert report.failure.marker == "exhaustive-search-no-extension"

    @pytest.mark.parametrize("n", range(4, 9))
    def test_longer_cycles_are_robust(self, n):
        assert is_2_robust(family("n_cycle", n)).robust

    def test_robust_report_has_no_failure(self, four_cycle):
        assert is_2_robust(four_cycle).failure is None

    def test_hyperforest_is_robust(self):
        h = build_hypergraph(
            ["a", "b", "c", "d", "e", "f", "g"],
            [("a", "b", "c"), ("c", "d", "e"), ("e", "f", "g")],
        )
        assert is_2_robust(h).robust

    def test_non_uniform_input_warns(self, caplog):
        h = build_hypergraph(
            ["a", "b", "c", "d", "e"],
            [("a", "b", "c"), ("d", "e")],
        )
        with caplog.at_level(logging.WARNING, logger="flathg.coloring"):
            is_2_robust(h)
        assert any("uniform" in rec.message for rec in caplog.records)
