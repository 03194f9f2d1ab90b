import inspect
import io
import itertools
import random
import re
import sys
import time
import tokenize
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flathg import terms
from flathg.hg_semiring import build_semiring
from flathg.hypergraph import family
from flathg.semiring import (
    FiniteSemiring,
    flat_completion,
    is_flat,
    multiplicative_zero,
    verify_axioms,
)
from flathg.suite import random_hyperforest
from flathg.terms import (
    IdentitySyntaxError,
    Product,
    Sum,
    Variable,
    builtin_identity,
    check_identity_bruteforce,
    check_identity_flat,
    eval_term,
    make_identity,
    nested_identity,
    parse_identity,
    parse_identity_file,
)
from flathg.words import build_sc, builtin_s7
from test_constructions import _brandt

# x + x = 0 and every product 0: absorbing zero, additive top, but no
# idempotent addition, so not a semiring the flat checker may decide.
DOUBLING = FiniteSemiring(("0", "x"), ((0, 0), (0, 0)), ((0, 0), (0, 0)), zero=0)

# Flat addition, but a·a = 0 while a·b = b·a = b·b = b: multiplication is
# not associative and neither distributive law holds.
NON_ASSOCIATIVE = FiniteSemiring(
    ("0", "a", "b"), ((0, 0, 0), (0, 1, 0), (0, 0, 2)), ((0, 0, 0), (0, 0, 2), (0, 2, 2)), zero=0
)

# The two-element Boolean semiring: 1 + 1 = 1, not flat.
BOOLEAN = FiniteSemiring(("0", "x"), ((0, 1), (1, 1)), ((0, 0), (0, 1)), zero=0)

# The cyclic group of order 3 with a zero adjoined: flat and commutative, and
# no power of a non-zero element vanishes, so a repeated factor prunes nothing.
CYCLIC_GROUP = flat_completion(
    ("0", "e", "g", "g2"),
    tuple(tuple(0 if 0 in (i, j) else 1 + (i + j - 2) % 3 for j in range(4)) for i in range(4)),
    0,
)


def _chain(n):
    """The chain lattice 0 < 1 < ... < n-1: add is max, mul is min."""
    order = range(n)
    return FiniteSemiring(
        tuple(map(str, order)),
        tuple(tuple(max(i, j) for j in order) for i in order),
        tuple(tuple(min(i, j) for j in order) for i in order),
        zero=0,
    )


# Carriers on both sides of each bound of terms._VECTOR_SIZES: the Boolean
# semiring below it, the 3-element tables at it, the 256-element chain at its
# top and the 257-element one past it, where a byte cannot hold an element.
CARRIERS = {
    "boolean": BOOLEAN,
    "non-associative": NON_ASSOCIATIVE,
    "chain(256)": _chain(256),
    "chain(257)": _chain(257),
}


class TestParsing:
    def test_product_binds_tighter_than_sum(self):
        ident = parse_identity("x1 + x2*x3 = x1")
        assert isinstance(ident.lhs, Sum)
        assert isinstance(ident.lhs.terms[1], Product)

    def test_parentheses_regroup(self):
        ident = parse_identity("(x1 + x2)*x3 = x1")
        assert isinstance(ident.lhs, Product)

    def test_variables_in_first_occurrence_order(self):
        ident = parse_identity("x3*x1 + x2 = x2")
        assert ident.variables == ("x3", "x1", "x2")

    def test_20000_variables_in_first_occurrence_order(self):
        """10,000 binomials; the rhs repeats a variable, which adds none."""
        binomials = "*".join(f"(x{i}+y{i})" for i in range(10_000))
        ident = parse_identity(f"{binomials} = y9999")
        assert ident.variables == tuple(v for i in range(10_000) for v in (f"x{i}", f"y{i}"))

    def test_length_budget(self):
        """Text of MAX_IDENTITY_CHARS characters parses; one more is refused
        before it is tokenized."""
        most = terms.MAX_IDENTITY_CHARS
        longest = "x=" + "y" * (most - 2)
        assert parse_identity(longest).variables == ("x", "y" * (most - 2))
        message = rf"^identity longer than {most} characters \(at position {most}\)$"
        with pytest.raises(IdentitySyntaxError, match=message):
            parse_identity(longest + "y")

    def test_missing_operand_reports_position(self):
        with pytest.raises(IdentitySyntaxError, match="position 5"):
            parse_identity("x1 + = x2")

    def test_stray_character_rejected(self):
        with pytest.raises(IdentitySyntaxError, match="unexpected character"):
            parse_identity("x1 ^ x2 = x1")

    @pytest.mark.parametrize("letter", ["é", "ﬁ", "ª"])
    def test_a_variable_starts_with_an_ascii_letter(self, letter):
        """Lower-case letters outside a-z do not start a variable."""
        with pytest.raises(IdentitySyntaxError, match=rf"^unexpected character {letter!r} \(at position 0\)$"):
            parse_identity(f"{letter}*x = x*{letter}")

    def test_two_equals_rejected(self):
        with pytest.raises(IdentitySyntaxError):
            parse_identity("x1 = x2 = x3")

    def test_missing_equals_rejected(self):
        with pytest.raises(IdentitySyntaxError):
            parse_identity("x1 + x2")

    def test_file_parsing_skips_blanks_and_comments(self):
        text = "# leading note\n\nx1*x2 = x2*x1\n  # another\nx1 = x1\n"
        idents = parse_identity_file(text)
        assert len(idents) == 2

    def test_singleton_sum_unwrapped(self):
        ident = parse_identity("(x1) = x1")
        assert isinstance(ident.lhs, Variable)

    def test_brackets_in_a_product_are_kept(self):
        """Identities are read as written: each grouping of x*y*z is its own
        tree, and the unbracketed product is one node folded left to right."""
        x, y, z = map(Variable, "xyz")
        ident = parse_identity("x*(y*z) = (x*y)*z")
        assert ident.lhs == Product((x, Product((y, z))))
        assert ident.rhs == Product((Product((x, y)), z))
        assert parse_identity("x*y*z = x").lhs == Product((x, y, z))

    @pytest.mark.parametrize("opening", ("(", "(x+", "(x*y+"))
    def test_nesting_limit(self, sc_abc, opening):
        """The deepest text the parser takes still checks; one more bracket
        is refused at its position, not by the interpreter's recursion limit."""
        depth = terms.MAX_NESTING
        ident = parse_identity(opening * depth + "x" + ")" * depth + "=x")
        verdict = check_identity_bruteforce(sc_abc, ident).holds
        assert verdict == check_identity_flat(sc_abc, ident).holds == (opening != "(x*y+")
        position = len(opening) * depth
        message = rf"^brackets nested deeper than {depth} levels \(at position {position}\)$"
        with pytest.raises(IdentitySyntaxError, match=message):
            parse_identity(opening * (depth + 1) + "x" + ")" * (depth + 1) + "=x")


class TestRegistry:
    def test_eq41_is_the_first_nested_identity(self):
        assert builtin_identity("eq4.1") == nested_identity(1)

    def test_nested_key_form(self):
        assert builtin_identity("nested:4") == nested_identity(4)

    def test_eq44_shape(self):
        ident = builtin_identity("eq4.4")
        assert ident.variables == ("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4")

    def test_unknown_key(self):
        with pytest.raises(KeyError, match="unknown identity"):
            builtin_identity("eq9.9")

    @pytest.mark.parametrize("key", ("nested:²", "nested:١", "nested:1١", "nested:", "nested:0"))
    def test_nested_index_is_ascii_digits(self, key):
        """str.isdigit is also true for '²', which int() refuses, and for the
        Arabic-Indic one, which int() reads as 1."""
        with pytest.raises(KeyError, match="unknown identity"):
            builtin_identity(key)

    @pytest.mark.parametrize(
        "index", ("513", "1000000000", "9" * 5000), ids=("513", "10^9", "5000-digits")
    )
    def test_nested_index_past_the_bound_is_refused_before_building(self, monkeypatch, index):
        def unreachable(i):
            raise AssertionError(f"nested_identity({i}) was built")

        monkeypatch.setattr(terms, "nested_identity", unreachable)
        message = r"index over MAX_NESTED_INDEX \(512\), the largest the flat checker accepts$"
        with pytest.raises(ValueError, match=message):
            builtin_identity(f"nested:{index}")

    @pytest.mark.parametrize(
        "text, index",
        [("0", 0), ("7", 7), ("0512", 512), ("513", 513), ("514", 513)]
        + [pytest.param("9" * 5000, 513, id="5000-nines"), pytest.param("0" * 5000 + "1", 1, id="5000-zeros-1")]
        + [(text, None) for text in ("", "١", "1١", "²", "1_0", " 1", "1 ", "+1", "-1", "1.0")],
    )
    def test_ascii_index(self, text, index):
        """ASCII digits alone; past the bound, the bound plus one."""
        assert terms.ascii_index(text, 512) == index

    def test_the_nested_bound_is_the_flat_checkers_cap(self):
        assert terms.MAX_NESTED_INDEX == 512
        assert terms._monomial_count(nested_identity(512).rhs) == terms.MAX_MONOMIALS
        assert terms._monomial_count(nested_identity(513).rhs) > terms.MAX_MONOMIALS
        assert builtin_identity("nested:0512") == nested_identity(512)

    def test_nested_identity_variable_count(self):
        for i in (1, 2, 3):
            assert len(nested_identity(i).variables) == 3 * i + 3

    @pytest.mark.parametrize("i", (1, 2, 3, 4))
    def test_nested_identity_is_its_text_parsed(self, i):
        """Three triple products and a product of three binomials per level."""
        monomials, binomials = [], []
        for j in range(1, i + 1):
            a, b, c = 3 * j - 2, 3 * j - 1, 3 * j
            monomials += [f"x{b}*x{c + 3}*x{a}", f"x{a}*x{c + 2}*x{c}", f"x{c}*x{c + 1}*x{b}"]
            binomials.append(f"(x{b} + x{c + 2})*(x{a} + x{c + 1})*(x{c} + x{c + 3})")
        assert nested_identity(i) == parse_identity(" + ".join(monomials) + " = " + " + ".join(binomials))

    def test_nested_identity_needs_positive_index(self):
        with pytest.raises(ValueError):
            nested_identity(0)


class TestEvaluation:
    def test_eval_product(self, sc_abc):
        ident = parse_identity("x1*x2 = x1")
        assert eval_term(ident.lhs, {"x1": "a", "x2": "b"}, sc_abc) == "ab"

    def test_eval_sum_of_distinct_hits_zero(self, sc_abc):
        ident = parse_identity("x1 + x2 = x1")
        assert eval_term(ident.lhs, {"x1": "a", "x2": "b"}, sc_abc) == "0"

    def test_unbound_variable(self, sc_abc):
        ident = parse_identity("x1*x2 = x1")
        with pytest.raises(ValueError, match="unbound"):
            eval_term(ident.lhs, {"x1": "a"}, sc_abc)


class TestBruteForce:
    def test_commutativity_holds(self, sc_abc):
        result = check_identity_bruteforce(sc_abc, parse_identity("x1*x2 = x2*x1"))
        assert result.holds
        assert result.explored == 64

    def test_counterexample_is_first_in_enumeration_order(self, s7):
        result = check_identity_bruteforce(s7, builtin_identity("eq4.4"))
        assert not result.holds
        assert result.counterexample == {
            "x1": "1", "x2": "1", "x3": "1", "x4": "1",
            "y1": "1", "y2": "1", "y3": "1", "y4": "a",
        }

    def test_budget_refusal_names_the_flat_checker(self, sc_abcd):
        with pytest.raises(ValueError, match="budget exceeded.*flat checker"):
            check_identity_bruteforce(sc_abcd, builtin_identity("eq4.4"), budget=10)

    def test_counterexample_separates(self, s7):
        ident = builtin_identity("eq4.4")
        result = check_identity_bruteforce(s7, ident)
        lhs = eval_term(ident.lhs, result.counterexample, s7)
        rhs = eval_term(ident.rhs, result.counterexample, s7)
        assert lhs != rhs


# Two tables with one operation that is not associative: in the first
# q·(p·q) = q but (q·p)·q = p, in the second q + (p + q) = q but
# (q + p) + q = p.
MUL_NOT_ASSOCIATIVE = FiniteSemiring(("p", "q"), ((0, 0), (0, 1)), ((0, 0), (1, 0)))
ADD_NOT_ASSOCIATIVE = FiniteSemiring(("p", "q"), ((0, 0), (1, 0)), ((0, 0), (0, 0)))


@pytest.mark.parametrize(
    "s, text, values, explored",
    [
        (MUL_NOT_ASSOCIATIVE, "x*(y*z) = (x*y)*z", "q p q", 6),
        (ADD_NOT_ASSOCIATIVE, "x + (y + z) = (x + y) + z", "q p q", 6),
        # Three elements, so the last variable is a byte vector.
        (NON_ASSOCIATIVE, "x*(y*z) = (x*y)*z", "a a b", 15),
        (MUL_NOT_ASSOCIATIVE, "x*y*z = (x*y)*z", None, 8),
        (ADD_NOT_ASSOCIATIVE, "x + y + z = (x + y) + z", None, 8),
        (NON_ASSOCIATIVE, "x*y*z = (x*y)*z", None, 27),
    ],
    ids=("mul", "add", "mul-vector", "mul-left-fold", "add-left-fold", "mul-vector-left-fold"),
)
def test_brute_force_decides_the_terms_as_written(s, text, values, explored):
    """Brackets group, and an unbracketed product or sum folds left to right."""
    result = check_identity_bruteforce(s, parse_identity(text))
    cex = None if values is None else dict(zip("xyz", values.split()))
    assert (result.counterexample, result.explored) == (cex, explored)


class TestFlatChecker:
    def test_requires_flat_semiring(self):
        from flathg.semiring import FiniteSemiring

        lattice = FiniteSemiring(("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)), zero=0)
        with pytest.raises(ValueError, match="flat checker requires"):
            check_identity_flat(lattice, parse_identity("x1 = x1"))

    def test_triangle_counterexample_is_the_generator_substitution(
        self, triangle_semiring
    ):
        result = check_identity_flat(triangle_semiring, builtin_identity("eq3.1"))
        assert not result.holds
        assert result.counterexample == {f"x{i}": f"a·u{i}" for i in range(1, 7)}

    def test_binomial_order_does_not_change_verdicts(self, nested_semirings):
        """The rhs binomials multiplied in reverse must give the same verdicts."""
        forward = nested_identity(1)
        assert isinstance(forward.rhs, Product)
        reversed_rhs = Product(tuple(reversed(forward.rhs.factors)))
        backward = make_identity(forward.lhs, reversed_rhs)
        for s in nested_semirings.values():
            assert (
                check_identity_flat(s, forward).holds
                == check_identity_flat(s, backward).holds
            )

    def test_holds_on_single_monomials(self, sc_abc):
        assert check_identity_flat(sc_abc, parse_identity("x1*x2 = x2*x1")).holds

    def test_non_idempotent_addition_is_refused(self):
        ident = parse_identity("x+x = y+y")
        assert not is_flat(DOUBLING)
        with pytest.raises(ValueError, match="flat checker requires"):
            check_identity_flat(DOUBLING, ident)
        assert check_identity_bruteforce(DOUBLING, ident).holds

    @pytest.mark.parametrize("k, size", ((13, "8192"), (50, r"at least 2\^50")))
    def test_monomial_cap_refuses_before_expanding(self, sc_abc, monkeypatch, k, size):
        """k binomials expand to 2^k monomials, past the cap of 4,096."""
        binomials = "*".join(f"(x{i}+y{i})" for i in range(k))
        monkeypatch.setattr(terms, "_monomials", None)
        message = rf"^identity side expands to {size} monomials, over the flat checker's cap of 4096$"
        with pytest.raises(ValueError, match=message):
            check_identity_flat(sc_abc, parse_identity(f"x0 = {binomials}"))

    @pytest.mark.parametrize(
        "text",
        ("x", "x*y*x", "x + y*z", "(x+y)*(x+y+z)*w", "((x+y)*z + w)*(x+y)", "*".join(["(x+y)"] * 12)),
        ids=("variable", "product", "sum", "binomials", "nested", "cap"),
    )
    def test_monomial_count_is_the_expansion_length(self, text):
        side = parse_identity(f"{text} = x").lhs
        assert terms._monomial_count(side) == len(terms._monomials(side))

    @pytest.mark.parametrize(
        "factors",
        (
            [Variable("x")] * 200_000,
            [Sum((Variable(f"x{i}"), Variable(f"y{i}"))) for i in range(12)] + [Variable("z")] * 1_000,
        ),
        ids=("variables", "binomials-first"),
    )
    def test_expansion_is_linear_in_its_output(self, factors):
        """Each monomial of a product is joined once. Extending every partial
        monomial factor by factor copies about k²/2 names for a monomial of k
        factors: 27 s for the second case, where the join takes 0.3 s."""
        side = Product(tuple(factors))
        start = time.monotonic()
        monomials = terms._monomials(side)
        assert time.monotonic() - start < 5.0
        assert len(monomials) == terms._monomial_count(side)
        assert {len(mono) for mono in monomials} == {len(factors)}


@pytest.fixture(scope="module")
def pinned_subjects(sc_abc, sc_abcd, s7, triangle_semiring, nested_semirings):
    return {
        "s7": s7,
        "sc_abc": sc_abc,
        "sc_abcd": sc_abcd,
        "triangle": triangle_semiring,
        **{f"nested({i})": s for i, s in nested_semirings.items()},
        "n_cycle(4)": build_semiring(family("n_cycle", 4)).exported,
        "n_cycle(12)": build_semiring(family("n_cycle", 12)).exported,
        "brandt": _brandt(),
        "cyclic-group": CYCLIC_GROUP,
        "sc_ab": build_sc(["ab"]),
        **CARRIERS,
    }


# The flat checker's exact output: verdict, the first counterexample's values
# in the identity's variable order, and `explored`. The search order decides
# all three, so a refactor of the search must leave every row unchanged. The
# Brandt semiring is not commutative, so its rows run the written-order path;
# the rows with a repeated factor on a commutative carrier fold it through the
# running partial products, where squares vanish on the hypergraph and subword
# tables but never on the cyclic group.
FLAT_PINS = [
    ("sc_abc", "eq3.1", "holds", None, 350),
    ("triangle", "eq3.1", "fails", "a·u1 a·u2 a·u3 a·u4 a·u5 a·u6", 819),
    ("nested(1)", "eq4.2", "holds", None, 2126),
    ("nested(1)", "eq4.3", "holds", None, 1784),
    ("nested(2)", "eq4.2", "fails", "a·u2 a·u4 a·u3 a·u5 a·u1 a·u6 a·u7 a·u8 a·u9", 5216),
    ("nested(2)", "eq4.3", "holds", None, 4826),
    ("nested(3)", "eq4.2", "fails", "a·u2 a·u4 a·u3 a·u5 a·u1 a·u6 a·u7 a·u8 a·u9", 11054),
    (
        "nested(3)", "eq4.3", "fails",
        "a·u2 a·u4 a·u3 a·u5 a·u1 a·u6 a·u7 a·u8 a·u9 a·u10 a·u11 a·u12", 5329,
    ),
    ("nested(2)", "eq4.4", "holds", None, 4142),
    ("sc_abcd", "eq4.4", "fails", "a b c d 0 0 0 0", 1758),
    ("n_cycle(4)", "nested:4", "holds", None, 2946),
    ("n_cycle(12)", "nested:12", "holds", None, 25346),
    ("brandt", "x*y = y*x", "fails", "e12 e21", 4),
    ("brandt", "x*x*y = y*x*x", "fails", "e11 e12", 7),
    ("brandt", "x*y*z = z*y*x", "fails", "e11 e12 e21", 5),
    ("brandt", "x*y*x = x*y*x*y*x", "holds", None, 40),
    ("brandt", "(x+y)*z*(x+y) = x*z*x + y*z*y", "holds", None, 168),
    ("sc_abc", "x*x*y = y*y*x", "holds", None, 0),
    ("triangle", "x*x*x = x", "fails", "a·u1", 1),
    ("n_cycle(4)", "x*x*y*z = x*y*y*z", "holds", None, 0),
    ("n_cycle(4)", "x*y*z = x*x*y*z", "fails", "a·u1 a·u2 a·u3", 915),
    ("cyclic-group", "x*x*y*z*z = z*x*y*x*z", "holds", None, 126),
    ("cyclic-group", "(x+y)*(x+y)*z = x*x*z + y*y*z", "holds", None, 90),
    ("cyclic-group", "x*x*y + y*y*x = x*y*(x+y)", "holds", None, 24),
    ("cyclic-group", "x*x*x*y + y*y*y*x = x*y", "fails", "g g", 7),
    ("cyclic-group", "x*x*y*z = x*y*y*z", "fails", "e g g2", 5),
]


@pytest.mark.parametrize("subject, key, verdict, values, explored", FLAT_PINS)
def test_flat_checker_output_is_pinned(pinned_subjects, subject, key, verdict, values, explored):
    ident = parse_identity(key) if "=" in key else builtin_identity(key)
    result = check_identity_flat(pinned_subjects[subject], ident)
    cex = None if values is None else list(zip(ident.variables, values.split()))
    assert (result.verdict, result.counterexample and list(result.counterexample.items()),
            result.explored) == (verdict, cex, explored)


# The brute-force checker's exact output, as FLAT_PINS. Lexicographic order
# decides the counterexample and `explored`; rows cover a non-flat carrier,
# full exhaustion, a counterexample near the end of the order, products that
# do not commute, a table that breaks the axioms and 30 variables, more than
# Python nests blocks.
BRUTE_PINS = [
    ("s7", "eq4.2", "holds", None, 19683),
    ("s7", "eq4.4", "fails", "1 1 1 1 1 1 1 a", 2),
    ("sc_abc", "eq3.1", "holds", None, 262144),
    ("triangle", "x5*x5*x5 + x5 + x1 = x2*x4 + x1*x3*x5 + x1*x1*x5", "holds", None, 537824),
    ("triangle", "x3 + x1*x4*x2 = x4*x3*x3*x1", "fails", "TOP a·u1 a·u2 a·u3", 35900),
    ("brandt", "x*x*y = x*y", "fails", "e12 e21", 14),
    ("non-associative", "x*x*y = y*x*x", "fails", "a b", 6),
    ("non-associative", "x3*x2 + x2*x1 + x1*x3*x1 = x1 + x2*x3", "fails", "b b a", 26),
    (
        "boolean",
        " + ".join(f"x{i}" for i in range(30)) + " = " + "*".join(f"x{i}" for i in range(30)),
        "fails", "0 " * 29 + "x", 2,
    ),
]


# More rows, from the same checker before the vector nest: lookups that read
# the last variable through both operands (x+y with y*x, the sum of x2*x3 and
# x3*x2), which keep the loop nest on a vector-sized carrier; identities of
# one variable, whose every lookup reads it twice, and x = x, the one that the
# vector nest checks with no loop at all; and both chains, the 256-element
# one at the top of the byte range and the 257-element one past it.
VECTOR_PINS = [
    ("brandt", "(x+y)*(y*x) = y*x", "fails", "e11 e21", 9),
    ("triangle", "x1*(x2*x3+x3*x2) = (x1*x3+x1*x2)*x3", "fails", "a·u1 a·u2 a·u3", 228),
    ("brandt", "x*x = x", "fails", "e12", 3),
    ("s7", "(x+x*x)*(x*x) = x*x", "holds", None, 3),
    ("s7", "x = x", "holds", None, 3),
    ("chain(256)", "x*(x+y) = x", "holds", None, 65536),
    ("chain(256)", "x + y = y", "fails", "1 0", 257),
    ("chain(257)", "x*(x+y) = x", "holds", None, 66049),
    ("chain(257)", "x + y = y", "fails", "1 0", 258),
]


@pytest.mark.parametrize("subject, key, verdict, values, explored", BRUTE_PINS + VECTOR_PINS)
def test_bruteforce_output_is_pinned(pinned_subjects, subject, key, verdict, values, explored):
    ident = parse_identity(key) if "=" in key else builtin_identity(key)
    result = check_identity_bruteforce(pinned_subjects[subject], ident, budget=2**31)
    cex = None if values is None else list(zip(ident.variables, values.split()))
    assert (result.verdict, result.counterexample and list(result.counterexample.items()),
            result.explored) == (verdict, cex, explored)


def test_a_counterexample_where_both_sides_agree_is_an_internal_error(s7):
    ident = parse_identity("x1 = x1*x1")
    values = {"x1": s7.index("1")}
    with pytest.raises(RuntimeError, match="both sides agree"):
        terms._failure(ident, values, s7, explored=1)


def _reference_bruteforce(s, ident):
    """The brute-force checker written with the tree walker only."""
    explored = 0
    for values in itertools.product(range(s.size), repeat=len(ident.variables)):
        explored += 1
        env = dict(zip(ident.variables, values))
        if terms._value(ident.lhs, env, s) != terms._value(ident.rhs, env, s):
            witness = {v: s.elements[env[v]] for v in ident.variables}
            return "fails", witness, explored
    return "holds", None, explored


def term_trees(names):
    """Unflattened terms over the given variable names."""
    return st.recursive(
        st.sampled_from(names).map(Variable),
        lambda kids: st.one_of(
            st.lists(kids, min_size=2, max_size=3).map(lambda ts: Product(tuple(ts))),
            st.lists(kids, min_size=2, max_size=3).map(lambda ts: Sum(tuple(ts))),
        ),
        max_leaves=8,
    )


word_sets = st.lists(st.text("abc", min_size=1, max_size=3), min_size=1, max_size=2)


@st.composite
def bruteforce_sides(draw, names):
    """A term tree, a product of bracketed binomials, or a side that repeats
    a subterm, which the loop nest computes once."""
    tree = term_trees(names)
    binomial = st.lists(st.sampled_from(names), min_size=2, max_size=2).map(
        lambda pair: Sum(tuple(map(Variable, pair)))
    )
    return draw(
        st.one_of(
            tree,
            st.lists(binomial, min_size=1, max_size=3).map(lambda bs: Product(tuple(bs))),
            tree.map(lambda t: Product((t, t))),
            st.tuples(tree, tree).map(lambda p: Sum((Product(p), p[1], Product(p)))),
        )
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compiled_bruteforce_agrees_with_the_tree_walker(pinned_subjects, data):
    named = st.sampled_from(["s7", "triangle", "brandt", "sc_ab", *CARRIERS])
    s = data.draw(st.one_of(word_sets.map(build_sc), named.map(pinned_subjects.__getitem__)))
    # One to five variables, at most 4,096 assignments for the tree walker,
    # or two variables on the chains.
    most = max(k for k in range(1, 6) if k <= 2 or s.size**k <= 4096)
    names = [f"x{i}" for i in range(1, data.draw(st.integers(1, most)) + 1)]
    ident = make_identity(data.draw(bruteforce_sides(names)), data.draw(bruteforce_sides(names)))
    result = check_identity_bruteforce(s, ident)
    assert (result.verdict, result.counterexample, result.explored) == _reference_bruteforce(
        s, ident
    )


class _OneEach:
    """Loop ranges for a compiled loop nest: the I-th loop entered runs over
    values[I] alone. Valid while every variable has its own loop."""

    def __init__(self, values):
        self._values = iter(values)

    def __iter__(self):
        return iter((next(self._values),))


def _nest_values(side, names, values, s, vector):
    """The values y at which the loop nest of `side = y` finds the sides
    equal, with the side's variables bound to `values`: [side's value].
    The vector nest takes y first, so that the side's last variable is its
    vector, of the one value that variable is bound to; None when the side
    has no vector nest."""
    fresh = "".join(names) + "y"
    order = (fresh, *names) if vector else (*names, fresh)
    source = terms._nest_source(terms.Identity(side, Variable(fresh), order), vector)
    if source is None:
        return None
    nest = terms._compile_nest(source)
    args = (s.add, s.mul, itertools.product)
    if vector:
        *tables, _ = s.byte_tables
        constants = [bytes((c,)) for c in range(s.size)]
        args += (bytes(values[-1:]), constants, *tables, terms._first_difference)
    loops = (lambda y: (y, *values[:-1])) if vector else (lambda y: (*values, y))
    return [y for y in range(s.size) if nest(_OneEach(loops(y)), *args) is None]


@pytest.mark.parametrize("kind", [Sum, Product])
def test_300_operand_side_compiles_and_agrees(s7, kind):
    big = make_identity(kind(tuple(Variable(f"x{k % 4 + 1}") for k in range(300))), Variable("x1"))
    for values in itertools.product(range(s7.size), repeat=len(big.variables)):
        env = dict(zip(big.variables, values))
        assert _nest_values(big.lhs, big.variables, values, s7, False) == [
            terms._value(big.lhs, env, s7)
        ]
    # x4 is read 75 times, so the fold looks up two vectors: no vector nest.
    assert _nest_values(big.lhs, big.variables, values, s7, True) is None
    # With x4 read once, last, the other 299 operands fold into one scalar.
    parts = [Variable(f"x{k % 3 + 1}") for k in range(299)] + [Variable("x4")]
    once = make_identity(kind(tuple(parts)), Variable("x1"))
    for values in itertools.product(range(s7.size), repeat=len(once.variables)):
        env = dict(zip(once.variables, values))
        assert _nest_values(once.lhs, once.variables, values, s7, True) == [
            terms._value(once.lhs, env, s7)
        ]
    assert check_identity_bruteforce(s7, make_identity(big.lhs, big.lhs)).holds


def test_the_vector_nest_gathers_one_vector_per_lookup():
    # x*y*x = x with y last: each lookup has one operand that reads y.
    assert terms._nest_source(parse_identity("x*y*x = x"), True) is not None
    # The second lookup of x*y*y reads y through both operands.
    assert terms._nest_source(parse_identity("x*y*y = x"), True) is None
    assert terms._nest_source(parse_identity("x*y + x*y*y = y"), True) is None


def test_byte_tables_are_the_rows_and_columns():
    s = _brandt()
    add_rows, add_columns, mul_rows, mul_columns, constants = s.byte_tables
    for rows, columns, table in ((add_rows, add_columns, s.add), (mul_rows, mul_columns, s.mul)):
        assert len(rows) == len(columns) == s.size
        for x, y in itertools.product(range(s.size), repeat=2):
            assert rows[x][y] == columns[y][x] == table[x][y]
        assert {len(t) for t in rows + columns} == {256}
    assert constants == [bytes([c] * s.size) for c in range(s.size)]


def test_1000_variables_fuse_into_the_loop_limit():
    one = FiniteSemiring(("0",), ((0,),), ((0,),), zero=0)
    xs = tuple(Variable(f"x{i}") for i in range(1000))
    ident = make_identity(Sum(xs), Product(xs[::-1]))
    for vector in (False, True):
        loops = re.findall(r"^ *for ", terms._nest_source(ident, vector), re.MULTILINE)
        assert len(loops) == terms._MAX_LOOPS
    result = check_identity_bruteforce(one, ident)
    assert (result.verdict, result.counterexample, result.explored) == ("holds", None, 1)


_SOURCE_NAMES = {"def", "side", "A", "M", "return", "for", "in", "if", "R", "product", "repeat"}
# The vector nest's own names and the gather method.
_VECTOR_NAMES = {"V", "F", "AR", "AC", "MR", "MC", "D", "translate"}
_SOURCE_LAYOUT = {
    tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


@st.composite
def hostile_terms(draw):
    names = draw(st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=4))
    names += ["__import__('os')", "a", "A", "M", "t0", "return 1"]
    return draw(term_trees(names))


@settings(max_examples=100, deadline=None)
@given(hostile_terms())
def test_generated_source_names_only_slots_tables_and_temporaries(term):
    names: dict[str, None] = {}
    terms._walk_variables(term, names)
    names = list(names)
    # Against one fresh variable every variable has its own loop; against a
    # sum of _MAX_LOOPS + 1 fresh ones the outermost loops are fused, also in
    # the vector nest, which has no loop for the last one.
    fresh = ["".join(names) + "y" * i for i in range(1, terms._MAX_LOOPS + 2)]
    for others, vector in itertools.product((fresh[:1], fresh), (False, True)):
        other = Sum(tuple(map(Variable, others))) if len(others) > 1 else Variable(others[0])
        # The vector nest's last variable is a fresh one, read once.
        source = terms._nest_source(terms.Identity(term, other, (*names, *others)), vector)
        names_allowed, operators = _SOURCE_NAMES, {"(", ")", "[", "]", ",", ":", "=", "!="}
        if vector:
            names_allowed, operators = names_allowed | _VECTOR_NAMES, operators | {"."}
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                assert tok.string in names_allowed or re.fullmatch(r"[at]\d+", tok.string)
            elif tok.type == tokenize.NUMBER:
                assert tok.string.isdigit()
            elif tok.type == tokenize.OP:
                assert tok.string in operators
            else:
                assert tok.type in _SOURCE_LAYOUT
    s = builtin_s7()
    values = tuple(i % s.size for i in range(len(names)))
    want = [terms._value(term, dict(zip(names, values)), s)]
    assert _nest_values(term, names, values, s, False) == want
    assert _nest_values(term, names, values, s, True) in (want, None)


@st.composite
def small_identities(draw, nvars=4):
    def side():
        monomials = []
        for _ in range(draw(st.integers(1, 3))):
            size = draw(st.integers(1, 3))
            monomials.append(
                "*".join(f"x{draw(st.integers(1, nvars))}" for _ in range(size))
            )
        return " + ".join(monomials)

    return parse_identity(f"{side()} = {side()}")


@settings(max_examples=80, deadline=None)
@given(small_identities(), st.sampled_from(["ab", "abc", "aab"]))
def test_flat_checker_agrees_with_brute_force(ident, word):
    s = build_sc([word])
    fast = check_identity_flat(s, ident)
    slow = check_identity_bruteforce(s, ident)
    assert fast.holds == slow.holds
    for result in (fast, slow):
        if result.counterexample is not None:
            lhs = eval_term(ident.lhs, result.counterexample, s)
            rhs = eval_term(ident.rhs, result.counterexample, s)
            assert lhs != rhs


def _hyperforest_semiring(seed):
    return build_semiring(random_hyperforest(random.Random(seed), max_edges=3)).exported


flat_semirings = st.one_of(
    word_sets.map(build_sc), st.integers(0, 2**16).map(_hyperforest_semiring)
)


@settings(max_examples=60, deadline=None)
@given(small_identities(nvars=3), flat_semirings)
def test_flat_checker_agrees_with_brute_force_on_generated_flat_semirings(ident, s):
    assert verify_axioms(s).all_pass and is_flat(s)
    fast = check_identity_flat(s, ident)
    slow = check_identity_bruteforce(s, ident)
    assert fast.holds == slow.holds


class _PerTargetSideSearch:
    """The flat checker's side search with no shared prefix: every target
    walks from slot 0. The reference for the differential below."""

    def __init__(self, s, side_monomials, all_variables):
        self.s, self.zero = s, multiplicative_zero(s)
        self.commutative = all(
            s.mul[i][j] == s.mul[j][i] for i in range(s.size) for j in range(i)
        )
        counts = Counter(itertools.chain.from_iterable(side_monomials))
        side_vars = sorted(counts, key=lambda v: (-counts[v], all_variables.index(v)))
        self.order = side_vars + [v for v in all_variables if v not in counts]
        slot = {v: i for i, v in enumerate(self.order)}
        self.monomials = [tuple(slot[v] for v in mono) for mono in side_monomials]
        self.touches = [[] for _ in side_vars]
        for m, mono in enumerate(self.monomials):
            for i, mult in Counter(mono).items():
                self.touches[i].append((m, mult, i == max(mono)))
        self.nonzero = [v for v in range(s.size) if v != self.zero]
        self.explored = 0

    def search(self, target):
        partial = [None] * len(self.monomials)
        yield from self._assign(0, target, [0] * len(self.order), partial)

    def _assign(self, slot, target, assignment, partial):
        if slot == len(self.order):
            yield dict(zip(self.order, assignment))
            return
        mul = self.s.mul
        touches = self.touches[slot] if slot < len(self.touches) else ()
        values = range(self.s.size) if slot >= len(self.touches) else self.nonzero
        if self.commutative:
            for m, _, _ in touches:
                if partial[m] is not None:
                    values = [v for v in values if mul[partial[m]][v] != self.zero]
        saved = [(m, partial[m]) for m, _, _ in touches]
        for value in values:
            assignment[slot] = value
            for m, mult, completes in touches:
                if self.commutative:
                    prod = partial[m]
                    for _ in range(mult):
                        prod = value if prod is None else mul[prod][value]
                    partial[m] = prod
                    if (prod != target) if completes else (prod == self.zero):
                        break
                elif completes:
                    mono = self.monomials[m]
                    prod = assignment[mono[0]]
                    for i in mono[1:]:
                        prod = mul[prod][assignment[i]]
                    if prod != target:
                        break
            else:
                self.explored += 1
                yield from self._assign(slot + 1, target, assignment, partial)
            for m, p in saved:
                partial[m] = p


def _per_target_check(s, ident):
    """check_identity_flat's verdict, first counterexample and `explored`,
    searched target by target from slot 0."""
    explored = 0
    for side, other in ((ident.lhs, ident.rhs), (ident.rhs, ident.lhs)):
        search = _PerTargetSideSearch(s, terms._monomials(side), ident.variables)
        for target in search.nonzero:
            for values in search.search(target):
                if terms._value(other, values, s) != target:
                    witness = {v: s.elements[values[v]] for v in ident.variables}
                    return "fails", list(witness.items()), explored + search.explored
        explored += search.explored
    return "holds", None, explored


@pytest.fixture(scope="module")
def differential_carriers(sc_abc, sc_abcd, triangle_semiring):
    return {
        "sc_abc": sc_abc,
        "sc_abcd": sc_abcd,
        "beam(1)": triangle_semiring,
        "n_cycle(3)": build_semiring(family("n_cycle", 3)).exported,
        "brandt": _brandt(),
    }


@st.composite
def differential_sides(draw, names):
    """A bare variable or its square (complete at slot 0), or a term tree
    with bracketed products of sums."""
    v = Variable(draw(st.sampled_from(names)))
    return draw(st.one_of(st.just(v), st.just(Product((v, v))), term_trees(names)))


@st.composite
def differential_identities(draw):
    names = [f"x{i}" for i in range(1, draw(st.integers(1, 5)) + 1)]
    return make_identity(draw(differential_sides(names)), draw(differential_sides(names)))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["sc_abc", "sc_abcd", "beam(1)", "n_cycle(3)", "brandt"]),
    differential_identities(),
)
def test_shared_prefix_matches_the_per_target_search(differential_carriers, carrier, ident):
    s = differential_carriers[carrier]
    result = check_identity_flat(s, ident)
    cex = result.counterexample and list(result.counterexample.items())
    assert (result.verdict, cex, result.explored) == _per_target_check(s, ident)


@st.composite
def regrouped(draw, node):
    """`node` with one more level of nesting drawn into each sum and
    product: a run of its operands, possibly one operand or all of them,
    becomes a sum or product of its own."""
    if isinstance(node, Variable):
        return node
    kind, parts = (Sum, node.terms) if isinstance(node, Sum) else (Product, node.factors)
    parts = [draw(regrouped(t)) for t in parts]
    i, j = sorted(draw(st.lists(st.integers(0, len(parts)), min_size=2, max_size=2)))
    if i < j:
        parts[i:j] = [kind(tuple(parts[i:j]))]
    return kind(tuple(parts))


@st.composite
def written_sides(draw, names, depth=2):
    """Text of a side with no redundant brackets: a sum of products whose
    factors are variables or, in a product of two or more, bracketed sums."""

    def factor():
        if depth and draw(st.booleans()):
            return f"({draw(written_sides(names, depth - 1))} + {draw(st.sampled_from(names))})"
        return draw(st.sampled_from(names))

    def product():
        if draw(st.booleans()):
            return draw(st.sampled_from(names))
        return "*".join(factor() for _ in range(draw(st.integers(2, 3))))

    return " + ".join(product() for _ in range(draw(st.integers(1, 3))))


# Carriers whose addition and multiplication are both associative, so any
# bracketing of a sum or a product has one value.
ASSOCIATIVE_CARRIERS = [
    "sc_abc", "sc_abcd", "triangle", "s7", "brandt", "boolean", "chain(256)", "chain(257)",
]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ASSOCIATIVE_CARRIERS), st.data())
def test_regrouping_does_not_change_brute_force_on_associative_tables(pinned_subjects, carrier, data):
    """Brackets drawn into an identity's sums and products give the verdict,
    counterexample and `explored` of the identity as typed without them."""
    s = pinned_subjects[carrier]
    most = max(k for k in range(1, 6) if k <= 2 or s.size**k <= 4096)
    names = [f"x{i}" for i in range(1, data.draw(st.integers(1, most)) + 1)]
    ident = parse_identity(f"{data.draw(written_sides(names))} = {data.draw(written_sides(names))}")
    lhs, rhs = data.draw(regrouped(ident.lhs)), data.draw(regrouped(ident.rhs))
    got, want = (
        (r.verdict, r.counterexample, r.explored)
        for r in (check_identity_bruteforce(s, i) for i in (make_identity(lhs, rhs), ident))
    )
    assert got == want


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["sc_abc", "sc_abcd", "beam(1)", "n_cycle(3)", "brandt"]),
    st.data(),
)
def test_hand_built_identities_check_as_their_normal_form(differential_carriers, carrier, data):
    """An Identity built by hand, with nested sums and products and its
    variables scrambled or missing, checks as make_identity's normal form."""
    s = differential_carriers[carrier]
    ident = data.draw(differential_identities())
    lhs, rhs = data.draw(regrouped(ident.lhs)), data.draw(regrouped(ident.rhs))
    variables = data.draw(st.one_of(st.just(()), st.permutations(ident.variables)))
    got, want = (
        (r.verdict, r.counterexample and list(r.counterexample.items()), r.explored)
        for r in (check_identity_flat(s, i) for i in (terms.Identity(lhs, rhs, variables), ident))
    )
    assert got == want


@pytest.mark.parametrize(
    "level, verdict, explored, calls", [(3, "holds", 9416, 0), (4, "fails", 8818, 2)]
)
def test_hits_are_checked_without_the_tree_walker(monkeypatch, level, verdict, explored, calls):
    """nested:4 holds on nested(3) and fails on nested(4). A hit is checked
    by folding monomials, so the tree walker runs only in `_failure`'s
    re-check of the counterexample, once for each side."""
    callers = []
    value = terms._value

    def spy(node, values, s):
        caller = sys._getframe(1).f_code.co_name
        if caller != "_value":
            callers.append(caller)
        return value(node, values, s)

    monkeypatch.setattr(terms, "_value", spy)
    s = build_semiring(family("nested", level)).exported
    result = check_identity_flat(s, builtin_identity("nested:4"))
    assert (result.verdict, result.explored) == (verdict, explored)
    assert callers == ["_failure"] * calls


@st.composite
def flat_tables(draw):
    """A random flat table of 2 to 5 elements: flat addition, an absorbing
    zero z and random other products, so associativity and cancellation
    may fail."""
    n = draw(st.integers(2, 5))
    z = draw(st.integers(0, n - 1))
    entry = st.one_of(st.just(z), st.integers(0, n - 1))
    add = [[x if x == y else z for y in range(n)] for x in range(n)]
    mul = [[z if z in (x, y) else draw(entry) for y in range(n)] for x in range(n)]
    return FiniteSemiring(tuple(map(str, range(n))), add, mul, zero=z)


@settings(max_examples=200, deadline=None)
@given(flat_tables(), differential_identities())
@example(NON_ASSOCIATIVE, parse_identity("x2*x2*x3 = x3*x2*x2 + x2*x3"))
def test_the_flat_checker_decides_only_flat_semirings(s, ident):
    """A flat table that breaks a semiring axiom is refused. Any verdict
    given is brute force's, a counterexample separates the sides, and the
    table is a semiring."""
    assert is_flat(s)
    try:
        result = check_identity_flat(s, ident)
    except ValueError as exc:
        assert str(exc).startswith("flat checker requires a semiring; ")
        assert not verify_axioms(s).all_pass
        return
    assert result.holds == check_identity_bruteforce(s, ident).holds
    if not result.holds:
        cex = result.counterexample
        assert eval_term(ident.lhs, cex, s) != eval_term(ident.rhs, cex, s)
    assert verify_axioms(s).all_pass


def test_a_flat_table_that_is_not_a_semiring_is_refused_by_name():
    """NON_ASSOCIATIVE is flat, so the message names the axioms it breaks;
    the message for a table that is not flat is unchanged."""
    message = (
        "flat checker requires a semiring; this flat table fails "
        "mul-associative, left-distributive, right-distributive"
    )
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_identity_flat(NON_ASSOCIATIVE, parse_identity("x = x"))
    with pytest.raises(ValueError, match="^flat checker requires a flat semiring; use brute force$"):
        check_identity_flat(BOOLEAN, parse_identity("x = x"))


# The trivial group with a zero adjoined: e·e = e, so no product of e's
# vanishes and a long product's prefix walk is never pruned.
TRIVIAL_GROUP = flat_completion(("0", "e"), ((0, 0), (0, 1)), 0)


@pytest.mark.parametrize(
    "carrier, joiner",
    [
        # The product side's prefix walk is 400 slots deep.
        pytest.param("trivial-group", "*", id="product-prefix"),
        # x0 completes at slot 0; the resumed walk is 400 side slots deep.
        pytest.param("sc_abc", " + ", id="sum-resumed"),
        # Every product of four factors vanishes, so the depth is in the
        # other side's walk over 399 free variables.
        pytest.param("sc_abc", "*", id="product-free"),
    ],
)
def test_side_search_deeper_than_the_recursion_limit(sc_abc, carrier, joiner):
    """A 400-variable side against x0: the per-target reference, which takes
    a frame per slot, runs at the normal limit; the checker then runs with
    only 100 frames to spare."""
    s = sc_abc if carrier == "sc_abc" else TRIVIAL_GROUP
    ident = parse_identity(joiner.join(f"x{i}" for i in range(400)) + " = x0")
    want = _per_target_check(s, ident)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        result = check_identity_flat(s, ident)
    finally:
        sys.setrecursionlimit(limit)
    cex = result.counterexample and list(result.counterexample.items())
    assert (result.verdict, cex, result.explored) == want
