import inspect
import itertools
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flathg import constructions
from flathg.constructions import (
    COLORINGS_CAP_DEFAULT,
    WITNESS_KINDS,
    _beam_step,
    _determined_coordinates,
    _strongcolor_equiv,
    find_semiring_isomorphism,
    find_subword_embedding,
    format_witness_report,
    generated_subsemiring,
    quotient_by_ideal,
    verify_witness,
)
from flathg.hg_semiring import build_semiring
from flathg.hypergraph import build_hypergraph, family
from flathg.semiring import (
    FiniteSemiring,
    flat_completion,
    is_commutative,
    is_flat,
    is_zero_cancellative,
    multiplicative_zero,
    verify_axioms,
)
from flathg.suite import random_hyperforest, sample_nonuniform, sample_pendant
from flathg.words import build_sc, builtin_s7


# Coordinates that are neither base labels nor in-range int indices.
BAD_COORDINATES = [
    pytest.param((99,), "coordinate 99 is not an element index", id="past-the-end"),
    pytest.param((-1,), "coordinate -1 is not an element index", id="negative"),
    pytest.param((1.7,), "coordinate 1.7 is not an element index", id="float"),
    pytest.param((True,), "coordinate True is not an element index", id="bool"),
    pytest.param(("a", 1), "coordinate 1 is not an element label", id="mixed"),
    pytest.param(("a", "zz"), "coordinate 'zz' is not an element label", id="unknown-label"),
    # A bad entry after good indices: the all-index fast path must fall
    # through to the loop that names it.
    pytest.param((0, 99), "coordinate 99 is not an element index", id="index-then-past-the-end"),
    pytest.param((1, -1), "coordinate -1 is not an element index", id="index-then-negative"),
    pytest.param((1, 2.0), "coordinate 2.0 is not an element index", id="index-then-float"),
    pytest.param((1, True), "coordinate True is not an element index", id="index-then-bool"),
    pytest.param((1, "a"), "coordinate 1 is not an element label", id="index-then-label"),
]


class TestClosure:
    def test_element_count_and_zero_index(self, sc_abc):
        sub = generated_subsemiring(sc_abc, [("a", "b", "c"), ("b", "c", "a")])
        assert sub.arity == 3
        assert sub.semiring.size == len(sub.elements) == 4
        z = sc_abc.zero
        assert sub.semiring.zero == sub.elements.index((z, z, z)) == 2

    def test_zero_is_none_when_the_zero_tuple_is_absent(self, s7):
        sub = generated_subsemiring(s7, [("1", "1")])
        assert sub.semiring.elements == ("(1,1)",)
        assert sub.semiring.zero is None

    def test_componentwise_product_label(self, sc_abc):
        sub = generated_subsemiring(sc_abc, [("a", "b"), ("b", "c")])
        assert sub.semiring.mul_label("(a,b)", "(b,c)") == "(ab,bc)"

    def test_arity_one_uses_bare_labels(self, sc_abc):
        sub = generated_subsemiring(sc_abc, [("ab",)])
        assert sub.label((sc_abc.index("ab"),)) == "ab"
        assert sub.semiring.elements[0] == "ab"

    def test_generators_must_share_a_positive_arity(self, sc_abc):
        with pytest.raises(ValueError, match="must all have 2 coordinates"):
            generated_subsemiring(sc_abc, [("a", "b"), ("c",)])
        with pytest.raises(ValueError, match="at least 1"):
            generated_subsemiring(sc_abc, [()])

    def test_diagonal_generators_recover_the_base(self, sc_abc):
        gens = [("a", "a"), ("b", "b"), ("c", "c")]
        sub = generated_subsemiring(sc_abc, gens)
        assert len(sub.elements) == sc_abc.size

    def test_closed_subsemiring_satisfies_axioms(self, sc_abc):
        sub = generated_subsemiring(sc_abc, [("a", "b"), ("b", "c")])
        assert verify_axioms(sub.semiring).all_pass

    def test_cap_is_enforced(self, sc_abcd):
        gens = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        with pytest.raises(ValueError, match="closure exceeded 5 elements"):
            generated_subsemiring(sc_abcd, gens, cap=5)

    def test_requires_a_generator(self, sc_abc):
        with pytest.raises(ValueError, match="at least one generator"):
            generated_subsemiring(sc_abc, [])

    @pytest.mark.parametrize("generator, message", BAD_COORDINATES)
    def test_a_bad_generator_coordinate_is_refused(self, sc_abc, generator, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generated_subsemiring(sc_abc, [generator])


class TestQuotient:
    def test_zero_ideal_reproduces_the_closure(self, sc_abc):
        sub = generated_subsemiring(sc_abc, [("a",), ("b",), ("c",)])
        q = quotient_by_ideal(sub, [("0",)])
        assert q.quotient.size == len(sub.elements)
        assert find_semiring_isomorphism(q.quotient, sc_abc) is not None

    def test_full_ideal_collapses_to_a_point(self, sc_abc):
        sub = generated_subsemiring(sc_abc, [("a",), ("b",)])
        q = quotient_by_ideal(sub, list(sub.elements))
        assert q.quotient.size == 1

    def test_ideal_must_contain_zero(self, sc_abc):
        sub = generated_subsemiring(sc_abc, [("a",), ("b",)])
        with pytest.raises(ValueError, match="must contain the zero"):
            quotient_by_ideal(sub, [("a",)])

    def test_ideal_members_must_lie_in_the_closure(self, sc_abc):
        sub = generated_subsemiring(sc_abc, [("a", "a")])
        with pytest.raises(ValueError, match="not in the closure"):
            quotient_by_ideal(sub, [("0", "0"), ("b", "c")])

    def test_non_congruence_is_reported(self, sc_abc):
        sub = generated_subsemiring(sc_abc, [("a",), ("b",), ("c",)])
        with pytest.raises(ValueError, match="does not induce a congruence"):
            quotient_by_ideal(sub, [("0",), ("a",)])

    def test_a_strict_subset_of_the_zero_coordinate_ideal_is_scanned(self, sc_abc, monkeypatch):
        scans = _spy_on_the_scan(monkeypatch)
        sub = generated_subsemiring(sc_abc, [("a", "a"), ("a", "b"), ("b", "b")])
        ideal = [x for x in sub.elements if sc_abc.zero in x and sub.label(x) != "(0,ab)"]
        with pytest.raises(ValueError) as exc:
            quotient_by_ideal(sub, ideal)
        assert str(exc.value) == (
            "ideal does not induce a congruence: mul((a,a), .) sends (0,0) to (0,0) but (0,b) to (0,ab)"
        )
        assert len(scans) == 1

    @pytest.mark.parametrize("member, message", BAD_COORDINATES)
    def test_a_bad_ideal_coordinate_is_refused(self, sc_abc, member, message):
        arity = len(member)
        sub = generated_subsemiring(sc_abc, [("a",) * arity, ("b",) * arity])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            quotient_by_ideal(sub, [("0",) * arity, member])


def _componentwise(table, x, y):
    return tuple(table[a][b] for a, b in zip(x, y))


def _reference_closure(base, gens):
    """The worklist fixpoint over tuples, with no tables."""
    elements = []
    seen = set()
    for x in gens:
        if x not in seen:
            seen.add(x)
            elements.append(x)
    cursor = 0
    while cursor < len(elements):
        x = elements[cursor]
        for y in elements[: cursor + 1]:
            for z in (
                _componentwise(base.add, y, x),
                _componentwise(base.add, x, y),
                _componentwise(base.mul, y, x),
                _componentwise(base.mul, x, y),
            ):
                if z not in seen:
                    seen.add(z)
                    elements.append(z)
        cursor += 1
    return elements


def _label(base, x):
    if len(x) == 1:
        return base.elements[x[0]]
    return "(" + ",".join(base.elements[i] for i in x) + ")"


def _reference_quotient(base, elements, ideal):
    """Collapse the ideal by tuple arithmetic: (labels, add, mul) or the
    congruence violation message."""
    j_set = set(ideal)
    position = {x: i for i, x in enumerate(elements)}
    for name, table in (("add", base.add), ("mul", base.mul)):
        for x in elements:
            for flip in (False, True):
                results = {}
                for j in ideal:
                    r = _componentwise(table, j, x) if flip else _componentwise(table, x, j)
                    results.setdefault(r, j)
                if len(results) > 1 and any(r not in j_set for r in results):
                    r1, r2 = sorted(results, key=position.__getitem__)[:2]
                    return (
                        "ideal does not induce a congruence: "
                        f"{name}({_label(base, x)}, .) sends {_label(base, results[r1])} "
                        f"to {_label(base, r1)} but {_label(base, results[r2])} "
                        f"to {_label(base, r2)}"
                    )
    zero = (base.zero,) * len(elements[0])
    reps = [zero] + [x for x in elements if x not in j_set]
    cls = {x: 0 for x in j_set}
    cls.update((x, i) for i, x in enumerate(reps[1:], start=1))
    labels = ("J",) + tuple(_label(base, x) for x in reps[1:])
    return tuple(
        [labels]
        + [
            tuple(tuple(cls[_componentwise(t, x, y)] for y in reps) for x in reps)
            for t in (base.add, base.mul)
        ]
    )


def _spy_on_the_scan(monkeypatch):
    """The arguments of each congruence scan that runs from here on."""
    calls, scan = [], constructions._check_congruence

    def spy(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(constructions, "_check_congruence", spy)
    return calls


def _spy_on_the_closures(monkeypatch):
    """The arguments of each generated_subsemiring call from here on."""
    calls, close = [], constructions.generated_subsemiring

    def spy(*args, **kwargs):
        calls.append(args)
        return close(*args, **kwargs)

    monkeypatch.setattr(constructions, "generated_subsemiring", spy)
    return calls


def assert_quotient_matches_reference(sub, base, want, ideal):
    """quotient_by_ideal's quotient, or its refusal, against tuple arithmetic."""
    expected = _reference_quotient(base, want, ideal)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            quotient_by_ideal(sub, ideal)
        assert str(exc.value) == expected
    else:
        q = quotient_by_ideal(sub, ideal).quotient
        assert (q.elements, q.add, q.mul) == expected
        assert FiniteSemiring(q.elements, q.add, q.mul, q.zero) == q


def _zero_absorbs_mul_only():
    """{0, 1} with 0 + 1 = 1: the zero absorbs · but not +, so the tuples
    with a zero coordinate are no ideal of + ((1, 0) + (0, 1) = (1, 1))."""
    return FiniteSemiring(("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0)


def _brandt():
    """flat_completion of the 2x2 matrix units: a non-commutative base."""
    units = [(i, j) for i in (1, 2) for j in (1, 2)]
    mul = [[0] * 5] + [
        [0] + [units.index((i, l)) + 1 if j == k else 0 for k, l in units] for i, j in units
    ]
    labels = ("0",) + tuple(f"e{i}{j}" for i, j in units)
    return flat_completion(labels, tuple(map(tuple, mul)), 0)


def _brandt_left_sum():
    """The Brandt products with x + y = x: a base whose addition is not
    commutative either, so both of the closure's streams are two-sided."""
    b = _brandt()
    return FiniteSemiring(b.elements, tuple((x,) * b.size for x in range(b.size)), b.mul, b.zero)


def _renamed_letters(base, perm):
    """The automorphism of a subword semiring that renames its letters by
    the dict perm, as the image of each element index."""
    return [base.index("".join(sorted(perm.get(ch, ch) for ch in w))) for w in base.elements]


def _flat_with_identity():
    """The flat completion of {1, a} with a·a = 0: the idempotent 1 keeps
    the zero tuple out of a closure of tuples without a zero coordinate."""
    return flat_completion(("0", "1", "a"), ((0, 0, 0), (0, 1, 2), (0, 2, 0)), 0)


@st.composite
def closure_inputs(draw, bases=None, max_arity=40):
    if bases is None:
        bases = [build_sc(["abc"]), build_sc(["abcd"]), _brandt(), _brandt_left_sum()]
    base = draw(st.sampled_from(bases))
    arity = draw(st.integers(1, max_arity))
    # Letters, matrix units, the identity 1 and hypergraph vertex generators.
    letters = ("a", "b", "c", "d", "e12", "e21", "1")
    generating = [i for i, lbl in enumerate(base.elements) if lbl in letters or lbl.startswith("a·")]
    coordinate = st.one_of(st.sampled_from(generating), st.integers(0, base.size - 1))
    # Four generators of arity 40 over the Brandt base close to some 650
    # elements, which the tuple references take 20 s to check; past arity
    # 4, three generators keep the closures to about 150 elements.
    most = 4 if arity <= 4 else 3
    gens = draw(st.lists(st.tuples(*[coordinate] * arity), min_size=1, max_size=most))
    # Columns that the closure may rebuild from a drawn one: a copy, the
    # zero, the image under a renaming of the letters, a constant e11 (its
    # all-zero key stands for a non-zero tuple), and a function of a drawn
    # column that need not extend to a homomorphism.
    kinds = ["copy", "zero", "function"]
    if "e11" in base.elements:
        kinds.append("e11")
    elif "abc" in base.elements:
        kinds.append("renamed")
    columns = list(zip(*gens))
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=2)):
        column = draw(st.sampled_from(columns[:arity]))
        if kind == "copy":
            image = list(range(base.size))
        elif kind == "zero":
            image = [base.zero] * base.size
        elif kind == "renamed":
            names = sorted(ch for ch in base.elements if len(ch) == 1 and ch != "0")
            image = _renamed_letters(base, dict(zip(names, draw(st.permutations(names)))))
        elif kind == "e11":
            image = [base.index("e11")] * base.size
        else:
            image = draw(st.lists(st.integers(0, base.size - 1), min_size=base.size, max_size=base.size))
        columns.append(tuple(image[v] for v in column))
    return base, list(zip(*columns))


def assert_closure_matches_reference(base, gens):
    """The closure's elements, labels, tables and zero against tuple
    arithmetic; returns the closure and the reference element list."""
    want = _reference_closure(base, gens)
    sub = generated_subsemiring(base, gens)
    assert list(sub.elements) == want
    s = sub.semiring
    assert s.elements == tuple(_label(base, x) for x in want)
    for i, x in enumerate(want):
        for j, y in enumerate(want):
            assert want[s.add[i][j]] == _componentwise(base.add, x, y)
            assert want[s.mul[i][j]] == _componentwise(base.mul, x, y)
    position = {x: i for i, x in enumerate(want)}
    assert s.zero == position.get((base.zero,) * len(gens[0]))
    # The closure skips the entry check; the public constructor accepts its tables.
    assert FiniteSemiring(s.elements, s.add, s.mul, s.zero) == s
    # quotient_by_ideal reads only the base's verdict for the closure's table.
    for op in ("add", "mul"):
        assert is_commutative(s, op) or not is_commutative(base, op)
    return sub, want


# Generators over the Brandt bases whose closure is not commutative under
# multiplication (see the test after the next one). The closure lists the
# generators first, so the pick 3 below draws (0, 0, e11) into the ideal.
_NON_COMMUTATIVE = [("e12", "e21", "e11"), ("e21", "e11", "e12"), ("e11", "e12", "e22")]


def _indexed(base, labels):
    return [tuple(map(base.index, g)) for g in labels]


@settings(max_examples=40, deadline=None)
@given(closure_inputs(), st.lists(st.integers(min_value=0), max_size=4))
# The left-sum base runs both of the closure's streams two-sided.
@example((_brandt_left_sum(), _indexed(_brandt_left_sum(), _NON_COMMUTATIVE)), [])
# x·J stays in J = {0, (0, 0, e11)} for every x of this closure; only a
# product J·x leaves it, so a quotient reading rows alone accepts J.
@example(
    (_brandt(), _indexed(_brandt(), [*_NON_COMMUTATIVE, ("0", "0", "e11")])), [3]
)
# b sent to a is a function of the first column but no homomorphism
# (a + b = 0 goes to a + a = a), so the second column must be kept.
@example((build_sc(["abc"]), _indexed(build_sc(["abc"]), [("a", "a"), ("b", "a")])), [])
# The constant e11 column is rebuilt from the first. (e12, e11)·(e12, e11) =
# (0, e11) has the zero tuple's kept entries, yet the closure has no zero.
@example((_brandt(), _indexed(_brandt(), [("e12", "e11")])), [])
# The zero absorbs · but not +: the zero-coordinate ideal must be scanned.
@example((_zero_absorbs_mul_only(), [(1, 0), (0, 1)]), [])
def test_closure_and_quotient_agree_with_tuple_arithmetic(inputs, picks):
    base, gens = inputs
    sub, want = assert_closure_matches_reference(base, gens)
    zero = (base.zero,) * len(gens[0])
    if zero not in want:
        return
    zero_coordinate = [x for x in want if base.zero in x]
    drawn = [zero] + [want[p % len(want)] for p in picks]
    for ideal in (zero_coordinate, drawn):
        assert_quotient_matches_reference(sub, base, want, ideal)


# Bases on which the witness pipeline takes _zero_coordinate_quotient: flat,
# with a zero that absorbs both tables and products that cancel.
_ZERO_COORDINATE_BASES = [
    build_sc(["abc"]),
    build_sc(["abcd"]),
    _brandt(),
    _flat_with_identity(),
    build_semiring(family("beam", 1)).exported,
    build_semiring(family("n_cycle", 3)).exported,
]


@st.composite
def zero_coordinate_inputs(draw):
    # Arity at most 12 keeps each shrink step short.
    base, gens = draw(closure_inputs(_ZERO_COORDINATE_BASES, max_arity=12))
    return base, gens + draw(st.lists(st.sampled_from(gens), max_size=2))


@settings(max_examples=60, deadline=None)
@given(zero_coordinate_inputs())
# Every element has the idempotent 1 first, so none is the zero tuple.
@example((_flat_with_identity(), [(1, 1), (1, 2)]))
# (0, e11) has the zero tuple's kept entries, yet the closure has no zero.
@example((_brandt(), _indexed(_brandt(), [("e12", "e11")])))
# A non-commutative product, and a generator given twice.
@example((_brandt(), _indexed(_brandt(), [*_NON_COMMUTATIVE, _NON_COMMUTATIVE[0]])))
def test_the_zero_coordinate_quotient_agrees_with_tuple_arithmetic(inputs):
    """Closure size, ideal size and the quotient, or its refusal, against
    the tuple closure; the cap refuses one element short of the closure."""
    base, gens = inputs
    assert is_flat(base) and is_zero_cancellative(base) is True
    assert multiplicative_zero(base) == base.zero
    want = _reference_closure(base, gens)
    ideal = [x for x in want if base.zero in x]
    if (base.zero,) * len(gens[0]) in want:
        expected = _reference_quotient(base, want, ideal)
    else:
        expected = "the ideal must contain the zero tuple"
    size, ideal_size, quotient = constructions._zero_coordinate_quotient(base, gens, len(want))
    assert (size, ideal_size) == (len(want), len(ideal))
    if isinstance(expected, str):
        assert quotient == expected
    else:
        assert (quotient.elements, quotient.add, quotient.mul, quotient.zero) == (*expected, 0)
        assert FiniteSemiring(quotient.elements, quotient.add, quotient.mul, 0) == quotient
    message = f"closure exceeded {len(want) - 1} elements; refusing to continue"
    with pytest.raises(ValueError, match=f"^{message}$"):
        constructions._zero_coordinate_quotient(base, gens, len(want) - 1)


def _plan_inputs(plan):
    """A witness plan's base and its generators as index tuples."""
    return plan.base, _indexed(plan.base, plan.generators)


@pytest.mark.parametrize(
    "inputs",
    [
        pytest.param(
            lambda: _plan_inputs(
                _strongcolor_equiv(hypergraph=family("n_cycle", 3), colorings_cap=COLORINGS_CAP_DEFAULT)
            ),
            id="sc_abc",
        ),
        pytest.param(lambda: _plan_inputs(_beam_step(index=1)), id="beam(1)"),
        pytest.param(lambda: (_zero_absorbs_mul_only(), [(1, 0), (0, 1)]), id="zero-absorbs-mul-only"),
        pytest.param(lambda: (_brandt_left_sum(), _indexed(_brandt_left_sum(), _NON_COMMUTATIVE)), id="left-sum"),
    ],
)
def test_a_direct_zero_coordinate_quotient_is_scanned(inputs, monkeypatch):
    """quotient_by_ideal scans every ideal, the tuples with a zero
    coordinate included, whichever tables the base's zero absorbs; only the
    witness pipeline collapses that ideal without a scan."""
    base, gens = inputs()
    scans = _spy_on_the_scan(monkeypatch)
    sub, want = assert_closure_matches_reference(base, gens)
    assert_quotient_matches_reference(sub, base, want, [x for x in want if base.zero in x])
    assert len(scans) == 1


@pytest.mark.parametrize("base", [_brandt(), _brandt_left_sum()], ids=["brandt", "left-sum"])
def test_a_non_commutative_closure_agrees_with_tuple_arithmetic(base):
    gens = _indexed(base, _NON_COMMUTATIVE)
    sub, want = assert_closure_matches_reference(base, gens)
    s = sub.semiring
    assert not is_commutative(s, "mul")
    assert is_commutative(s, "add") is is_commutative(base, "add")
    ideal = [x for x in want if base.zero in x]
    q = quotient_by_ideal(sub, ideal).quotient
    assert (q.elements, q.add, q.mul) == _reference_quotient(base, want, ideal)
    # x·J stays in J for every x here; only a product J·x leaves it.
    ideal = [(base.zero,) * 3, (base.zero, base.zero, base.index("e11"))]
    with pytest.raises(ValueError) as exc:
        quotient_by_ideal(sub, ideal)
    assert str(exc.value) == _reference_quotient(base, want, ideal)


@pytest.mark.parametrize(
    "index, floor",
    # beam(21) has 134 elements and beam(42) 260: coordinates past 127 and
    # past 255 take the closure's strings out of ASCII and out of Latin-1.
    [(21, 128), (42, 256)],
)
def test_closure_over_a_large_base_agrees_with_tuple_arithmetic(index, floor):
    base = build_semiring(family("beam", index)).exported
    last = family("beam", index).edge_list()[-2:]
    (u, v, w), (p, q, r) = [[base.index(f"a·{x}") for x in e] for e in last]
    gens = [(u, v, w), (v, w, u), (w, u, v), (p, q, r), (r, r, p)]
    _, want = assert_closure_matches_reference(base, gens)
    assert max(map(max, want)) >= floor


def test_the_zero_coordinate_quotient_over_a_base_past_latin_1():
    """beam_step(42)'s generators over the 260-element beam(42): values past
    255 in the strings of P's worklist, and 289 members of P whose supports
    hold 290 bits, past a machine word. The counts, the quotient's tables
    and the cap's refusal one element short agree with tuple arithmetic."""
    base, gens = _plan_inputs(_beam_step(index=42))
    want = _reference_closure(base, gens)
    assert max(map(max, want)) >= 256
    ideal = [x for x in want if base.zero in x]
    size, ideal_size, quotient = constructions._zero_coordinate_quotient(base, gens, len(want))
    assert (size, ideal_size) == (len(want), len(ideal)) == (311, 46)
    assert (quotient.elements, quotient.add, quotient.mul) == _reference_quotient(base, want, ideal)
    message = f"closure exceeded {len(want) - 1} elements; refusing to continue"
    with pytest.raises(ValueError, match=f"^{message}$"):
        constructions._zero_coordinate_quotient(base, gens, len(want) - 1)


def test_a_coordinate_is_kept_unless_an_earlier_one_determines_it(sc_abc):
    """After a first column come its copy, its image under swapping a and
    b, the zero, and a function of the first column that is no
    homomorphism: a + b = 0 goes to a + a = a, but a·a = 0 to 0."""
    first = [sc_abc.index(v) for v in ("a", "b", "c", "ab")]
    swap = _renamed_letters(sc_abc, {"a": "b", "b": "a"})
    merged = [sc_abc.index(v) for v in ("a", "a", "c", "0")]
    columns = [first, first, [swap[v] for v in first], [sc_abc.zero] * 4, merged]
    gens = list(zip(*columns))
    assert sorted(_determined_coordinates(sc_abc, gens)) == [1, 2, 3]
    assert_closure_matches_reference(sc_abc, gens)


@pytest.mark.parametrize("n, kept", [(3, 1), (4, 3), (5, 5), (6, 11)])
def test_the_coloring_power_keeps_one_coordinate_per_letter_renaming_orbit(n, kept):
    """Renaming the letters of sc_abc is an automorphism, so of the six
    strong 3-colorings that differ by a renaming, the closure keeps one."""
    plan = _strongcolor_equiv(hypergraph=family("n_cycle", n), colorings_cap=COLORINGS_CAP_DEFAULT)
    gens = _indexed(plan.base, plan.generators)
    assert len(gens[0]) == 6 * kept
    assert len(gens[0]) - len(_determined_coordinates(plan.base, gens)) == kept


class TestClosureCap:
    GENS = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]

    def test_a_cap_equal_to_the_closure_size_is_enough(self, sc_abcd):
        size = len(generated_subsemiring(sc_abcd, self.GENS).elements)
        assert len(generated_subsemiring(sc_abcd, self.GENS, cap=size).elements) == size

    def test_one_element_less_is_refused(self, sc_abcd):
        size = len(generated_subsemiring(sc_abcd, self.GENS).elements)
        message = f"closure exceeded {size - 1} elements; refusing to continue"
        with pytest.raises(ValueError, match=f"^{message}$"):
            generated_subsemiring(sc_abcd, self.GENS, cap=size - 1)


def _first_isomorphism(s1, s2):
    """The first permutation, in lexicographic order, that carries both
    tables of s1 onto those of s2, or None."""
    n = s1.size
    return next(
        (
            p
            for p in itertools.permutations(range(n))
            if all(
                p[t1[a][b]] == t2[p[a]][p[b]]
                for t1, t2 in ((s1.add, s2.add), (s1.mul, s2.mul))
                for a in range(n)
                for b in range(n)
            )
        ),
        None,
    )


def _relabelled_pair(draw, add, mul, z):
    """The semiring on the tables, and a random relabelling of it, as drawn,
    with one entry changed, or with two products swapped, which keeps every
    element's factorization count."""
    n = len(add)
    s1 = FiniteSemiring(
        tuple(f"x{i}" for i in range(n)), tuple(map(tuple, add)), tuple(map(tuple, mul)), z
    )
    p = draw(st.permutations(range(n)))
    tables = []
    for t in (add, mul):
        moved = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                moved[p[a]][p[b]] = p[t[a][b]]
        tables.append(moved)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    change = draw(st.sampled_from(["none", "entry", "swap"]))
    if change == "entry":
        t = draw(st.sampled_from(tables))
        a, b = draw(cell)
        t[a][b] = draw(st.integers(0, n - 1).filter(lambda v: v != t[a][b]))
    elif change == "swap":
        t = tables[1]
        (a, b), (c, d) = draw(st.lists(cell, min_size=2, max_size=2, unique=True))
        t[a][b], t[c][d] = t[c][d], t[a][b]
    add2, mul2 = (tuple(map(tuple, t)) for t in tables)
    return s1, FiniteSemiring(tuple(f"y{i}" for i in range(n)), add2, mul2, None if z is None else p[z])


@st.composite
def flat_table_pairs(draw):
    """A random flat table (flat addition, absorbing zero, random products),
    relabelled and perhaps changed by _relabelled_pair."""
    n = draw(st.integers(2, 7))
    z = draw(st.integers(0, n - 1))
    entry = st.one_of(st.just(z), st.integers(0, n - 1))
    add = [[x if x == y else z for y in range(n)] for x in range(n)]
    mul = [[z if z in (x, y) else draw(entry) for y in range(n)] for x in range(n)]
    return _relabelled_pair(draw, add, mul, z)


@st.composite
def dense_table_pairs(draw):
    """Tables that are not flat, relabelled and perhaps changed by
    _relabelled_pair: random products, and a random addition, which rarely
    has an absorbing element, or the maximum along a random order, whose
    top absorbs under + but not under ·. The search then compares every
    pair of elements."""
    n = draw(st.integers(2, 6))
    entry = st.integers(0, n - 1)
    if draw(st.booleans()):
        rank = draw(st.permutations(range(n)))
        add = [[max(x, y, key=rank.__getitem__) for y in range(n)] for x in range(n)]
    else:
        add = [[draw(entry) for _ in range(n)] for _ in range(n)]
    mul = [[draw(entry) for _ in range(n)] for _ in range(n)]
    return _relabelled_pair(draw, add, mul, None)


@settings(max_examples=150, deadline=None)
@given(st.one_of(flat_table_pairs(), dense_table_pairs()))
def test_isomorphism_search_agrees_with_brute_force(pair):
    """The search returns the first isomorphism in lexicographic order."""
    s1, s2 = pair
    iso = find_semiring_isomorphism(s1, s2)
    first = _first_isomorphism(s1, s2)
    if first is None:
        assert iso is None
    else:
        assert iso == {s1.elements[a]: s2.elements[first[a]] for a in range(s1.size)}


class TestIsomorphism:
    def test_identity_map_is_found(self, sc_abcd):
        iso = find_semiring_isomorphism(sc_abcd, sc_abcd)
        assert iso is not None
        assert all(iso[x] == x for x in ("0", "abcd"))

    def test_size_mismatch_is_none(self, sc_abc, sc_abcd):
        assert find_semiring_isomorphism(sc_abc, sc_abcd) is None

    def test_equal_size_different_structure_is_none(self):
        s1 = build_semiring(family("nested", 2)).exported
        s2 = build_semiring(family("beam", 2)).exported
        assert s1.size == s2.size == 20
        assert find_semiring_isomorphism(s1, s2) is None

    def test_a_product_whose_result_is_mapped_last_is_checked(self):
        """a·b = c in one semiring and b·a = c in the other, with the zero
        listed last: the search reaches c after a and b, and the identity
        map, which sends a·b = c to a·b = 0, must not be returned."""
        labels = ("a", "b", "c", "0")
        add = tuple(tuple(x if x == y else 3 for y in range(4)) for x in range(4))

        def semiring(a, b):
            mul = [[3] * 4 for _ in range(4)]
            mul[a][b] = 2
            return FiniteSemiring(labels, add, tuple(map(tuple, mul)), 3)

        iso = find_semiring_isomorphism(semiring(0, 1), semiring(1, 0))
        assert iso == {"a": "b", "b": "a", "c": "c", "0": "0"}

    def test_search_deeper_than_the_recursion_limit(self):
        """2,100 elements whose products are all the zero, onto a copy with
        the zero moved from first to last: a search with a frame per element
        would need more than twice the default recursion limit."""
        n = 2_100
        s1 = flat_completion(("0",) + tuple(f"x{i}" for i in range(1, n)), ((0,) * n,) * n, 0)
        twin = tuple(f"y{i}" for i in range(1, n)) + ("z",)
        s2 = flat_completion(twin, ((n - 1,) * n,) * n, n - 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            iso = find_semiring_isomorphism(s1, s2)
        finally:
            sys.setrecursionlimit(limit)
        assert iso == {"0": "z", **{f"x{i}": f"y{i}" for i in range(1, n)}}

    def test_symmetry(self):
        s1 = build_semiring(family("fan", 3)).exported
        s2 = build_semiring(family("beam", 3)).exported
        forward = find_semiring_isomorphism(s1, s2)
        backward = find_semiring_isomorphism(s2, s1)
        assert forward is not None and backward is not None
        assert {v: k for k, v in forward.items()} == backward


def _checked_candidates(s1, s2):
    """find_semiring_isomorphism(s1, s2), and how many candidate pairs
    (x, y) its search checked: the calls of its inner `consistent`."""
    search = find_semiring_isomorphism.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "consistent" and frame.f_back.f_code is search:
            calls += 1

    sys.setprofile(profile)
    try:
        iso = find_semiring_isomorphism(s1, s2)
    finally:
        sys.setprofile(None)
    return iso, calls


def _beam_step_pair(index):
    """beam_step(index)'s quotient and its target."""
    plan = _beam_step(index=index)
    sub = generated_subsemiring(plan.base, plan.generators)
    ideal = [x for x in sub.elements if plan.base.zero in x]
    return quotient_by_ideal(sub, ideal).quotient, plan.target


def _supports_pair():
    """p·a = r and q·b = s, all else 0. The first lists b before p, q and
    a; sending b to a, p to p passes every product of p with the assigned
    elements of p's supports, and only the supports of the image p show
    p·a = r against p·b = 0."""
    def semiring(labels):
        mul = [[0] * 7 for _ in range(7)]
        for x, y, v in (("p", "a", "r"), ("q", "b", "s")):
            mul[labels.index(x)][labels.index(y)] = labels.index(v)
        return flat_completion(labels, tuple(map(tuple, mul)), 0)

    return semiring(("0", "b", "p", "q", "a", "r", "s")), semiring(("0", "a", "b", "p", "q", "r", "s"))


def _near_top_pair():
    """t absorbs under +, and u absorbs all but t; a + b = u; every
    product is z. t and u have the same profile but for absorbing under +,
    and the second semiring lists u first."""
    def semiring(labels):
        def add(x, y):
            for top in ("t", "u"):
                if top in (x, y):
                    return top
            if {x, y} == {"a", "b"}:
                return "u"
            return y if x == "z" else x

        table = tuple(tuple(labels.index(add(x, y)) for y in labels) for x in labels)
        return FiniteSemiring(labels, table, ((labels.index("z"),) * 5,) * 5)

    return semiring(("t", "u", "z", "a", "b")), semiring(("u", "t", "z", "a", "b"))


@pytest.mark.parametrize(
    "pair, checked",
    [
        pytest.param(lambda: _beam_step_pair(12), 174, id="beam_step-12"),
        # Fails when `consistent` skips the supports of the image y.
        pytest.param(_supports_pair, 15, id="image-supports"),
        # Fails without the profile entry "absorbs under +" and the check of
        # x against itself.
        pytest.param(_near_top_pair, 5, id="near-top"),
    ],
)
def test_the_isomorphism_search_checks_a_pinned_number_of_candidates(pair, checked):
    """A search that prunes less still finds the map, since every complete
    map is checked on both tables; only the candidates it checks show it.
    A change that prunes more may lower these pins."""
    s1, s2 = pair()
    iso, calls = _checked_candidates(s1, s2)
    assert iso is not None
    assert calls == checked


# The quotient witnesses of `flathg suite`.
SUITE_QUOTIENT_WITNESSES = {
    "triangle_in_abcd": dict(kind="triangle_in_abcd"),
    "strongcolor_equiv": dict(kind="strongcolor_equiv", hypergraph=family("n_cycle", 4)),
    "uniform_reduction": dict(kind="uniform_reduction", hypergraph=sample_nonuniform()),
    "leaf_removal": dict(kind="leaf_removal", hypergraph=sample_pendant(), leaf_case="shared"),
    **{f"beam_step({i})": dict(kind="beam_step", index=i) for i in (1, 2, 3)},
}


@pytest.mark.parametrize("kwargs", SUITE_QUOTIENT_WITNESSES.values(), ids=SUITE_QUOTIENT_WITNESSES)
def test_a_witness_closure_and_quotient_pass_the_constructors_check(kwargs, monkeypatch):
    """The closure and the quotient skip the entry check, trusting their
    tables; the public constructor accepts them unchanged. triangle_in_abcd
    builds both; the zero-coordinate kinds build only the quotient."""
    built = []
    quotient, zero_coordinate = constructions.quotient_by_ideal, constructions._zero_coordinate_quotient

    def recording_quotient(closure, ideal):
        built.append(closure.semiring)
        result = quotient(closure, ideal)
        built.append(result.quotient)
        return result

    def recording_zero_coordinate(*args):
        sizes_and_quotient = zero_coordinate(*args)
        built.append(sizes_and_quotient[2])
        return sizes_and_quotient

    monkeypatch.setattr(constructions, "quotient_by_ideal", recording_quotient)
    monkeypatch.setattr(constructions, "_zero_coordinate_quotient", recording_zero_coordinate)
    assert verify_witness(**kwargs).ok
    assert len(built) == (2 if kwargs["kind"] == "triangle_in_abcd" else 1)
    for s in built:
        assert FiniteSemiring(s.elements, s.add, s.mul, s.zero) == s


@pytest.mark.parametrize("kwargs", SUITE_QUOTIENT_WITNESSES.values(), ids=SUITE_QUOTIENT_WITNESSES)
def test_only_triangle_in_abcd_scans_its_ideal(kwargs, monkeypatch):
    """The other quotient kinds collapse the tuples with a zero coordinate
    over a flat base, a congruence with no scan and no closure tables;
    triangle_in_abcd's ideal holds more tuples, so it closes and scans."""
    scans = _spy_on_the_scan(monkeypatch)
    closures = _spy_on_the_closures(monkeypatch)
    assert verify_witness(**kwargs).ok
    triangle = kwargs["kind"] == "triangle_in_abcd"
    assert len(scans) == triangle
    assert len(closures) == triangle


def test_a_flat_base_whose_products_do_not_cancel_is_closed_in_full(monkeypatch):
    """a·a = a·b = b: flat, with an absorbing zero, but a·(a + b) = 0 while
    a·a + a·b = b. Sums of products miss elements of the closure here, so
    the witness pipeline closes under both operations."""
    base = FiniteSemiring(
        ("0", "a", "b"),
        ((0, 0, 0), (0, 1, 0), (0, 0, 2)),
        ((0, 0, 0), (0, 2, 2), (0, 2, 2)),
        0,
    )
    gens = [("a", "a"), ("b", "a")]
    want = _reference_closure(base, _indexed(base, gens))
    assert constructions._zero_coordinate_quotient(base, gens, 100) is None
    closures = _spy_on_the_closures(monkeypatch)
    plan = constructions._QuotientPlan(claim="non-cancellative", base=base, generators=gens, target=base)
    report = constructions._run_quotient_plan("test", plan, 100)
    assert (report.closure_size, report.ideal_size) == (len(want), sum(base.zero in x for x in want))
    assert len(closures) == 1


class TestWitnesses:
    def test_kind_registry(self):
        assert set(WITNESS_KINDS) == {
            "uniform_reduction",
            "strongcolor_equiv",
            "triangle_in_abcd",
            "leaf_removal",
            "beam_step",
            "nested_chain",
        }

    def test_triangle_embedding_report(self):
        rep = verify_witness("triangle_in_abcd")
        assert rep.ok
        assert (rep.closure_size, rep.ideal_size, rep.quotient_size) == (22, 9, 14)
        iso = dict(rep.isomorphism)
        assert iso["(a,bc)"] == "a·u1"
        assert iso["(abcd,abcd)"] == "TOP"
        assert [s.name for s in rep.stages] == [
            "closure", "ideal", "quotient", "flatness", "isomorphism",
        ]

    def test_strongcolor_equivalence_on_the_six_cycle(self):
        rep = verify_witness("strongcolor_equiv", hypergraph=family("n_cycle", 6))
        assert rep.ok
        sizes = (rep.power_arity, rep.closure_size, rep.ideal_size, rep.quotient_size)
        assert sizes == (66, 655, 630, 26)

    def test_strongcolor_equivalence(self):
        rep = verify_witness("strongcolor_equiv", hypergraph=family("n_cycle", 4))
        assert rep.ok
        assert rep.power_arity == 18
        assert rep.quotient_size == 18

    def test_uniform_reduction(self):
        h = build_hypergraph(
            ["u1", "u2", "u3", "u4", "u5"],
            [("u1", "u2", "u3"), ("u4", "u5")],
        )
        rep = verify_witness("uniform_reduction", hypergraph=h)
        assert rep.ok
        assert rep.quotient_size == 10

    def test_uniform_reduction_needs_a_short_edge(self):
        with pytest.raises(ValueError, match="2-vertex edge"):
            verify_witness("uniform_reduction", hypergraph=family("beam", 1))

    def test_leaf_removal_shared(self):
        h = build_hypergraph(
            [f"u{i}" for i in range(1, 9)],
            [("u1", "u2", "u3"), ("u3", "u4", "u5"),
             ("u5", "u6", "u1"), ("u7", "u8", "u1")],
        )
        rep = verify_witness("leaf_removal", hypergraph=h, leaf_case="shared")
        assert rep.ok
        assert rep.quotient_size == 18

    def test_leaf_removal_disjoint(self):
        h = build_hypergraph(
            [f"u{i}" for i in range(1, 10)],
            [("u1", "u2", "u3"), ("u3", "u4", "u5"),
             ("u5", "u6", "u1"), ("u7", "u8", "u9")],
        )
        rep = verify_witness("leaf_removal", hypergraph=h, leaf_case="disjoint")
        assert rep.ok

    def test_removing_the_only_2_vertex_edge_is_refused(self):
        h = build_hypergraph(["u1", "u2"], [("u1", "u2")])
        message = "^removing the 2-vertex edge leaves an empty hypergraph$"
        with pytest.raises(ValueError, match=message):
            verify_witness("uniform_reduction", hypergraph=h)

    def test_removing_the_only_leaf_is_refused(self):
        h = build_hypergraph(["u1", "u2", "u3"], [("u1", "u2", "u3")])
        with pytest.raises(ValueError, match="^removing the leaf leaves an empty hypergraph$"):
            verify_witness("leaf_removal", hypergraph=h, leaf_case="disjoint")

    def test_leaf_removal_requires_arguments(self):
        with pytest.raises(ValueError, match="requires a hypergraph and a leaf_case"):
            verify_witness("leaf_removal")

    @pytest.mark.parametrize("kind", [k for k, params in WITNESS_KINDS.items() if params])
    def test_required_parameters_come_from_the_kind_table(self, kind):
        with pytest.raises(ValueError, match=f"^{kind} requires "):
            verify_witness(kind)

    @pytest.mark.parametrize("kind", list(WITNESS_KINDS))
    def test_a_parameter_the_kind_does_not_take_is_refused(self, kind):
        values = {"hypergraph": family("beam", 1), "index": 1, "leaf_case": "shared"}
        extra = next(name for name in values if name not in WITNESS_KINDS[kind])
        kwargs = {name: values[name] for name in (*WITNESS_KINDS[kind], extra)}
        with pytest.raises(ValueError, match=f"^{kind} does not take the parameter {extra}$"):
            verify_witness(kind, **kwargs)

    @pytest.mark.parametrize("index", ["2", 2.0, True])
    def test_a_non_integer_index_is_refused(self, index):
        with pytest.raises(ValueError, match=f"^beam_step index must be an integer, not {re.escape(repr(index))}$"):
            verify_witness("beam_step", index=index)

    def test_leaf_removal_missing_case(self):
        with pytest.raises(ValueError, match="no disjoint leaf edge found"):
            verify_witness("leaf_removal", hypergraph=family("beam", 2),
                           leaf_case="disjoint")

    @pytest.mark.parametrize("i", (4, 5, 6))
    def test_beam_step_upper_range(self, i):
        rep = verify_witness("beam_step", index=i)
        assert rep.ok
        assert rep.quotient_size == 6 * (i + 1) + 8

    def test_beam_step_six_notes_the_wrapped_column(self):
        rep = verify_witness("beam_step", index=6)
        assert any("matrix column 6" in n for n in rep.notes)

    def test_nested_chain_is_checker_based(self):
        rep = verify_witness("nested_chain", index=2)
        assert rep.ok
        assert [s.name for s in rep.stages] == ["lower-satisfies", "upper-fails"]
        assert rep.isomorphism is None
        assert rep.quotient_size == 0

    def test_nested_chain_separating_assignment_is_pinned(self):
        """The first counterexample the flat checker reports on nested(8),
        fixed by its search order: a growth-axis instance past the golden file."""
        rep = verify_witness("nested_chain", index=7)
        assert rep.ok
        pins = {f"x{3 * j + k}": f"a·u{3 * j + 4 - k}" for j in range(9) for k in (1, 2, 3)}
        expected = ", ".join(f"{k}={v}" for k, v in sorted(pins.items()))
        assert rep.notes == (f"separating assignment: {expected}",)

    @pytest.mark.parametrize("index", (512, 100_000))
    def test_nested_chain_past_the_cap_builds_nothing(self, monkeypatch, index):
        """Identity i+1 has 8(i+1) monomials, past MAX_MONOMIALS from i = 512."""

        def unreachable(h):
            raise AssertionError("a semiring was built")

        monkeypatch.setattr(constructions, "build_semiring", unreachable)
        message = r"^nested_chain index over MAX_NESTED_INDEX - 1 \(511\): "
        with pytest.raises(ValueError, match=message):
            verify_witness("nested_chain", index=index)

    def test_nested_chain_511_goes_on_to_build(self, monkeypatch):
        def spy(h):
            raise LookupError("a semiring was built")

        monkeypatch.setattr(constructions, "build_semiring", spy)
        with pytest.raises(LookupError, match="a semiring was built"):
            verify_witness("nested_chain", index=511)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown witness kind 'bogus'"):
            verify_witness("bogus")

    def test_report_formatting(self):
        text = format_witness_report(verify_witness("triangle_in_abcd"))
        lines = text.splitlines()
        assert lines[0].startswith("claim:")
        assert "ok: yes" in lines
        assert any(line.startswith("stage: closure ok") for line in lines)
        assert any(line.startswith("isomorphism: (abcd,abcd) -> TOP") for line in lines)

    def test_failure_is_reported_not_raised(self):
        rep = verify_witness("strongcolor_equiv", hypergraph=family("beam", 1))
        assert not rep.ok
        assert rep.failure_stage is not None


class TestSubwordEmbedding:
    def test_triangle_semiring_hosts_the_three_letter_words(self, triangle_semiring):
        emb = find_subword_embedding(triangle_semiring)
        assert emb is not None
        assert emb["0"] == "0"
        assert emb["abc"] == "TOP"
        assert sorted(emb[k] for k in ("a", "b", "c")) == ["a·u1", "a·u2", "a·u3"]

    def test_embedding_respects_both_tables(self, sc_abc, triangle_semiring):
        emb = find_subword_embedding(triangle_semiring)
        t = triangle_semiring
        for x in sc_abc.elements:
            for y in sc_abc.elements:
                assert emb[sc_abc.mul_label(x, y)] == t.mul_label(emb[x], emb[y])
                assert emb[sc_abc.add_label(x, y)] == t.add_label(emb[x], emb[y])

    def test_too_small_target_has_none(self, sc_abc):
        assert find_subword_embedding(sc_abc) is None


def _reference_subword_embedding(target):
    """The generator triple loop with per-label table lookups: the reference
    for find_subword_embedding, down to the first embedding found and the
    key order of the returned dict."""
    sc = build_sc(["abc"])
    z_t = target.zero if target.zero is not None else multiplicative_zero(target)
    gen_indices = [i for i, lbl in enumerate(target.elements) if lbl.startswith("a·")]
    for i in gen_indices:
        for j in gen_indices:
            if j == i:
                continue
            for k in gen_indices:
                if k in (i, j):
                    continue
                if target.mul[target.mul[i][j]][k] == z_t:
                    continue
                images = {
                    "a": i,
                    "b": j,
                    "c": k,
                    "ab": target.mul[i][j],
                    "ac": target.mul[i][k],
                    "bc": target.mul[j][k],
                    "abc": target.mul[target.mul[i][j]][k],
                    "0": z_t,
                }
                if len(set(images.values())) != len(images):
                    continue
                good = True
                for x_lbl, x_img in images.items():
                    for y_lbl, y_img in images.items():
                        sx, sy = sc.index(x_lbl), sc.index(y_lbl)
                        if images[sc.elements[sc.mul[sx][sy]]] != target.mul[x_img][y_img]:
                            good = False
                            break
                        if images[sc.elements[sc.add[sx][sy]]] != target.add[x_img][y_img]:
                            good = False
                            break
                    if not good:
                        break
                if good:
                    return {lbl: target.elements[img] for lbl, img in images.items()}
    return None


EMBEDDING_HYPERGRAPHS = {
    **{f"{kind}({i})": family(kind, i) for kind in ("beam", "fan", "nested") for i in range(1, 5)},
    **{f"n_cycle({n})": family("n_cycle", n) for n in range(3, 11)},
    "nonuniform-sample": sample_nonuniform(),
    "pendant-sample": sample_pendant(),
    **{f"hyperforest-{seed}": random_hyperforest(random.Random(seed)) for seed in range(30)},
}

def _without_a_zero():
    """The abc subword tables with the letters named as vertex generators
    and 0·0 = a, so that no element is a multiplicative zero but the seven
    words stay distinct products."""
    sc = build_sc(["abc"])
    names = {"a": "a·u1", "b": "a·u2", "c": "a·u3"}
    mul = [list(row) for row in sc.mul]
    mul[sc.zero][sc.zero] = sc.index("a")
    return FiniteSemiring(
        tuple(names.get(w, w) for w in sc.elements), sc.add, tuple(map(tuple, mul))
    )


# Semirings that host no embedding: the word semirings have no vertex
# generators, and the last one has no zero.
NO_EMBEDDING = {
    "sc_abc": lambda: build_sc(["abc"]),
    "sc_abcd": lambda: build_sc(["abcd"]),
    "s7": builtin_s7,
    "no-zero": _without_a_zero,
}


@pytest.mark.parametrize("name", [*EMBEDDING_HYPERGRAPHS, *NO_EMBEDDING])
def test_subword_embedding_agrees_with_the_triple_loop(name):
    if name in NO_EMBEDDING:
        target = NO_EMBEDDING[name]()
    else:
        target = build_semiring(EMBEDDING_HYPERGRAPHS[name]).exported
    got = find_subword_embedding(target)
    want = _reference_subword_embedding(target)
    assert got == want
    assert (want is None) == (name in NO_EMBEDDING)
    if want is not None:
        assert list(got) == list(want) == ["a", "b", "c", "ab", "ac", "bc", "abc", "0"]
