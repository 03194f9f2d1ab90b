import gc
import itertools
import json
import re
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flathg import semiring
from flathg.hg_semiring import build_semiring
from flathg.hypergraph import family
from flathg.semiring import (
    FiniteSemiring,
    SemiringParseError,
    _flat_row,
    flat_completion,
    format_semiring,
    is_commutative,
    is_flat,
    is_zero_cancellative,
    multiplicative_zero,
    parse_semiring,
    subdirect_irreducibility_certificate,
    verify_axioms,
)
from flathg.suite import _family_members, sample_nonuniform, sample_pendant
from flathg.words import build_sc, builtin_s7

BOOL_LATTICE = FiniteSemiring(("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)), zero=0)


# Labels the constructor and flat_completion refuse, with the message.
LABEL_REFUSALS = [
    pytest.param(("a", "a"), "duplicate element labels", id="duplicate"),
    pytest.param(["z", "z"], "duplicate element labels", id="duplicate-list"),
    pytest.param((1, 2), "element label 1 is not a string", id="int"),
    pytest.param(("z", None), "element label None is not a string", id="none"),
    pytest.param(("z", ("e",)), "element label ('e',) is not a string", id="tuple"),
]


def mutate(table, i, j, value):
    rows = [list(r) for r in table]
    rows[i][j] = value
    return tuple(tuple(r) for r in rows)


class TestAxioms:
    def test_families_pass(self):
        for kind, idx in [("beam", 1), ("nested", 2), ("n_cycle", 4)]:
            s = build_semiring(family(kind, idx)).exported
            assert verify_axioms(s).all_pass

    def test_mutated_add_detected(self, sc_abc):
        bad = FiniteSemiring(
            sc_abc.elements, mutate(sc_abc.add, 1, 2, 1), sc_abc.mul, sc_abc.zero
        )
        report = verify_axioms(bad)
        assert not report.all_pass
        assert "add-commutative" in {name for name, ok, _ in report.verdicts if not ok}

    def test_mutated_mul_detected(self, sc_abc):
        bad = FiniteSemiring(
            sc_abc.elements, sc_abc.add, mutate(sc_abc.mul, 1, 2, 1), sc_abc.zero
        )
        failing = {name for name, ok, _ in verify_axioms(bad).verdicts if not ok}
        assert "mul-associative" in failing

    def test_failure_carries_witness(self, sc_abc):
        bad = FiniteSemiring(
            sc_abc.elements, mutate(sc_abc.add, 1, 2, 1), sc_abc.mul, sc_abc.zero
        )
        report = verify_axioms(bad)
        witnesses = [w for _, ok, w in report.verdicts if not ok]
        assert witnesses and all(w is not None for w in witnesses)

    def test_ragged_table_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            FiniteSemiring(("a", "b"), ((0, 1), (1,)), ((0, 0), (0, 0)), zero=None)

    @pytest.mark.parametrize(
        "row, bad",
        [
            ((0, 2), "2"),
            ((0, -1), "-1"),
            ((1.0, 0), "1.0"),
            (("0", 5), "'0'"),
            ((5, "x"), "5"),
            ((True, 0), "True"),
        ],
    )
    def test_first_bad_entry_named(self, row, bad):
        """A row that fails the whole-row check is walked for its first bad entry."""
        with pytest.raises(ValueError, match=rf"^mul table entry {re.escape(bad)} is not an element index$"):
            FiniteSemiring(("a", "b"), ((0, 1), (1, 1)), ((0, 1), row), zero=None)

    @pytest.mark.parametrize("zero", (2, -1, True, "0"))
    def test_zero_must_be_an_int_index(self, zero):
        with pytest.raises(ValueError, match=rf"^zero index {re.escape(repr(zero))} out of range$"):
            FiniteSemiring(("a", "b"), ((0, 1), (1, 1)), ((0, 1), (1, 1)), zero=zero)

    def test_list_rows_are_stored_as_tuples(self):
        """A semiring given lists equals and hashes as the one given tuples."""
        as_lists = FiniteSemiring(["0", "1"], [[0, 1], [1, 1]], [(0, 0), [0, 1]], zero=0)
        assert as_lists == BOOL_LATTICE
        assert hash(as_lists) == hash(BOOL_LATTICE)
        assert type(as_lists.elements) is type(as_lists.add) is type(as_lists.mul[1]) is tuple

    def test_tuple_tables_are_kept_not_copied(self):
        elements, add, mul = ("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1))
        s = FiniteSemiring(elements, add, mul, zero=0)
        assert s.elements is elements and s.add is add and s.mul is mul

    @pytest.mark.parametrize("add", [((0, 1), (1, 1)), ((0, 1), (1,))], ids=["table-ok", "ragged"])
    @pytest.mark.parametrize("elements, message", LABEL_REFUSALS)
    def test_labels_are_refused_before_the_tables(self, elements, message, add):
        """A label names one element: labels are distinct strings, checked
        before the tables are read."""
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            FiniteSemiring(elements, add, ((0, 0), (0, 1)), zero=0)


class TestFlatness:
    def test_subword_semirings_flat(self, sc_abc, sc_abcd):
        assert is_flat(sc_abc)
        assert is_flat(sc_abcd)

    def test_the_three_element_example_is_flat(self, s7):
        """1+1 = 1 is fine: flatness only constrains sums of distinct elements."""
        assert is_flat(s7)

    def test_bool_lattice_not_flat(self):
        assert not is_flat(BOOL_LATTICE)

    def test_non_idempotent_addition_not_flat(self):
        """x + x = 0 with all products 0: the zero is absorbing and the additive
        top, yet the table is no semiring of this library."""
        s = FiniteSemiring(("0", "x"), ((0, 0), (0, 0)), ((0, 0), (0, 0)), zero=0)
        assert verify_axioms(s).failing() == ["add-idempotent"]
        assert not is_flat(s)

    def test_trivial_semiring_not_flat(self):
        one = FiniteSemiring(("z",), ((0,),), ((0,),), zero=0)
        assert not is_flat(one)

    def test_zero_is_detected(self, sc_abc):
        assert multiplicative_zero(sc_abc) == sc_abc.index("0")

    def test_no_zero_in_bool_add_reduct(self):
        s = FiniteSemiring(("a", "b"), ((0, 1), (1, 1)), ((0, 1), (1, 0)), zero=None)
        assert multiplicative_zero(s) is None


class TestCancellation:
    def test_families_cancellative(self):
        for kind, idx in [("beam", 2), ("fan", 2), ("n_cycle", 5)]:
            s = build_semiring(family(kind, idx)).exported
            assert is_zero_cancellative(s) is True

    def test_violation_returns_triple(self):
        els = ("z", "a", "b", "c")
        mul = [[0] * 4 for _ in range(4)]
        for i in (1, 2):
            for j in (1, 2):
                mul[i][j] = 3
        add = [[0] * 4 for _ in range(4)]
        for i in range(4):
            add[i][i] = i
        s = FiniteSemiring(
            els, tuple(tuple(r) for r in add), tuple(tuple(r) for r in mul), zero=0
        )
        verdict = is_zero_cancellative(s)
        assert verdict is not True
        a, b, c = verdict
        assert s.mul_label(a, b) == s.mul_label(a, c) != "z"

    def test_requires_designated_zero(self):
        s = FiniteSemiring(("a",), ((0,),), ((0,),), zero=None)
        with pytest.raises(ValueError, match="no zero"):
            is_zero_cancellative(s)

    def test_first_triple_has_the_least_b_not_the_first_repeat(self):
        """Row e1 repeats e3 at c = 3 before it repeats e2 at c = 4, yet
        (e1, e1, e4) comes first in (a, b, c) order."""
        n = 6
        mul = [[0] * n for _ in range(n)]
        mul[1][1:5] = [2, 3, 3, 2]
        add = tuple(tuple(i if i == j else 0 for j in range(n)) for i in range(n))
        s = FiniteSemiring(tuple(f"e{i}" for i in range(n)), add, tuple(map(tuple, mul)), 0)
        assert is_zero_cancellative(s) == ("e1", "e1", "e4")
        assert dense_cancellation_failure(s.elements, s.mul, 0) == ("e1", "e1", "e4")


class TestFlatCompletion:
    def test_completion_reproduces_flat_addition(self, sc_abc):
        again = flat_completion(sc_abc.elements, sc_abc.mul, sc_abc.index("0"))
        assert again.add == sc_abc.add

    def test_rejects_non_associative(self):
        mul = ((0, 0, 0), (0, 2, 0), (0, 1, 0))
        with pytest.raises(ValueError, match=r"^not associative: counterexample \('x', 'x', 'x'\)$"):
            flat_completion(("z", "x", "y"), mul, 0)

    def test_rejects_non_cancellative(self):
        mul = [[0] * 4 for _ in range(4)]
        for i in (1, 2):
            for j in (1, 2):
                mul[i][j] = 3
        with pytest.raises(ValueError, match="cancellative"):
            flat_completion(("z", "a", "b", "c"), tuple(tuple(r) for r in mul), 0)

    def test_rejects_non_absorbing_zero(self):
        mul = ((0, 1), (1, 1))
        with pytest.raises(ValueError, match="absorb"):
            flat_completion(("z", "e"), mul, 0)

    @pytest.mark.parametrize(
        "mul, zero, message",
        [
            (((0, 0), (0,)), 0, "ragged mul table: expected 2x2"),
            (((0, 0), (0, 2)), 0, "mul table entry 2 is not an element index"),
            (((0, 0), (0, True)), 0, "mul table entry True is not an element index"),
            (((0, 0), (0, 0)), 2, "zero index 2 out of range"),
            (((0, 0), (0, 0)), False, "zero index False out of range"),
            # Both wrong: the zero is refused before the table is read.
            (((0, 0), (0, 2)), 2, "zero index 2 out of range"),
            (((0, 0), (0, 1.0)), 0, "mul table entry 1.0 is not an element index"),
            # An unhashable entry is refused, not raised on as a TypeError.
            (((0, 0), (0, [1])), 0, "mul table entry [1] is not an element index"),
        ],
    )
    def test_table_refusals_are_the_constructors(self, mul, zero, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            flat_completion(("z", "e"), mul, zero)

    @pytest.mark.parametrize("zero", [0, 2], ids=["zero-ok", "zero-out-of-range"])
    @pytest.mark.parametrize("elements, message", LABEL_REFUSALS)
    def test_labels_are_refused_before_the_zero_and_table(self, elements, message, zero):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            flat_completion(elements, ((0, 0), (0, 0)), zero)

    def test_list_rows_are_stored_as_tuples(self):
        """a·a = t and every other product 0, given as lists and as tuples."""
        as_lists = flat_completion(["z", "a", "t"], [[0, 0, 0], [0, 2, 0], [0, 0, 0]], 0)
        as_tuples = flat_completion(("z", "a", "t"), ((0, 0, 0), (0, 2, 0), (0, 0, 0)), 0)
        assert as_lists == as_tuples
        assert hash(as_lists) == hash(as_tuples)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([("beam", 1), ("nested", 1), ("n_cycle", 3)]),
    st.data(),
)
def test_flat_sum_law(member, data):
    """Any sum of distinct elements collapses to zero; repeats are absorbed."""
    s = build_semiring(family(*member)).exported
    xs = data.draw(st.lists(st.integers(0, s.size - 1), min_size=2, max_size=5))
    total = xs[0]
    for x in xs[1:]:
        total = s.add[total][x]
    assert total == (xs[0] if len(set(xs)) == 1 else s.zero)



def dense_assoc_failure(elements, table):
    n = len(elements)
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return (elements[a], elements[b], elements[c])
    return None


def dense_verdicts(s):
    """The per-triple scans verify_axioms replaced, kept as the reference."""
    n = s.size
    rng = range(n)
    add, mul, lab = s.add, s.mul, s.elements
    verdicts = []
    bad = dense_assoc_failure(lab, add)
    verdicts.append(("add-associative", bad is None, bad))
    bad = next(((lab[a], lab[b]) for a in rng for b in rng if add[a][b] != add[b][a]), None)
    verdicts.append(("add-commutative", bad is None, bad))
    bad = next(((lab[a],) for a in rng if add[a][a] != a), None)
    verdicts.append(("add-idempotent", bad is None, bad))
    bad = dense_assoc_failure(lab, mul)
    verdicts.append(("mul-associative", bad is None, bad))
    bad = next(
        (
            (lab[a], lab[b], lab[c])
            for a, b, c in itertools.product(rng, rng, rng)
            if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]
        ),
        None,
    )
    verdicts.append(("left-distributive", bad is None, bad))
    bad = next(
        (
            (lab[a], lab[b], lab[c])
            for a, b, c in itertools.product(rng, rng, rng)
            if mul[add[b][c]][a] != add[mul[b][a]][mul[c][a]]
        ),
        None,
    )
    verdicts.append(("right-distributive", bad is None, bad))
    return tuple(verdicts)


def dense_completion_refusal(lab, mul, z):
    """flat_completion's refusal message by the dense scans, or None."""
    n = len(lab)
    bad = dense_assoc_failure(lab, mul)
    if bad is not None:
        return f"not associative: counterexample {bad}"
    for x in range(n):
        if mul[z][x] != z or mul[x][z] != z:
            return f"zero is not absorbing: fails at {lab[x]!r}"
    bad = dense_cancellation_failure(lab, mul, z)
    if bad is not None:
        return f"not 0-cancellative: counterexample {bad}"
    return None


def dense_cancellation_failure(lab, mul, z):
    n = len(lab)
    for prod in (lambda a, b: mul[a][b], lambda a, b: mul[b][a]):
        for a, b, c in itertools.product(range(n), repeat=3):
            if b < c and prod(a, b) != z and prod(a, b) == prod(a, c):
                return (lab[a], lab[b], lab[c])
    return None


def assert_scans_agree(s):
    assert verify_axioms(s).verdicts == dense_verdicts(s)
    if s.size == 0:
        return
    sg = (s.elements, s.mul, s.zero if s.zero is not None else 0)
    want = dense_completion_refusal(*sg)
    if want is None:
        assert flat_completion(*sg).mul == s.mul
    else:
        with pytest.raises(ValueError) as err:
            flat_completion(*sg)
        assert str(err.value) == want


@st.composite
def random_tables(draw):
    n = draw(st.integers(0, 6))
    entry = st.integers(0, max(n - 1, 0))
    rows = st.lists(st.tuples(*[entry] * n), min_size=n, max_size=n).map(tuple)
    zero = draw(st.none() | st.integers(0, n - 1)) if n else None
    return FiniteSemiring(tuple(f"e{i}" for i in range(n)), draw(rows), draw(rows), zero)


@settings(max_examples=100, deadline=None)
@given(random_tables())
@example(FiniteSemiring(("e0", "e1"), ((0, 1), (1, 1)), ((0, 1), (0, 1))))
# No absorbing element, so every entry is non-zero; both tables fail at (e2, e3).
@example(FiniteSemiring(("e0", "e1", "e2", "e3"), *[((1, 1, 2, 3), (1, 0, 3, 2), (2, 3, 3, 0), (3, 2, 3, 1))] * 2))
def test_is_commutative_matches_the_pairwise_definition(s):
    """The add verdict is also verify_axioms' add-commutative one."""
    for op in ("add", "mul"):
        table = getattr(s, op)
        want = all(table[a][b] == table[b][a] for a in range(s.size) for b in range(s.size))
        assert is_commutative(s, op) is want
    axioms = {name: ok for name, ok, _ in verify_axioms(s).verdicts}
    assert axioms["add-commutative"] is is_commutative(s, "add")


def test_the_builtin_tables_are_commutative(sc_abc, s7, triangle_semiring):
    for s in (sc_abc, s7, triangle_semiring, BOOL_LATTICE):
        assert is_commutative(s, "add") and is_commutative(s, "mul")


def test_is_commutative_names_an_operation():
    with pytest.raises(ValueError, match="unknown operation 'sub'"):
        is_commutative(BOOL_LATTICE, "sub")


MUTATION_BASES = {m: build_semiring(family(*m)).exported for m in [("beam", 1), ("nested", 2), ("n_cycle", 4)]}


@settings(max_examples=150, deadline=None)
@given(random_tables())
@example(FiniteSemiring((), (), ()))
@example(FiniteSemiring(("e0",), ((0,),), ((0,),), 0))
def test_row_scans_match_dense_scans_on_random_tables(s):
    """n = 1 takes the single-index gather; most random tables fail early."""
    assert_scans_agree(s)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(MUTATION_BASES)), st.booleans(), st.data())
def test_row_scans_match_dense_scans_on_mutated_families(member, in_add, data):
    """One changed entry of a family semiring, so a failure can come late."""
    s = MUTATION_BASES[member]
    i, j, v = (data.draw(st.integers(0, s.size - 1)) for _ in range(3))
    if in_add:
        s = FiniteSemiring(s.elements, mutate(s.add, i, j, v), s.mul, s.zero)
    else:
        s = FiniteSemiring(s.elements, s.add, mutate(s.mul, i, j, v), s.zero)
    assert_scans_agree(s)


SPARSE_BASES = {
    m: build_semiring(family(*m)).exported
    for m in [("beam", 1), ("beam", 2), ("beam", 3), ("beam", 4), ("fan", 1), ("fan", 2)]
}


def assert_sparse_scans_agree(s):
    assert_scans_agree(s)
    if s.zero is not None:
        bad = dense_cancellation_failure(s.elements, s.mul, s.zero)
        assert is_zero_cancellative(s) == (True if bad is None else bad)


def absorbing_mutation(draw, table, z):
    """Up to three changed entries off row z and column z, so z still absorbs."""
    rows = [list(r) for r in table]
    n = len(rows)
    off_z = st.integers(0, n - 1).filter(lambda i: i != z)
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(off_z)][draw(off_z)] = draw(st.integers(0, n - 1))
    return tuple(tuple(r) for r in rows)


@st.composite
def absorbing_mutants(draw):
    """A sparse base with absorbing_mutation applied to its add or its mul table."""
    s = SPARSE_BASES[draw(st.sampled_from(sorted(SPARSE_BASES)))]
    if draw(st.booleans()):
        return FiniteSemiring(s.elements, absorbing_mutation(draw, s.add, s.zero), s.mul, s.zero)
    return FiniteSemiring(s.elements, s.add, absorbing_mutation(draw, s.mul, s.zero), s.zero)


def _off_row_ab():
    """Flat addition over e0; e1·e2 = e4, e2·e3 = e5 and e1·e5 = e6 are the
    only non-zero products. The first failing pair (e1, e2) has a non-zero
    product e4, and its sides differ only at c = e3, a column of row e2's
    non-zero entries but not of row e4's: (e1·e2)·e3 = 0 != e1·(e2·e3) = e6."""
    n = 7
    mul = [[0] * n for _ in range(n)]
    mul[1][2], mul[2][3], mul[1][5] = 4, 5, 6
    add = tuple(tuple(a if a == b else 0 for b in range(n)) for a in range(n))
    return FiniteSemiring(tuple(f"e{i}" for i in range(n)), add, tuple(map(tuple, mul)), 0)


OFF_ROW_AB = _off_row_ab()


def _sum_off_the_flat_row():
    """Flat addition over e0 except e2 + e4 = e2; e2·e5 = e5 and e4·e2 = e2
    are the only non-zero products. e0 absorbs both tables, but the addition
    is not flat, so the distributive laws are scanned: the left one first
    fails at (e4, e2, e4), the right one at (e5, e2, e4)."""
    n = 6
    add = [[a if a == b else 0 for b in range(n)] for a in range(n)]
    add[2][4] = 2
    mul = [[0] * n for _ in range(n)]
    mul[2][5], mul[4][2] = 5, 2
    return FiniteSemiring(tuple(f"e{i}" for i in range(n)), tuple(map(tuple, add)), tuple(map(tuple, mul)), 0)


def relabel(s, new_index, zero):
    """s with element x moved to index new_index[x], and zero designated."""
    n = s.size

    def table(t):
        rows = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                rows[new_index[a]][new_index[b]] = new_index[t[a][b]]
        return tuple(tuple(r) for r in rows)

    elements = [""] * n
    for x, label in enumerate(s.elements):
        elements[new_index[x]] = label
    return FiniteSemiring(tuple(elements), table(s.add), table(s.mul), zero)


@settings(max_examples=80, deadline=None)
@given(absorbing_mutants())
@example(OFF_ROW_AB)
@example(_sum_off_the_flat_row())
def test_sparse_scans_match_dense_scans_when_the_zero_still_absorbs(s):
    """The zero absorbs in both tables, so associativity compares its
    non-zero triples, and a wrong product off the zero's row and column
    fails late, if at all."""
    assert_sparse_scans_agree(s)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SPARSE_BASES)), st.data())
def test_sparse_scans_find_an_absorbing_element_away_from_index_zero(member, data):
    """The absorbing element moves off index 0, and the designated zero is
    another element or none: the scans find the absorbing element themselves."""
    s = SPARSE_BASES[member]
    s = FiniteSemiring(s.elements, s.add, absorbing_mutation(data.draw, s.mul, s.zero), s.zero)
    new_index = data.draw(st.permutations(range(s.size)).filter(lambda p: p[s.zero] != 0))
    others = st.integers(0, s.size - 1).filter(lambda i: i != new_index[s.zero])
    s = relabel(s, new_index, data.draw(st.none() | others))
    assert multiplicative_zero(s) == new_index[SPARSE_BASES[member].zero]
    assert_sparse_scans_agree(s)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SPARSE_BASES)), st.data())
def test_add_top_away_from_the_mul_zero_takes_the_fallback(member, data):
    """Flat addition whose top is not the mul zero: the distributive laws
    have no common absorbing element and scan every pair."""
    s = SPARSE_BASES[member]
    top = data.draw(st.integers(0, s.size - 1).filter(lambda t: t != s.zero))
    add = tuple(tuple(a if a == b else top for b in range(s.size)) for a in range(s.size))
    s = FiniteSemiring(s.elements, add, absorbing_mutation(data.draw, s.mul, s.zero), s.zero)
    assert multiplicative_zero(s) == s.zero != top
    assert_sparse_scans_agree(s)


def meet(i, j, n):
    """The chain lattice's multiplication, min; 0 absorbs."""
    return min(i, j)


def truncated(i, j, n):
    """i·j = i + j below n, else 0; 0 absorbs: the nilpotent semigroup x, x², …, xⁿ = 0."""
    return 0 if 0 in (i, j) or i + j >= n else i + j


def dense_table(n, add, mul):
    r = range(n)
    return FiniteSemiring(
        tuple(f"e{i}" for i in r),
        tuple(tuple(add(i, j) for j in r) for i in r),
        tuple(tuple(mul(i, j, n) for j in r) for i in r),
        0,
    )


@st.composite
def dense_absorbing_tables(draw):
    """A chain lattice's max or min as the addition, and min or truncated
    addition as the multiplication, over 0..n-1; 0 absorbs under ·, and
    under + too when + is min. Most products are non-zero, so each law's
    non-zero triples stay within the n² count only on the small carriers;
    absorbing_mutation then changes the add or the mul table off row 0."""
    n = draw(st.integers(2, 12))
    s = dense_table(n, draw(st.sampled_from([max, min])), draw(st.sampled_from([meet, truncated])))
    if draw(st.booleans()):
        return FiniteSemiring(s.elements, absorbing_mutation(draw, s.add, 0), s.mul, 0)
    return FiniteSemiring(s.elements, s.add, absorbing_mutation(draw, s.mul, 0), 0)


@settings(max_examples=150, deadline=None)
@given(dense_absorbing_tables())
def test_dense_tables_with_an_absorbing_zero_match_dense_scans(s):
    """Both sides of the n² count: the non-zero triples on the small
    carriers, whole rows on the larger ones."""
    assert_sparse_scans_agree(s)


PATH_TABLES = {
    "beam(16)": (lambda: build_semiring(family("beam", 16)).exported, False),
    "sc_abcd": (lambda: build_sc(["abcd"]), False),
    "s7": (builtin_s7, False),
    "truncated(11)": (lambda: dense_table(11, max, truncated), False),
    "chain(32)": (lambda: dense_table(32, max, meet), True),
    "truncated(12)": (lambda: dense_table(12, max, truncated), True),
    "truncated(61)": (lambda: dense_table(61, max, truncated), True),
}


@pytest.mark.parametrize("name", list(PATH_TABLES))
def test_mul_associativity_reads_triples_within_the_count(name, monkeypatch):
    """A fresh copy, with nothing cached, decides mul-associativity by its
    non-zero triples, or by whole rows where (ab)c has more than n²:
    truncated addition has 120 at n = 11 and 165 at n = 12."""
    make, whole_rows = PATH_TABLES[name]
    s = make()
    calls, row_failure = [], semiring._row_failure
    monkeypatch.setattr(semiring, "_row_failure", lambda *a: calls.append(a) or row_failure(*a))
    fresh = FiniteSemiring(s.elements, s.add, s.mul, s.zero)
    assert fresh._laws.mul_associative is None
    assert len(calls) == whole_rows


def test_the_triples_scan_stops_at_the_first_failing_a(monkeypatch):
    """(e1·e1)·e1 = e3 but e1·(e1·e1) = e0, so mul-associativity fails at
    a = e1: the scan builds the sides of e0 and e1 and of no later row,
    though e5's row has a product too."""
    n = 8
    mul = [[0] * n for _ in range(n)]
    mul[1][1], mul[2][1], mul[5][6] = 2, 3, 7
    lab = tuple(f"e{i}" for i in range(n))
    s = FiniteSemiring(lab, tuple(_flat_row(n, 0, x) for x in range(n)), tuple(map(tuple, mul)), 0)
    calls, over = [], semiring._over_preimages
    monkeypatch.setattr(semiring, "_over_preimages", lambda *a: calls.append(a) or over(*a))
    assert s._laws.mul_associative == dense_assoc_failure(lab, s.mul) == ("e1", "e1", "e1")
    assert len(calls) == 2


@st.composite
def flat_semirings(draw):
    """A flat addition over a zero z anywhere in the carrier and a random
    z-absorbing mul, so associativity and cancellation can each fail; in
    about half the draws one add entry is redrawn, which mostly breaks
    flatness and sends verify_axioms to the general scans."""
    n = draw(st.integers(2, 7))
    z = draw(st.integers(0, n - 1))
    entry = st.just(z) | st.integers(0, n - 1)
    products = iter(draw(st.lists(entry, min_size=n * n, max_size=n * n)))
    mul = tuple(tuple(z if z in (a, b) else next(products) for b in range(n)) for a in range(n))
    add = tuple(_flat_row(n, z, x) for x in range(n))
    if draw(st.booleans()):
        cell = st.integers(0, n - 1)
        add = mutate(add, draw(cell), draw(cell), draw(cell))
    return FiniteSemiring(tuple(f"e{i}" for i in range(n)), add, mul, z)


def dense_is_flat(s):
    """Some z absorbs under · and the add table is the flat addition over z."""
    n = s.size
    return n >= 2 and any(
        all(s.mul[z][x] == z == s.mul[x][z] for x in range(n))
        and s.add == tuple(_flat_row(n, z, x) for x in range(n))
        for z in range(n)
    )


def dense_certificate(s):
    """(flat, two_nil, annihilators) by scanning every product."""
    n, mul = s.size, s.mul

    def annihilates(a, z):
        return all(mul[a][x] == z == mul[x][a] for x in range(n))

    z = next((z for z in range(n) if annihilates(z, z)), None)
    if z is None:
        return (dense_is_flat(s), False, ())
    two_nil = all(mul[x][x] == z for x in range(n))
    ann = tuple(s.elements[a] for a in range(n) if a != z and annihilates(a, z))
    return (dense_is_flat(s), two_nil, ann)


FLAT_CHECKS = {
    "certificate": lambda s: tuple(
        getattr(subdirect_irreducibility_certificate(s), f) for f in ("flat", "two_nil", "annihilators")
    ),
    "axioms": lambda s: verify_axioms(s).verdicts,
    "flat": is_flat,
    "cancellative": is_zero_cancellative,
}


@settings(max_examples=200, deadline=None)
@given(flat_semirings())
@example(FiniteSemiring(("z", "a", "b"), ((0, 0, 0), (0, 1, 0), (0, 0, 2)), ((0, 0, 0), (0, 2, 2), (0, 0, 0)), 0))
def test_flat_axioms_certificate_and_flatness_match_dense_scans(s):
    """On a flat semiring the view reads the additive laws as holding and
    each distributive law off the cancellation scan of its side; the
    certificate reads its non-zero entries. Each check agrees with a dense
    scan, run first (the certificate, as perfbench does) or last, on a
    fresh copy each time so that no verdict is cached from the other order.
    The example fails left-distributivity at (a, a, b), a·a = a·b = b, and
    holds right-distributive."""
    bad = dense_cancellation_failure(s.elements, s.mul, s.zero)
    want = {
        "certificate": dense_certificate(s),
        "axioms": dense_verdicts(s),
        "flat": dense_is_flat(s),
        "cancellative": True if bad is None else bad,
    }
    for order in (list(FLAT_CHECKS), list(FLAT_CHECKS)[::-1]):
        fresh = FiniteSemiring(s.elements, s.add, s.mul, s.zero)
        assert {step: FLAT_CHECKS[step](fresh) for step in order} == want


def law_outcomes(s, order):
    """verify_axioms, is_zero_cancellative and flat_completion on s, run in
    the given order; the completion's own laws are read back too."""
    out = {}
    for step in order:
        if step == "axioms":
            out[step] = verify_axioms(s).verdicts
        elif step == "cancellative":
            out[step] = is_zero_cancellative(s)
        else:
            try:
                t = flat_completion(s.elements, s.mul, s.zero)
            except ValueError as exc:
                out[step] = str(exc)
            else:
                out[step] = (t == s, verify_axioms(t).verdicts, is_zero_cancellative(t))
    return out


LAW_STEPS = ("axioms", "cancellative", "completion")


FAMILY_MEMBERS = _family_members()


BUILT_MEMBERS = FAMILY_MEMBERS + [
    ("nonuniform-sample", sample_nonuniform()),
    ("pendant-sample", sample_pendant()),
]


@pytest.mark.parametrize("h", [h for _, h in BUILT_MEMBERS], ids=[m for m, _ in BUILT_MEMBERS])
def test_a_built_table_passes_the_constructors_check(h):
    """build_semiring skips the entry check, trusting its tables; the public
    constructor, which checks every entry, accepts them unchanged."""
    s = build_semiring(h).exported
    assert FiniteSemiring(s.elements, s.add, s.mul, s.zero) == s


@pytest.mark.parametrize("words", ["ab", "abc", "aab", "abcd"])
def test_a_subword_table_passes_the_constructors_check(words):
    s = build_sc([words])
    assert FiniteSemiring(s.elements, s.add, s.mul, s.zero) == s


@pytest.mark.parametrize("h", [h for _, h in FAMILY_MEMBERS], ids=[m for m, _ in FAMILY_MEMBERS])
def test_the_law_view_cache_is_invisible(h):
    """The law view a semiring caches, filled in by flat_completion for a
    built one, gives the verdicts and counterexamples of a parsed copy with
    nothing cached, whichever check runs first. Two mutants of each member
    fail: one keeps the zero absorbing (the non-zero triples), one does not
    (the whole-row fallback)."""
    base = build_semiring(h).exported
    top = base.size - 1
    a, b = next(
        (a, b) for a, row in enumerate(base.mul) for b, v in enumerate(row) if v not in (0, top)
    )
    makers = [lambda: build_semiring(h).exported] + [
        lambda i=i, j=j, v=v: FiniteSemiring(base.elements, base.add, mutate(base.mul, i, j, v), 0)
        for i, j, v in ((a, b, top), (0, 1, 1))
    ]
    for make in makers:
        want = law_outcomes(parse_semiring(format_semiring(make())), LAW_STEPS)
        assert law_outcomes(make(), LAW_STEPS) == want
        assert law_outcomes(make(), LAW_STEPS[::-1]) == want


@pytest.mark.parametrize("absorbing", [True, False])
def test_the_law_view_makes_no_reference_cycle(absorbing):
    """Dropping a checked semiring's last reference frees it and its law
    view at once, with the cycle collector off."""
    gc.disable()
    try:
        s = build_semiring(family("beam", 2)).exported
        if not absorbing:
            s = FiniteSemiring(s.elements, s.add, mutate(s.mul, 0, 1, 1), s.zero)
        verify_axioms(s)
        is_zero_cancellative(s)
        refs = [weakref.ref(x) for x in (s, s._laws, s._laws.mul_cols)]
        del s
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


class TestCertificates:
    def test_triangle_certificate(self, triangle_semiring):
        cert = subdirect_irreducibility_certificate(triangle_semiring)
        assert cert.granted
        assert cert.annihilators == ("TOP",)

    def test_s7_lacks_two_nil(self, s7):
        cert = subdirect_irreducibility_certificate(s7)
        assert cert.flat
        assert not cert.two_nil
        assert not cert.granted

    def test_annihilator_really_annihilates(self):
        s = build_semiring(family("fan", 2)).exported
        cert = subdirect_irreducibility_certificate(s)
        assert cert.granted
        t = s.index(cert.annihilators[0])
        assert all(s.mul[t][x] == s.zero and s.mul[x][t] == s.zero for x in range(s.size))

    def test_bool_lattice_not_certified(self):
        cert = subdirect_irreducibility_certificate(BOOL_LATTICE)
        assert not cert.granted

    def test_annihilator_needs_a_zero_column_too(self):
        """a·x = 0 for every x, but b·a = a, so a annihilates only from the left."""
        mul = ((0, 0, 0), (0, 0, 0), (0, 1, 0))
        add = ((0, 0, 0), (0, 1, 0), (0, 0, 2))
        cert = subdirect_irreducibility_certificate(FiniteSemiring(("0", "a", "b"), add, mul, 0))
        assert cert.flat
        assert cert.annihilators == ()


class TestSerialization:
    def test_round_trip(self, sc_abcd):
        for s in (sc_abcd, build_semiring(family("beam", 2)).exported):
            text = format_semiring(s)
            parsed = parse_semiring(text)
            assert parsed.elements == s.elements
            assert parsed.add == s.add
            assert parsed.mul == s.mul
            assert parsed.zero == s.zero
            # Each table row is one line of its own.
            lines = text.splitlines()
            assert len(lines) == 2 * s.size + 8
            for name, table in (("add", s.add), ("mul", s.mul)):
                i = lines.index(f'  "{name}": [') + 1
                rows = lines[i : i + s.size]
                assert [tuple(json.loads(line.rstrip(","))) for line in rows] == list(table)
                assert lines[i + s.size] == "  ],"

    def test_flat_row_major_accepted(self):
        doc = '{"elements": ["z", "e"], "add": [0, 1, 1, 1], "mul": [0, 0, 0, 1], "zero": 0}'
        s = parse_semiring(doc)
        assert s.add == ((0, 1), (1, 1))

    def test_bad_entry_rejected(self):
        doc = '{"elements": ["z"], "add": [[5]], "mul": [[0]], "zero": 0}'
        with pytest.raises(SemiringParseError):
            parse_semiring(doc)

    @pytest.mark.parametrize(
        "add, zero, message",
        [
            ("[[0, 1], [1]]", "0", "ragged add table: expected 2x2"),
            ("[[0, 1]]", "0", "ragged add table: expected 2x2"),
            ("[[0, 1], [1, 2]]", "0", "add table entry 2 is not an element index"),
            ("[[0, true], [true, true]]", "0", "add table entry True is not an element index"),
            ("[[0, 1], 1]", "0", "'add' rows must be lists"),
            ("[[0, 1], [1, 1]]", "2", "zero index 2 out of range"),
            ("[[0, 1], [1, 1]]", '"0"', "zero index '0' out of range"),
            ("[[0, 1], [1, 1]]", "false", "zero index False out of range"),
        ],
    )
    def test_refusal_messages(self, add, zero, message):
        doc = f'{{"elements": ["0", "x"], "add": {add}, "mul": [[0, 0], [0, 1]], "zero": {zero}}}'
        with pytest.raises(SemiringParseError, match=rf"^{re.escape(message)}$"):
            parse_semiring(doc)

    @pytest.mark.parametrize(
        "add, message",
        [
            ("[[0, 1], [1, 1]]", "duplicate element labels"),
            # The document's shape is read first, then the constructor's labels.
            ("[[0, 1], 1]", "'add' rows must be lists"),
            ("[[0, 1], [1]]", "duplicate element labels"),
        ],
    )
    def test_duplicate_labels_are_refused_by_the_constructor(self, add, message):
        doc = f'{{"elements": ["x", "x"], "add": {add}, "mul": [[0, 0], [0, 1]], "zero": 0}}'
        with pytest.raises(SemiringParseError, match=rf"^{re.escape(message)}$"):
            parse_semiring(doc)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(SemiringParseError, match="^not valid JSON: maximum recursion depth"):
            parse_semiring("[" * 100_000 + "]" * 100_000)

    def test_garbage_rejected(self):
        with pytest.raises(SemiringParseError):
            parse_semiring("[1, 2, 3]")
