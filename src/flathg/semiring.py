"""Finite semirings as explicit operation tables.

The FiniteSemiring value is the exchange format every other module builds or
consumes: an ordered tuple of element labels plus index-valued addition and
multiplication tables. What comes from outside is checked: the labels,
distinct strings, then the entries, a row at a time; by the constructor,
which the parser goes through, and by flat_completion, for the caller's
labels, zero and mul table. Both store lists as tuples, so equality and
hashing do not depend on which was given. The library's builders
(build_semiring, build_sc, the subpower closure, the ideal quotient) fill
their tables from element indices and skip those checks through
FiniteSemiring._trusted. Law checks are exhaustive: a law is decided on
every triple of elements, and a failure is reported with its first
counterexample in lexicographic order (a, b, c).

The semirings of this library are flat: the zero absorbs under · and is the
top for +, so almost every product is the zero. Associativity uses that,
after first checking it. Where its table has an absorbing element z (for the
add table of a flat semiring, that is its top), the law holds exactly when
(ab)c and a(bc) have the same non-zero triples, compared per a, in order, as
dicts b -> c -> value; the first counterexample is the least (b, c) where
they differ at the first a that does. (ab)c is the rows ab of the non-zero b
of row a, read in place; a(bc) is row a read through the preimages of its
columns (x -> the pairs (b, c) with bc = x). So, beside the preimages (a
pair per non-zero product), a check holds one a's sides at a time. It takes
this route where the non-zero (ab)c number at most n², as many lookups as
whole rows make pairs; otherwise each pair (a, b) compares two whole rows,
gathered in C. Associativity alone has two scans, since it is read on every
flat table (by flat_completion and is_flat_semiring), sparse or dense. Every
other law has one: the distributive laws, scanned only on tables that are
not flat (see below), compare whole rows; commutativity compares the
non-zero entries of row a and column a (where no element absorbs, every
entry is non-zero); and the cancellation check keeps, per row and per
column, the first index of each non-zero value, so it reads each entry once.

A semiring keeps one law view of its tables, built on first use: each
table's absorbing element and non-zero entries, whether the semiring is
flat, and each law's first counterexample. Every check here reads it, so
each table is scanned once per semiring, and flat_completion hands over
its flat addition already known; the isomorphism search and the flat
identity checker read its non-zero entries too. On a flat semiring
(the mul zero z is the top of x + y = z for x != y) the additive laws hold,
and each distributive law is the cancellation law of its side: for b != c,
a(b+c) = a·z = z, and ab + ac is ab if ab = ac and z otherwise, so the law
fails exactly where ab = ac != z (for b = c it holds, + being idempotent).
The least failing (a, b, c) is the first repeat in the first row (or
column) with one, which the cancellation scan reports, so a semiring that
flat_completion built leaves verify_axioms nothing to scan. So "flat and a
semiring" is flatness, associativity and cancellation: is_flat_semiring,
which every flat fast path (the flat checker, the Rees quotient) reads.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, ne


class SemiringParseError(ValueError):
    """Malformed exchange document, as opposed to a semiring failing a law."""


@dataclass(frozen=True)
class FiniteSemiring:
    """Element labels with row-major add and mul tables over element indices."""

    elements: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int | None = None

    def __post_init__(self):
        _check_labels(self.elements)
        _check_shape(self.elements, self.add, "add")
        _check_shape(self.elements, self.mul, "mul")
        if self.zero is not None:
            _check_zero(self.zero, len(self.elements))
        # Lists become tuples, so the semiring equals and hashes as the one
        # given tuples; what is already a tuple is kept, not copied.
        vars(self).update(
            elements=_as_tuple(self.elements), add=_as_rows(self.add), mul=_as_rows(self.mul)
        )

    @classmethod
    def _trusted(cls, elements, add, mul, zero=None) -> FiniteSemiring:
        """A semiring over tables the library built itself from element
        indices: the fields are set as given, without the entry check."""
        s = object.__new__(cls)
        vars(s).update(elements=elements, add=add, mul=mul, zero=zero)
        return s

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        return self.elements.index(label)

    def add_label(self, a: str, b: str) -> str:
        return self.elements[self.add[self.index(a)][self.index(b)]]

    def mul_label(self, a: str, b: str) -> str:
        return self.elements[self.mul[self.index(a)][self.index(b)]]

    @cached_property
    def byte_tables(self) -> tuple[list[bytes], ...]:
        """The rows and columns of add, then those of mul, each padded to a
        256-byte `bytes.translate` table: byte b of row x is x∘b, and of
        column y it is b∘y. Last, each element's constant vector, the element
        repeated once per element. For carriers of at most 256 elements;
        built on first use, once per semiring."""
        n, pad = self.size, bytes(256 - self.size)
        out = []
        for table in (self.add, self.mul):
            flat = bytes(itertools.chain.from_iterable(table))
            rows = [flat[x * n : (x + 1) * n] + pad for x in range(n)]
            out += rows, [flat[y::n] + pad for y in range(n)]
        out.append([bytes((c,)) * n for c in range(n)])
        return tuple(out)

    @cached_property
    def _laws(self) -> _Laws:
        """The law view of the tables; built on first use, once per semiring."""
        return _Laws(self.elements, self.add, self.mul)


@dataclass(frozen=True)
class AxiomReport:
    """One verdict per axiom; a failed axiom carries its first counterexample."""

    verdicts: tuple[tuple[str, bool, tuple[str, ...] | None], ...]

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)

    def failing(self) -> list[str]:
        return [name for name, ok, _ in self.verdicts if not ok]


def _check_labels(elements) -> None:
    """Each label a string, and no label twice, so a label names one element."""
    for e in elements:
        if not isinstance(e, str):
            raise ValueError(f"element label {e!r} is not a string")
    if len(set(elements)) != len(elements):
        raise ValueError("duplicate element labels")


def _check_shape(elements: tuple[str, ...], table, name: str) -> None:
    """n rows of n element indices; an index is an int, and a bool is not one."""
    n = len(elements)
    if len(table) != n or any(len(row) != n for row in table):
        raise ValueError(f"ragged {name} table: expected {n}x{n}")
    indices, ints = frozenset(range(n)), {int}
    for row in table:
        # Types first: issuperset would pass True and 1.0, and raise on a list.
        if set(map(type, row)) <= ints and indices.issuperset(row):
            continue
        for v in row:
            if type(v) is not int or not 0 <= v < n:
                raise ValueError(f"{name} table entry {v!r} is not an element index")


def _as_tuple(seq) -> tuple:
    return seq if isinstance(seq, tuple) else tuple(seq)


def _as_rows(table) -> tuple[tuple[int, ...], ...]:
    """The table as a tuple of tuple rows, copying only what is not a tuple."""
    if isinstance(table, tuple) and all(isinstance(row, tuple) for row in table):
        return table
    return tuple(map(_as_tuple, table))


def _check_zero(zero, n: int) -> None:
    if type(zero) is not int or not 0 <= zero < n:
        raise ValueError(f"zero index {zero!r} out of range")


def _absorbing(table) -> int | None:
    """The element z whose row and column in the table are all z, if any."""
    n = len(table)
    for z, row in enumerate(table):
        if row.count(z) == n and all(r[z] == z for r in table):
            return z
    return None


def _nonzero(table, z) -> list[dict[int, int]]:
    """Per row, its entries whose value is not z, as column -> value in
    column order. compress picks the columns in C; when z is 0, the index the
    builders give the zero, a row of int entries is its own selector."""
    n = len(table)
    cols, zs = tuple(range(n)), (z,) * n
    return [
        {c: row[c] for c in itertools.compress(cols, row if z == 0 else map(ne, row, zs))}
        for row in table
    ]


def gather(indices):
    """g with g(seq) == tuple(seq[i] for i in indices), gathered in C; at
    least one index."""
    if len(indices) == 1:
        # itemgetter with one index returns a bare item, not a 1-tuple.
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


class _Table:
    """A square table with what the law scans read from it, each computed
    once on first use, so the laws that share a table share these too. A
    builder that already knows the absorbing element and the non-zero
    entries assigns them instead."""

    def __init__(self, rows):
        self.rows = rows

    @cached_property
    def zero(self) -> int | None:
        """The absorbing element."""
        return _absorbing(self.rows)

    @cached_property
    def nonzero(self) -> list[dict[int, int]]:
        """Per row, the entries that are not the absorbing element."""
        return _nonzero(self.rows, self.zero)

    @cached_property
    def preimages(self) -> list[list[tuple[int, int]]]:
        """Per value x, the pairs (b, c) of the non-zero entries equal to x."""
        out = [[] for _ in self.rows]
        for b, entries in enumerate(self.nonzero):
            for c, x in entries.items():
                out[x].append((b, c))
        return out

    @cached_property
    def gathers(self) -> list:
        """One gather per row r: g(seq) == tuple(seq[i] for i in r)."""
        return list(map(gather, self.rows))


class _Columns(_Table):
    """The columns of a table as the rows of a table. Its non-zero entries
    are the table's, regrouped in O(nnz); the dense transpose is built only
    for a law that reads it."""

    def __init__(self, table: _Table):
        self.table = table

    @cached_property
    def rows(self):
        return tuple(zip(*self.table.rows))

    @cached_property
    def nonzero(self) -> list[dict[int, int]]:
        cols: list[dict[int, int]] = [{} for _ in self.table.rows]
        for b, entries in enumerate(self.table.nonzero):
            for c, v in entries.items():
                cols[c][b] = v
        return cols


def _first_difference(left, right) -> int:
    return next(c for c, (x, y) in enumerate(zip(left, right)) if x != y)


def _first_key_difference(left: dict, right: dict):
    """The least key where two dicts differ, as a key of one only or in value."""
    return min(k for k in left.keys() | right.keys() if left.get(k) != right.get(k))


def _row_failure(elements, rows, sides) -> tuple[str, str, str] | None:
    """The first failing triple (a, b, c) of a law by whole rows, or None:
    per pair (a, b), with ab read from rows[a], sides(a, b, ab) gives both
    sides of the law for every c, as two rows gathered in C."""
    for a, row_a in enumerate(rows):
        for b, ab in enumerate(row_a):
            left, right = sides(a, b, ab)
            if left != right:
                return (elements[a], elements[b], elements[_first_difference(left, right)])
    return None


def _triple_failure(elements, sides) -> tuple[str, str, str] | None:
    """The first failing triple (a, b, c) of a law, or None: sides yields, per
    a in order, both sides' non-zero entries as dicts b -> c -> value."""
    for a, (left, right) in enumerate(sides):
        if left != right:
            b = _first_key_difference(left, right)
            c = _first_key_difference(left.get(b, {}), right.get(b, {}))
            return (elements[a], elements[b], elements[c])
    return None


def _over_preimages(row: dict[int, int], preimages) -> dict[int, dict[int, int]]:
    """b -> c -> row[x] for each pair (b, c) whose entry x is a non-zero
    column of row: a∘(b•c) for row a of ∘ and the preimages of •."""
    side: dict[int, dict[int, int]] = {}
    for x, v in row.items():
        for b, c in preimages[x]:
            side.setdefault(b, {})[c] = v
    return side


def _assoc_failure(elements, t: _Table) -> tuple[str, str, str] | None:
    """The first triple (a, b, c) with (ab)c != a(bc), as labels, or None, per
    a or by whole rows: row ab holds (ab)c, and row a through row b a(bc)."""
    if t.zero is not None:
        rows = t.nonzero
        if sum(len(rows[x]) for row in rows for x in row.values()) <= len(elements) ** 2:
            left = ({b: rows[x] for b, x in r.items() if rows[x]} for r in rows)
            right = (_over_preimages(r, t.preimages) for r in rows)
            return _triple_failure(elements, zip(left, right))
    return _row_failure(elements, t.rows, lambda a, b, ab: (t.rows[ab], t.gathers[b](t.rows[a])))


def _distributive_failure(elements, add: _Table, m: _Table) -> tuple[str, str, str] | None:
    """The first triple (a, b, c) with a(b+c) != ab + ac, as labels, or None,
    by whole rows: row a through sum row b against sum row ab through row a.
    m is the mul rows, or the columns for (b+c)a = ba + ca."""
    return _row_failure(
        elements, m.rows, lambda a, b, ab: (add.gathers[b](m.rows[a]), m.gathers[a](add.rows[ab]))
    )


def _commutativity_failure(elements, t: _Table, cols: _Columns) -> tuple[str, str] | None:
    """The first pair (a, b) with ab != ba, as labels, or None: the first row
    a whose non-zero entries differ from those of column a (without an
    absorbing element, every entry is non-zero)."""
    pairs = enumerate(zip(t.nonzero, cols.nonzero))
    return next(
        ((elements[a], elements[_first_key_difference(row, col)]) for a, (row, col) in pairs if row != col),
        None,
    )


class _Laws:
    """One view of a semiring's tables for its law checks: each table's
    absorbing element, non-zero entries, preimages and columns, flatness, and
    each law's first counterexample, computed once on first use. It holds the
    tables, not the semiring, so caching it forms no reference cycle."""

    def __init__(self, elements, add, mul):
        self.elements = elements
        self.add, self.mul = _Table(add), _Table(mul)

    @cached_property
    def mul_cols(self) -> _Columns:
        return _Columns(self.mul)

    @cached_property
    def flat(self) -> bool:
        """is_flat: the mul table's absorbing element z is the top of a flat
        addition. Each add row is read by counting its z entries, in C."""
        n, z, rows = len(self.elements), self.mul.zero, self.add.rows
        if n < 2 or z is None or rows[z].count(z) != n:
            return False
        return all(row[x] == x and row.count(z) == n - 1 for x, row in enumerate(rows) if x != z)

    @cached_property
    def add_commutative(self) -> tuple[str, str] | None:
        if self.flat:
            return None
        return _commutativity_failure(self.elements, self.add, _Columns(self.add))

    @cached_property
    def mul_commutative(self) -> tuple[str, str] | None:
        return _commutativity_failure(self.elements, self.mul, self.mul_cols)

    @cached_property
    def mul_associative(self) -> tuple[str, str, str] | None:
        return _assoc_failure(self.elements, self.mul)

    @cached_property
    def left_cancellation(self) -> tuple[str, str, str] | None:
        """The first (a, b, c), b < c, with a·b = a·c != z, as labels, or None."""
        return _cancellation_failure(self.elements, self.mul.nonzero)

    @cached_property
    def right_cancellation(self) -> tuple[str, str, str] | None:
        """The first (a, b, c), b < c, with b·a = c·a != z, as labels, or None."""
        return _cancellation_failure(self.elements, self.mul_cols.nonzero)

    @property
    def cancellation(self) -> tuple[str, str, str] | None:
        """The first left cancellation failure, else the first right one."""
        return self.left_cancellation or self.right_cancellation

    @cached_property
    def axioms(self) -> tuple[tuple[str, tuple[str, ...] | None], ...]:
        """Each axiom of verify_axioms with its first counterexample, or None,
        derived from flatness where it holds (see the module docstring)."""
        lab, add, mul = self.elements, self.add, self.mul
        if self.flat:
            add_assoc = idempotent = None
            left, right = self.left_cancellation, self.right_cancellation
        else:
            add_assoc = _assoc_failure(lab, add)
            idempotent = next(((lab[x],) for x, row in enumerate(add.rows) if row[x] != x), None)
            left = _distributive_failure(lab, add, mul)
            right = _distributive_failure(lab, add, self.mul_cols)
        return (
            ("add-associative", add_assoc),
            ("add-commutative", self.add_commutative),
            ("add-idempotent", idempotent),
            ("mul-associative", self.mul_associative),
            ("left-distributive", left),
            ("right-distributive", right),
        )


def verify_axioms(s: FiniteSemiring) -> AxiomReport:
    """Exhaustively test the additively idempotent semiring axioms.

    Checks associativity of both operations, commutativity and idempotency
    of addition, and two-sided distributivity. The first counterexample per
    axiom is reported as element labels. The verdicts are read from the
    semiring's law view, so they are decided once per semiring.
    """
    return AxiomReport(tuple((name, bad is None, bad) for name, bad in s._laws.axioms))


def multiplicative_zero(s: FiniteSemiring) -> int | None:
    """Index of the two-sided multiplicative zero, if one exists."""
    return s._laws.mul.zero


def is_commutative(s: FiniteSemiring, op: str) -> bool:
    """True when a∘b == b∘a for all a, b, where ∘ is s's "add" or "mul";
    decided once per semiring, in its law view."""
    if op not in ("add", "mul"):
        raise ValueError(f"unknown operation {op!r}")
    return getattr(s._laws, f"{op}_commutative") is None


def _flat_row(n: int, z: int, x: int) -> tuple[int, ...]:
    """Row x of the flat addition: x + x = x and x + y = z for y != x."""
    row = [z] * n
    row[x] = x
    return tuple(row)


def is_flat(s: FiniteSemiring) -> bool:
    """True when a multiplicative zero exists that is the additive top,
    addition is idempotent, and every sum of two distinct elements collapses
    to the zero; decided once per semiring, in its law view.

    A one-element carrier is not flat: the defining addition needs at least
    one distinct pair to collapse.
    """
    return s._laws.flat


def is_flat_semiring(s: FiniteSemiring) -> bool:
    """is_flat(s) and verify_axioms(s).all_pass, read as flatness first and
    then the two laws a flat table can break (see the module docstring)."""
    laws = s._laws
    return laws.flat and laws.mul_associative is None and laws.cancellation is None


def _first_repeat(entries) -> tuple[int, int] | None:
    """The least (b, c), b < c, whose values agree, from (index, value) pairs
    in index order, or None."""
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for c, v in entries:
        if v in first:
            second.setdefault(v, c)
        else:
            first[v] = c
    if not second:
        return None
    v = min(second, key=first.__getitem__)
    return first[v], second[v]


def _cancellation_failure(elements, lines) -> tuple[str, str, str] | None:
    """The first (a, b, c), b < c, whose entries b and c of line a agree, as
    labels, or None; lines holds, per row (or per column) of the mul table,
    its entries other than z."""
    for a, entries in enumerate(lines):
        pair = _first_repeat(entries.items())
        if pair is not None:
            b, c = pair
            return (elements[a], elements[b], elements[c])
    return None


def is_zero_cancellative(s: FiniteSemiring) -> bool | tuple[str, str, str]:
    """Check both cancellation laws: a·b = a·c != 0 forces b = c, on either side.

    Returns True, or the first violating triple (a, b, c) as labels. Note the
    returned tuple is truthy; compare against True rather than relying on
    truthiness.
    """
    if s.zero is None:
        raise ValueError("no zero designated")
    laws = s._laws
    if laws.mul.zero != s.zero:
        # A designated zero that does not absorb: a view of its own, not kept.
        laws = _Laws(s.elements, s.add, s.mul)
        laws.mul.zero = s.zero
    bad = laws.cancellation
    return True if bad is None else bad


def flat_completion(elements: tuple[str, ...], mul, zero: int) -> FiniteSemiring:
    """Extend a multiplication table with a zero to a flat semiring.

    The addition is forced: x + x = x and x + y = 0 for x != y. This yields
    a genuine semiring exactly when the table is associative, zero-absorbing
    and 0-cancellative. The caller's labels, zero and then its mul table are
    checked as the semiring's constructor checks them (the addition is built
    here from the checked zero, so it is not read again), then those three
    laws are checked and a violation is refused by name.
    """
    _check_labels(elements)
    _check_zero(zero, len(elements))
    _check_shape(elements, mul, "mul")
    return _flat_completion(_as_tuple(elements), _as_rows(mul), zero)


def _flat_completion(elements: tuple[str, ...], mul, zero: int) -> FiniteSemiring:
    """flat_completion of a mul table that the library built from element
    indices: the three laws are checked, the table's entries are not."""
    n = len(elements)
    s = FiniteSemiring._trusted(elements, tuple(_flat_row(n, zero, x) for x in range(n)), mul, zero)
    # The flat addition's zero absorbs, and x + x = x is its only other entry.
    laws = s._laws
    laws.add.zero = zero
    laws.add.nonzero = [{x: x} if x != zero else {} for x in range(n)]
    bad = laws.mul_associative
    if bad is not None:
        raise ValueError(f"not associative: counterexample {bad}")
    for x in range(n):
        if mul[zero][x] != zero or mul[x][zero] != zero:
            raise ValueError(f"zero is not absorbing: fails at {elements[x]!r}")
    # zero absorbs, so it is the mul table's absorbing element and add's top.
    laws.flat = n >= 2
    cancel = laws.cancellation
    if cancel is not None:
        raise ValueError(f"not 0-cancellative: counterexample {cancel}")
    return s


@dataclass(frozen=True)
class IrreducibilityCertificate:
    """The checkable certificate: flat, square-vanishing, and the non-zero
    annihilator set, granted only when that set is a singleton."""

    flat: bool
    two_nil: bool
    annihilators: tuple[str, ...]

    @property
    def granted(self) -> bool:
        return self.flat and self.two_nil and len(self.annihilators) == 1


def subdirect_irreducibility_certificate(s: FiniteSemiring) -> IrreducibilityCertificate:
    """Compute the three certificate ingredients from the tables.

    two_nil means x·x = 0 for every x; an annihilator is a non-zero element
    whose product with anything, on either side, is zero. Without a
    multiplicative zero both predicates are vacuously false.
    """
    laws = s._laws
    z = laws.mul.zero
    if z is None:
        return IrreducibilityCertificate(flat=False, two_nil=False, annihilators=())
    rows, cols = laws.mul.nonzero, laws.mul_cols.nonzero
    two_nil = not any(x in row for x, row in enumerate(rows))
    ann = tuple(s.elements[a] for a in range(s.size) if a != z and not rows[a] and not cols[a])
    return IrreducibilityCertificate(flat=laws.flat, two_nil=two_nil, annihilators=ann)


def format_semiring(s: FiniteSemiring) -> str:
    """Serialize to the exchange document: elements, add, mul, zero.

    Each table row is one line, written by the C JSON encoder (an indent
    would force the pure-Python one, and a line per entry).
    """

    def table(rows) -> str:
        return "[" + ",".join(f"\n    {json.dumps(row)}" for row in rows) + "\n  ]"

    return (
        f'{{\n  "elements": {json.dumps(s.elements)},\n  "add": {table(s.add)},\n'
        f'  "mul": {table(s.mul)},\n  "zero": {json.dumps(s.zero)}\n}}\n'
    )


def parse_semiring(text: str) -> FiniteSemiring:
    """Read a semiring from the exchange document produced by format_semiring."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SemiringParseError(f"not valid JSON: {exc}") from exc
    return semiring_from_document(data)


def semiring_from_document(data) -> FiniteSemiring:
    """Read a semiring from the decoded exchange document.

    Tables may be given either as nested rows or as one flat row-major list.
    """
    if not isinstance(data, dict):
        raise SemiringParseError("top level must be an object")
    missing = {"elements", "add", "mul"} - set(data)
    if missing:
        raise SemiringParseError(f"missing fields: {', '.join(sorted(missing))}")
    elements = data["elements"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise SemiringParseError("'elements' must be a list of strings")
    n = len(elements)

    def table(field: str) -> tuple[tuple[int, ...], ...]:
        raw = data[field]
        if not isinstance(raw, list):
            raise SemiringParseError(f"'{field}' must be a list")
        if raw and all(isinstance(v, int) for v in raw):
            if len(raw) != n * n:
                raise SemiringParseError(f"'{field}' flat table must have {n * n} entries")
            raw = [raw[i * n : (i + 1) * n] for i in range(n)]
        if not all(isinstance(row, list) for row in raw):
            raise SemiringParseError(f"'{field}' rows must be lists")
        return tuple(map(tuple, raw))

    zero = data.get("zero")
    if zero is not None and type(zero) is not int:
        raise SemiringParseError(f"zero index {zero!r} out of range")
    add, mul = table("add"), table("mul")
    try:
        return FiniteSemiring(tuple(elements), add, mul, zero)
    except ValueError as exc:
        raise SemiringParseError(str(exc)) from exc
