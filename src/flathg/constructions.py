"""Closures, ideal quotients, isomorphism search, and witness pipelines.

Each witness re-runs one containment argument end to end on concrete
tables: build the base semiring, take a direct power, close the prescribed
generator tuples under both operations, collapse the prescribed ideal, and
search for an isomorphism onto the claimed target. Nothing is taken on
trust; a stage that cannot be completed shows up as a failed stage in the
report rather than an exception, so the report always tells the full story.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain, islice, permutations, zip_longest

from .coloring import enumerate_strong_colorings
from .hg_semiring import build_semiring
from .hypergraph import Hypergraph, family, leaf_edges, sub_hypergraph, validate
from .semiring import (FiniteSemiring, _flat_row, gather, is_commutative, is_flat, is_flat_semiring,
                       multiplicative_zero)
from .terms import MAX_NESTED_INDEX, check_identity_flat, nested_identity
from .words import build_sc

CLOSURE_CAP_DEFAULT = 100_000
COLORINGS_CAP_DEFAULT = 10_000


def _zero_of(s: FiniteSemiring) -> int | None:
    """The designated zero, else the multiplicative zero, else None."""
    return s.zero if s.zero is not None else multiplicative_zero(s)


def _power_label(base: FiniteSemiring, x: tuple[int, ...]) -> str:
    if len(x) == 1:
        return base.elements[x[0]]
    return "(" + ",".join(base.elements[i] for i in x) + ")"


def _power_element(base: FiniteSemiring, entries) -> tuple[int, ...]:
    """A power element given as a tuple of base labels or of base indices.

    An index is an int, and a bool is not one; a tuple with any str in it
    is read as labels, every one of which must be a base label.
    """
    entries = tuple(entries)
    # Indices all in range, checked in C; the loops below name a bad entry.
    if set(map(type, entries)) == {int} and 0 <= min(entries) and max(entries) < base.size:
        return entries
    if any(isinstance(e, str) for e in entries):
        for e in entries:
            if not isinstance(e, str) or e not in base.elements:
                raise ValueError(f"coordinate {e!r} is not an element label")
        return tuple(map(base.index, entries))
    for e in entries:
        if type(e) is not int or not 0 <= e < base.size:
            raise ValueError(f"coordinate {e!r} is not an element index")
    return entries


@dataclass(frozen=True)
class GeneratedSubsemiring:
    """The least subset of a direct power of `base` that contains the
    generators and is closed under both componentwise operations.

    `elements` lists the tuples in discovery order; `semiring` holds the
    operation tables over their indices, labelled like `(a,bc)`.
    """

    base: FiniteSemiring
    generators: tuple[tuple[int, ...], ...]
    elements: tuple[tuple[int, ...], ...]
    semiring: FiniteSemiring

    @property
    def arity(self) -> int:
        return len(self.generators[0])

    def label(self, x: tuple[int, ...]) -> str:
        return _power_label(self.base, x)


def _homomorphism(tables, pairs) -> dict[int, int] | None:
    """The map h with h(x) = y for each pair (x, y) that preserves each of
    the base's tables, on the closure of the xs under them, or None if
    there is none.

    The pairs generate a closure in base × base; h exists exactly when that
    closure is the graph of a function, and then it is h. The worklist so
    stops at the first x paired with two values, within |base| + 1 pairs.
    """
    h = dict(pairs)
    if len(h) < len(pairs):
        return None
    known = list(h)
    for i, x in enumerate(known):
        for y in known[: i + 1]:
            for table in tables:
                for a, b in ((x, y), (y, x)):
                    z, w = table[a][b], table[h[a]][h[b]]
                    if z not in h:
                        known.append(z)
                    if h.setdefault(z, w) != w:
                        return None
    return h


def _determined_coordinates(
    base: FiniteSemiring, gens, ops: tuple[str, ...] = ("add", "mul")
) -> dict[int, tuple[int, dict[int, int]]]:
    """Coordinate c' -> (c, h) for each generator coordinate c' that an
    earlier kept coordinate c determines under the operations ops: h is the
    _homomorphism of their tables through the pairs (g[c], g[c']) over the
    generators g. The other coordinates are kept."""
    tables = [getattr(base, op) for op in ops]
    columns = list(zip(*gens))
    kept: list[int] = []
    determined = {}
    # The pair sets tried so far, with their _homomorphism: colorings that
    # differ by a letter permutation share one.
    tried: dict[frozenset, dict[int, int] | None] = {}
    for c2, column in enumerate(columns):
        for c in kept:
            pairs = frozenset(zip(columns[c], column))
            if pairs not in tried:
                tried[pairs] = _homomorphism(tables, pairs)
            if tried[pairs] is not None:
                determined[c2] = (c, tried[pairs])
                break
        else:
            kept.append(c2)
    return determined


class _Interned(dict):
    """Element strings to their positions in elements, the discovery order;
    looking up a new string interns it, up to cap elements."""

    def __init__(self, cap: int):
        self.cap, self.elements = cap, []

    def __missing__(self, z: str) -> int:
        if len(self.elements) >= self.cap:
            raise ValueError(f"closure exceeded {self.cap} elements; refusing to continue")
        k = self[z] = len(self.elements)
        self.elements.append(z)
        return k


def _worklist(base: FiniteSemiring, generators, cap: int, ops: tuple[str, ...]):
    """The worklist fixpoint of the generators under the componentwise base
    operations named in ops: ("add", "mul"), or ("mul",) for the products
    alone.

    Returns the generators as index tuples, the elements in discovery order
    as strings of their kept coordinates, one table per operation in ops
    over the element positions, and a function that rebuilds the full
    tuples of such strings. The fixpoint refuses to grow past cap elements.

    The fixpoint runs on the kept coordinates only. A coordinate c' is
    determined by an earlier kept coordinate c when the map g[c] -> g[c']
    over the generators g extends to a map h that preserves the operations
    in ops on the closure of the g[c] under them (_homomorphism). Then
    x[c'] = h(x[c]) for every element x: x is t(g1, ..., gm) for a term t
    in those operations, and h commutes with t. So two elements are equal
    exactly when their kept coordinates are, the worklist finds the same
    elements in the same order, and the full tuples are rebuilt through h.

    The fixpoint works column-wise. Each element is held as a str with one
    character chr(v) per kept coordinate v; str has no limit on the base
    size. Each operation ∘ gives a product stream y∘x and, unless ∘ is
    commutative (is_commutative), x∘y; a commutative x∘y is the string y∘x,
    and interning it again would always be a hit. At cursor x, with n
    elements known, column c of their strings, each written once per
    stream with the s-th copy shifted by s·|base| (folded), is one strided
    slice, and one str.translate by x's entry in column c gives that
    coordinate of every product in every stream. The k translated columns,
    joined, hold the products as strided slices, per y in the order y+x,
    x+y, y·x, x·y, and one comprehension interns them in that order; a
    product already known is a single dict lookup. Row x of an operation's
    table is its x∘y stream (y∘x when ∘ commutes) up to the diagonal, then
    its y∘x products at the later cursors.
    """
    gens = [_power_element(base, g) for g in generators]
    if not gens:
        raise ValueError("at least one generator is required")
    arity = len(gens[0])
    if arity < 1:
        raise ValueError("power arity must be at least 1")
    if any(len(g) != arity for g in gens):
        raise ValueError(f"generators must all have {arity} coordinates")
    determined = _determined_coordinates(base, gens, ops)
    kept = [c for c in range(arity) if c not in determined]
    width = len(kept)
    # Per stream, its base table's line through each x: x's column for y∘x,
    # x's row for x∘y. Per operation, its y∘x and x∘y streams.
    lines, pairs = [], []
    for op in ops:
        table = getattr(base, op)
        yx = len(lines)
        lines.append(list(zip(*table)))
        if not is_commutative(base, op):
            lines.append(table)
        pairs.append((yx, len(lines) - 1))
    streams, size = len(lines), base.size
    # shifts[s - 1] folds a string into stream s; by_x[x] sends b folded
    # into stream s to b's product with x in stream s.
    shifts = [str.maketrans({b: b + s * size for b in range(size)}) for s in range(1, streams)]
    by_x = [
        str.maketrans(dict(zip(range(streams * size), chain.from_iterable(line[x] for line in lines))))
        for x in range(size)
    ]
    position = _Interned(cap)
    elements = position.elements
    for g in gens:
        position["".join([chr(g[c]) for c in kept])]
    # Per cursor x, x's products with each y up to x, per y in stream order.
    folded, hits = [], []
    while len(hits) < len(elements):
        x = elements[len(hits)]
        folded.append(x + "".join([x.translate(t) for t in shifts]))
        known = "".join(folded)
        products = "".join([known[c::width].translate(by_x[ord(xc)]) for c, xc in enumerate(x)])
        step = streams * len(folded)
        hits.append([position[products[q::step]] for q in range(step)])

    def table(yx: int, xy: int) -> tuple[tuple[int, ...], ...]:
        """Row x: x∘y up to the diagonal, then column x of the later y∘x."""
        rows = (tuple(islice(h, xy, None, streams)) for h in hits)
        later = zip_longest(*(islice(h, yx, None, streams) for h in hits))
        return tuple(row + col[i + 1 :] for i, (row, col) in enumerate(zip(rows, later)))

    def rebuild(strings) -> tuple[tuple[int, ...], ...]:
        """The full tuples of kept-coordinate strings."""
        known = "".join(strings)
        columns = {c: known[i::width] for i, c in enumerate(kept)}
        for c, (source, h) in determined.items():
            columns[c] = columns[source].translate(h)
        return tuple(zip(*(map(ord, columns[c]) for c in range(arity))))

    return gens, elements, [table(yx, xy) for yx, xy in pairs], rebuild


def generated_subsemiring(
    base: FiniteSemiring, generators, cap: int = CLOSURE_CAP_DEFAULT
) -> GeneratedSubsemiring:
    """Close the generators under componentwise add and mul by worklist
    fixpoint (_worklist), filling the closure's tables as the products are
    found.

    Generators may be tuples of base labels or of base indices, all of one
    length, which is the power arity. The closure refuses to grow past the
    cap, since a runaway closure means the construction is being fed
    something it was never meant for.
    """
    gens, elements, (add, mul), rebuild = _worklist(base, generators, cap, ("add", "mul"))
    tuples = rebuild(elements)
    z = _zero_of(base)
    zero_tuple = (z,) * len(gens[0])
    zero = tuples.index(zero_tuple) if z is not None and zero_tuple in tuples else None
    semiring = FiniteSemiring._trusted(tuple(_power_label(base, x) for x in tuples), add, mul, zero)
    return GeneratedSubsemiring(base, tuple(gens), tuples, semiring)


def _zero_coordinate_quotient(
    base: FiniteSemiring, generators, cap: int
) -> tuple[int, int, FiniteSemiring | str] | None:
    """The size of the closure C that generated_subsemiring builds, the size
    of the ideal J of its elements with a zero coordinate, and the quotient
    C/J that quotient_by_ideal builds, or its refusal; without C's tables.

    The base must be a flat semiring (z absorbs · and is the top of +,
    x + x = x, and products cancel: a·b = a·c != z forces b = c, on either
    side, which in a flat base is both distributive laws) whose designated
    zero, if any, is z. This is checked first: on any other base the result
    is None, before anything is closed.

    Let P be the closure of the generators under · alone. Every element of
    C is the sum of a non-empty set of members of P: those sums contain the
    generators and are closed under +, and under · by distributivity, since
    (p1 + ... + pk)·(q1 + ... + ql) is the sum of the products pi·qj, all
    in P. Conversely each such sum is in C.

    Under the flat +, x + p keeps the coordinates where x and p agree and
    is z at the others: the support of x + p, its (coordinate, value) pairs
    with a value other than z, is the meet of theirs. So C is counted as
    the ANDs of non-empty sets of P's supports, as ints: per member p of P
    in turn, the ANDs so far gain p and their ANDs with p. Two pairs held
    by the same members of P are in every such AND together, so a support
    has one bit per set of members holding a pair. The base's add table is
    never read: the precondition fixes the flat +, and P's worklist drops
    the coordinates that · alone determines.

    Two different tuples sum to one with z where they differ, so a sum of
    two or more distinct members of P is in J: the elements of C outside J
    are the members of P with no z coordinate, determined coordinates
    included, and |J| = |C| minus their number.

    A product with a member of J is in J, since z absorbs ·, and a sum with
    one is in J, since z is the top. So each element outside J is found as
    y·x or x·y of two elements outside J, and C's worklist, which interns
    y+x, x+y, y·x, x·y for each earlier y at each cursor x, finds them in
    the order in which P's worklist does: the sums outside J are x + x = x.
    The quotient is "J" and those elements in that order, with x + x = x,
    every other sum J, and P's products mapped to their classes. Without
    the zero tuple in C, quotient_by_ideal refuses; so does this.
    """
    z = base._laws.mul.zero
    if not is_flat_semiring(base) or base.zero not in (None, z):
        return None
    _, products, (mul,), rebuild = _worklist(base, generators, cap, ("mul",))
    tuples = rebuild(products)
    m = len(products)
    # One bit per set of members of P that hold one value other than z at
    # one coordinate: a member's support has the bits of the sets it is in.
    supports, bits = [0] * m, {}
    for column in zip(*tuples):
        holders: dict[int, list[int]] = {}
        for i, v in enumerate(column):
            holders.setdefault(v, []).append(i)
        holders.pop(z, None)
        for group in map(tuple, holders.values()):
            if group not in bits:
                bits[group] = bit = 1 << len(bits)
                for i in group:
                    supports[i] |= bit
    sums: set[int] = set()
    for p in supports:
        # The ANDs so far are closed under AND; one that p already is gains nothing.
        if p not in sums:
            sums.update([x & p for x in sums])
            sums.add(p)
            if len(sums) > cap:
                raise ValueError(f"closure exceeded {cap} elements; refusing to continue")
    outside = [i for i, x in enumerate(tuples) if z not in x]
    if 0 not in sums:
        return len(sums), len(sums) - len(outside), "the ideal must contain the zero tuple"
    class_of = [0] * m
    for k, i in enumerate(outside, start=1):
        class_of[i] = k
    size = len(outside) + 1
    pick = gather(outside) if outside else None
    quotient = FiniteSemiring._trusted(
        ("J",) + tuple(_power_label(base, tuples[i]) for i in outside),
        tuple(_flat_row(size, 0, k) for k in range(size)),
        ((0,) * size,) + tuple((0, *map(class_of.__getitem__, pick(mul[i]))) for i in outside),
        zero=0,
    )
    return len(sums), len(sums) - len(outside), quotient


@dataclass(frozen=True)
class IdealQuotient:
    carrier: GeneratedSubsemiring
    ideal: tuple[tuple[int, ...], ...]
    quotient: FiniteSemiring


def quotient_by_ideal(a: GeneratedSubsemiring, ideal) -> IdealQuotient:
    """Collapse the ideal to a single class and verify that this is lawful.

    The collapse relation (J x J plus the identity) must be a congruence of
    both operations: combining any element with the members of J must land
    either always inside J or always on one single element. A scan of the
    closure's tables checks this for every J, and a violation is reported
    with the operation and the offending pair.
    """
    j_list = [_power_element(a.base, x) for x in ideal]
    position = {x: i for i, x in enumerate(a.elements)}
    for x in j_list:
        if x not in position:
            raise ValueError(f"ideal member {a.label(x)} is not in the closure")
    if _zero_of(a.base) is None:
        raise ValueError("base semiring has no zero element")
    j_idx = [position[x] for x in j_list]
    zero, j_set, k = a.semiring.zero, set(j_idx), len(a.elements)
    if zero not in j_set:
        raise ValueError("the ideal must contain the zero tuple")
    _check_congruence(a, j_idx, j_set)
    reps = [zero] + [x for x in range(k) if x not in j_set]
    class_of = [0] * k
    for i, x in enumerate(reps[1:], start=1):
        class_of[x] = i
    pick = gather(reps)

    def quotient_table(table):
        return tuple(tuple(map(class_of.__getitem__, pick(table[x]))) for x in reps)

    labels = ("J",) + tuple(a.semiring.elements[x] for x in reps[1:])
    add, mul = quotient_table(a.semiring.add), quotient_table(a.semiring.mul)
    return IdealQuotient(a, tuple(j_list), FiniteSemiring._trusted(labels, add, mul, zero=0))


def _check_congruence(a: GeneratedSubsemiring, j_idx: list[int], j_set: set[int]) -> None:
    """Raise unless each element sends J, either way round, into J or onto one element."""
    labels = a.semiring.elements
    for op_name, table in (("add", a.semiring.add), ("mul", a.semiring.mul)):
        # Under a commutative base operation a closure column is its row.
        lines = zip(table) if is_commutative(a.base, op_name) else zip(table, zip(*table))
        for x, pair in enumerate(lines):
            # x with every member of J, on the left and then on the right.
            for line in pair:
                results = set(map(line.__getitem__, j_idx))
                if len(results) > 1 and not j_set.issuperset(results):
                    # Each result with the first member that produced it.
                    first = {line[j]: j for j in reversed(j_idx)}
                    r1, r2 = sorted(results)[:2]
                    raise ValueError(
                        "ideal does not induce a congruence: "
                        f"{op_name}({labels[x]}, .) sends {labels[first[r1]]} "
                        f"to {labels[r1]} but {labels[first[r2]]} to {labels[r2]}"
                    )


def _element_signatures(s: FiniteSemiring) -> list[tuple]:
    """Each element's isomorphism invariants, read from the semiring's law
    view: additive orbit length, annihilation count, factorization counts
    under · and +, and whether x·x is the zero or x, x + x is x, x is the
    zero, x absorbs under +."""
    laws = s._laws
    n = s.size
    z, top = laws.mul.zero, laws.add.zero

    def factorizations(table) -> Counter:
        """How many entries of the table each element is. Without an
        absorbing element every entry is held as non-zero."""
        count = Counter(chain.from_iterable(map(dict.values, table.nonzero)))
        if table.zero is not None:
            count[table.zero] = n * n - sum(map(len, table.nonzero))
        return count

    mul_fact, add_fact = factorizations(laws.mul), factorizations(laws.add)
    out = []
    for x, (row, col) in enumerate(zip(laws.mul.nonzero, laws.mul_cols.nonzero)):
        seen: list[int] = []
        y = x
        while y not in seen:
            seen.append(y)
            y = s.add[y][x]
        ann = 0 if z is None else n - len(row.keys() | col.keys())
        xx = s.mul[x][x]
        out.append(
            (
                len(seen),
                ann,
                mul_fact[x],
                add_fact[x],
                z is not None and xx == z,
                xx == x,
                s.add[x][x] == x,
                x == z,
                x == top,
            )
        )
    return out


def _supports(s: FiniteSemiring) -> list[set[int]]:
    """Per element x, the y with x∘y or y∘x not the absorbing element of the
    table ∘, over both tables; a table without one holds every y."""
    laws = s._laws
    near: list[set[int]] = [set() for _ in range(s.size)]
    for table in (laws.add, laws.mul):
        for x, entries in enumerate(table.nonzero):
            near[x].update(entries)
            for y in entries:
                near[y].add(x)
    return near


def _preserves(s1: FiniteSemiring, s2: FiniteSemiring, image) -> bool:
    """True when image, a list sending each s1 index to an s2 index, carries
    both tables of s1 into those of s2."""
    pick = gather(image)
    return all(
        tuple(map(image.__getitem__, table1[a])) == pick(table2[image[a]])
        for table1, table2 in ((s1.add, s2.add), (s1.mul, s2.mul))
        for a in range(s1.size)
    )


def find_semiring_isomorphism(s1: FiniteSemiring, s2: FiniteSemiring) -> dict[str, str] | None:
    """Backtracking search for a bijection preserving both tables.

    Elements are first profiled (additive orbit length, annihilation counts,
    factorization counts, which element is the zero and which absorbs
    under +); only profile-equal images are tried, in element order, so the
    result is the first isomorphism in lexicographic order. The search keeps
    its choices on an explicit stack, so its depth is not bounded by the
    recursion limit. A complete map is checked on both tables before it is
    returned. Absence of an isomorphism is a normal answer, not an error.

    Sending x to y is checked against x itself and the assigned elements a
    in the supports of x or of y (`_supports`), with b the image of a: where
    x∘a (or a∘x) is mapped, its image must be y∘b (or b∘y); where it is
    not, y∘b (or b∘y) must be no other element's image. For any other a,
    x∘a and a∘x are the absorbing element of ∘ in s1, and y∘b and b∘y that
    of s2; the profiles pair the absorbing elements, so those products
    pass. A table without an absorbing element has full supports. On flat
    semirings like the witness quotients a choice thus costs a few checks
    per non-zero product.
    """
    if s1.size != s2.size:
        return None
    if not s1.size:
        return {}
    sig1 = _element_signatures(s1)
    sig2 = _element_signatures(s2)
    if sorted(sig1) != sorted(sig2):
        return None
    n = s1.size
    by_signature: dict[tuple, list[int]] = {}
    for y, sig in enumerate(sig2):
        by_signature.setdefault(sig, []).append(y)
    candidates = [by_signature[sig] for sig in sig1]
    near1, near2 = _supports(s1), _supports(s2)
    mapping = [-1] * n
    inverse = [-1] * n
    tables = ((s1.add, s2.add), (s1.mul, s2.mul))

    def consistent(x: int, y: int) -> bool:
        assigned = {a for a in near1[x] if mapping[a] >= 0}
        assigned.update(inverse[b] for b in near2[y] if inverse[b] >= 0)
        assigned.add(x)
        for table1, table2 in tables:
            row1, row2 = table1[x], table2[y]
            for a in assigned:
                b = mapping[a]
                for r1, r2 in ((row1[a], row2[b]), (table1[a][x], table2[b][y])):
                    image = mapping[r1]
                    if image != r2 and (image >= 0 or inverse[r2] >= 0):
                        return False
        return True

    # tries[x] runs through x's remaining candidates; mapping[x] is the one
    # being tried.
    tries = [iter(candidates[0])]
    while tries:
        x = len(tries) - 1
        if mapping[x] >= 0:
            inverse[mapping[x]] = mapping[x] = -1
        for y in tries[x]:
            if inverse[y] < 0:
                mapping[x], inverse[y] = y, x
                if consistent(x, y):
                    break
                inverse[y] = mapping[x] = -1
        else:
            tries.pop()
            continue
        if x + 1 < n:
            tries.append(iter(candidates[x + 1]))
        # consistent() compares a product only once its result is mapped;
        # one whose result is mapped later is compared here.
        elif _preserves(s1, s2, mapping):
            return {s1.elements[x]: s2.elements[mapping[x]] for x in range(n)}
    return None


@dataclass(frozen=True)
class WitnessStage:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class WitnessReport:
    """Every stage of one executed containment proof; the verdict is read
    off the stages."""

    claim: str
    kind: str
    stages: tuple[WitnessStage, ...]
    notes: tuple[str, ...] = ()
    generators: tuple[str, ...] = ()
    power_arity: int = 0
    closure_size: int = 0
    ideal_size: int = 0
    quotient_size: int = 0
    isomorphism: tuple[tuple[str, str], ...] | None = None

    @property
    def failure_stage(self) -> str | None:
        return next((st.name for st in self.stages if not st.ok), None)

    @property
    def ok(self) -> bool:
        return self.failure_stage is None


def format_witness_report(r: WitnessReport) -> str:
    """Line-delimited rendering with stable field order, fit for diffing."""
    lines = [
        f"claim: {r.claim}",
        f"kind: {r.kind}",
        f"ok: {'yes' if r.ok else 'no'}",
        f"power-arity: {r.power_arity}",
        f"closure-size: {r.closure_size}",
        f"ideal-size: {r.ideal_size}",
        f"quotient-size: {r.quotient_size}",
    ]
    for i, g in enumerate(r.generators, start=1):
        lines.append(f"generator: g{i} = {g}")
    for st in r.stages:
        lines.append(f"stage: {st.name} {'ok' if st.ok else 'FAILED'} {st.detail}")
    if r.failure_stage is not None:
        lines.append(f"failure-stage: {r.failure_stage}")
    if r.isomorphism is not None:
        for src, dst in r.isomorphism:
            lines.append(f"isomorphism: {src} -> {dst}")
    for note in r.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _QuotientPlan:
    """One quotient-of-a-subpower argument: the base semiring, generator
    tuples of base labels, and the target the quotient must match."""

    claim: str
    base: FiniteSemiring
    generators: list[tuple[str, ...]]
    target: FiniteSemiring
    notes: tuple[str, ...] = ()
    # Which closure elements form the ideal; None means those with a zero
    # coordinate.
    in_ideal: Callable[[tuple[int, ...]], bool] | None = None


def _run_quotient_plan(kind: str, plan: _QuotientPlan, closure_cap: int) -> WitnessReport:
    """Closure, ideal, quotient, flatness, isomorphism; stop at the first
    stage that fails.

    Over a base that is_flat_semiring, with its multiplicative zero as the
    zero, the ideal of tuples with a zero coordinate is a congruence (Rees,
    "On semi-groups", 1940) and is collapsed without the closure's tables
    (_zero_coordinate_quotient, which checks that precondition itself).
    Any other ideal or base is closed (generated_subsemiring) and scanned
    (quotient_by_ideal). The label generators are read once, as index
    tuples that either route and the report share.
    """
    base = plan.base
    gens = [_power_element(base, g) for g in plan.generators]
    zero = _zero_of(base)
    rees = _zero_coordinate_quotient(base, gens, closure_cap) if plan.in_ideal is None else None
    if rees is not None:
        closure_size, ideal_size, quotient = rees
    else:
        closure = generated_subsemiring(base, gens, cap=closure_cap)
        in_ideal = plan.in_ideal or (lambda x: zero in x)
        ideal = [x for x in closure.elements if in_ideal(x)]
        closure_size, ideal_size = len(closure.elements), len(ideal)
        try:
            quotient = quotient_by_ideal(closure, ideal).quotient
        except ValueError as exc:
            quotient = str(exc)
    stages = [
        WitnessStage("closure", True, f"{closure_size} elements"),
        WitnessStage("ideal", True, f"{ideal_size} elements"),
    ]
    quotient_size, pairs = 0, None
    target = plan.target
    if isinstance(quotient, str):
        stages.append(WitnessStage("quotient", False, quotient))
    else:
        stages.append(WitnessStage("quotient", True, f"{quotient.size} classes"))
        if not is_flat(quotient):
            stages.append(WitnessStage("flatness", False, "quotient is not flat"))
        else:
            stages.append(WitnessStage("flatness", True, "quotient is flat"))
            iso = find_semiring_isomorphism(quotient, target)
            if iso is None:
                detail = f"no isomorphism onto the {target.size}-element target"
                stages.append(WitnessStage("isomorphism", False, detail))
            else:
                detail = f"matched all {target.size} elements"
                stages.append(WitnessStage("isomorphism", True, detail))
                quotient_size = quotient.size
                pairs = tuple((src, iso[src]) for src in quotient.elements)
    return WitnessReport(
        claim=plan.claim,
        kind=kind,
        stages=tuple(stages),
        notes=plan.notes,
        generators=tuple(_power_label(base, g) for g in gens),
        power_arity=len(gens[0]),
        closure_size=closure_size,
        ideal_size=ideal_size,
        quotient_size=quotient_size,
        isomorphism=pairs,
    )


# verify_witness calls each builder below with hypergraph, index, leaf_case
# (checked; None where the kind takes no such parameter) and colorings_cap,
# all by keyword; `**_` takes the ones a builder does not use.


def _triangle_in_abcd(**_) -> _QuotientPlan:
    base = build_sc(["abcd"])
    zero, full = base.zero, base.index("abcd")
    return _QuotientPlan(
        claim="triangle_in_abcd: pair closure over the abcd subword semiring "
        "collapses onto the triangle semiring (14 elements)",
        base=base,
        generators=[("a", "bc"), ("bc", "d"), ("d", "a"), ("ab", "bc"), ("c", "d"), ("bd", "a")],
        target=build_semiring(family("beam", 1)).exported,
        in_ideal=lambda x: zero in x or (full in x and x[0] != x[1]),
    )


def _delete_edge(h: Hypergraph, edge: frozenset[str], what: str) -> Hypergraph:
    """h without one edge and without the vertices only that edge covers."""
    remaining = h.edges - {edge}
    if not remaining:
        raise ValueError(f"removing the {what} leaves an empty hypergraph")
    return sub_hypergraph(h, remaining)


def _uniform_reduction(hypergraph: Hypergraph, **_) -> _QuotientPlan:
    two_edges = [e for e in hypergraph.edge_list() if len(e) == 2]
    if not two_edges:
        raise ValueError("uniform_reduction requires a hypergraph with a 2-vertex edge")
    v1, v2 = two_edges[0]
    h1 = _delete_edge(hypergraph, frozenset((v1, v2)), "2-vertex edge")
    triples = [e for e in h1.edge_list() if len(e) == 3]
    if not triples:
        raise ValueError("uniform_reduction needs a 3-vertex edge to anchor the new pair")
    base = build_semiring(h1).exported
    target = build_semiring(hypergraph).exported
    u1, u2, u3 = triples[0]
    pair_label = base.mul_label(f"a·{u1}", f"a·{u2}")
    gens = [(f"a·{v}", f"a·{v}") for v in h1.vertices]
    gens += [(pair_label, f"a·{u3}"), (f"a·{u3}", pair_label)]
    return _QuotientPlan(
        claim=f"uniform_reduction: the {target.size}-element semiring of the "
        f"non-uniform hypergraph arises from the {base.size}-element uniform one",
        base=base,
        generators=gens,
        target=target,
        notes=(f"removed 2-vertex edge {{{v1},{v2}}}; anchor edge {{{u1},{u2},{u3}}}",),
    )


def _leaf_removal(hypergraph: Hypergraph, leaf_case: str, **_) -> _QuotientPlan:
    if any(len(e) != 3 for e in hypergraph.edges):
        raise ValueError("leaf_removal requires a 3-uniform hypergraph")
    wanted = 0 if leaf_case == "disjoint" else 1
    matching = [(e, shared) for e, shared in leaf_edges(hypergraph.edges) if len(shared) == wanted]
    if not matching:
        raise ValueError(f"no {leaf_case} leaf edge found")
    leaf, shared = matching[0]
    h1 = _delete_edge(hypergraph, leaf, "leaf")
    base = build_semiring(h1).exported
    target = build_semiring(hypergraph).exported
    gens = [(f"a·{v}", f"a·{v}", f"a·{v}") for v in h1.vertices]
    leaf_label = ",".join(sorted(leaf))
    if leaf_case == "disjoint":
        u1, u2, u3 = h1.edge_list()[0]
        gens.append((f"a·{u1}", f"a·{u2}", f"a·{u3}"))
        gens.append((f"a·{u2}", f"a·{u3}", f"a·{u1}"))
        gens.append((f"a·{u3}", f"a·{u1}", f"a·{u2}"))
        note = f"leaf {{{leaf_label}}} disjoint; anchor edge {{{u1},{u2},{u3}}}"
    else:
        (w,) = shared
        anchor = next(e for e in h1.edge_list() if w in e)
        u2, u3 = (v for v in anchor if v != w)
        gens.append((f"a·{u2}", f"a·{u3}", f"a·{u2}"))
        gens.append((f"a·{u3}", f"a·{u2}", f"a·{u3}"))
        note = f"leaf {{{leaf_label}}} shares {w}; anchor edge {{{','.join(anchor)}}}"
    return _QuotientPlan(
        claim=f"leaf_removal({leaf_case}): the {target.size}-element semiring "
        f"with the leaf arises from the {base.size}-element one without it",
        base=base,
        generators=gens,
        target=target,
        notes=(note,),
    )


def _strongcolor_equiv(hypergraph: Hypergraph, colorings_cap: int, **_) -> _QuotientPlan:
    colorings = enumerate_strong_colorings(hypergraph, cap=colorings_cap)
    if not colorings:
        raise ValueError("hypergraph has no strong 3-coloring; nothing to build on")
    target = build_semiring(hypergraph).exported
    letter = {0: "a", 1: "b", 2: "c"}
    return _QuotientPlan(
        claim=f"strongcolor_equiv: the coloring-power closure collapses onto "
        f"the {target.size}-element hypergraph semiring",
        base=build_sc(["abc"]),
        generators=[tuple(letter[phi[v]] for phi in colorings) for v in hypergraph.vertices],
        target=target,
        notes=(f"{len(colorings)} strong 3-colorings",),
    )


_BEAM_MATRIX = (
    ("u3", "u2", "u2", "u1", "u1", "u3"),
    ("u2", "u3", "u1", "u2", "u3", "u1"),
    ("u1", "u1", "u3", "u3", "u2", "u2"),
)


def _beam_step(index: int, **_) -> _QuotientPlan:
    i = index
    base = build_semiring(family("beam", i)).exported
    target = build_semiring(family("beam", i + 1)).exported

    def g(k: int) -> str:
        return f"a·u{k}"

    gens: list[tuple[str, str, str]] = [
        (g(1), g(1), g(1)),
        (g(2), g(2), g(3)),
        (g(3), g(3), g(2)),
        (g(4), g(4), g(1)),
        (g(5), g(5), g(3)),
        (g(6), g(6), g(2)),
        (g(4), g(1), g(4)),
        (g(3), g(6), g(5)),
        (g(2), g(5), g(6)),
    ]
    notes = []
    for j in range(2, i + 1):
        column = j % 6
        if column == 0:
            column = 6
            notes.append(f"arch {j}: index is 0 mod 6, using matrix column 6")
        col = column - 1
        gens.append((g(3 * j + 1), g(3 * j + 1), f"a·{_BEAM_MATRIX[0][col]}"))
        gens.append((g(3 * j + 2), g(3 * j + 2), f"a·{_BEAM_MATRIX[1][col]}"))
        gens.append((g(3 * j + 3), g(3 * j + 3), f"a·{_BEAM_MATRIX[2][col]}"))
    return _QuotientPlan(
        claim=f"beam_step({i}): cubed-power closure over the beam({i}) semiring "
        f"collapses onto the beam({i + 1}) semiring ({target.size} elements)",
        base=base,
        generators=gens,
        target=target,
        notes=tuple(notes),
    )


def _nested_chain(index: int, **_) -> WitnessReport:
    """An identity separation, not a quotient: identity i+1 holds in the
    nested(i) semiring and fails in the nested(i+1) one. Identity i+1 has
    8(i+1) monomials, so an i past MAX_NESTED_INDEX - 1 is refused before
    either semiring is built."""
    i = index
    if i >= MAX_NESTED_INDEX:
        raise ValueError(
            f"nested_chain index over MAX_NESTED_INDEX - 1 ({MAX_NESTED_INDEX - 1}): "
            "identity i+1 would expand past the flat checker's cap"
        )
    lower = build_semiring(family("nested", i)).exported
    upper = build_semiring(family("nested", i + 1)).exported
    ident = nested_identity(i + 1)
    low = check_identity_flat(lower, ident)
    high = check_identity_flat(upper, ident)
    stages = (
        WitnessStage(
            "lower-satisfies",
            low.holds,
            f"nested({i}) semiring: identity {i + 1} {low.verdict}",
        ),
        WitnessStage(
            "upper-fails",
            not high.holds,
            f"nested({i + 1}) semiring: identity {i + 1} {high.verdict}",
        ),
    )
    notes = []
    if high.counterexample is not None:
        pins = ", ".join(f"{k}={v}" for k, v in sorted(high.counterexample.items()))
        notes.append(f"separating assignment: {pins}")
    return WitnessReport(
        claim=f"nested_chain({i}): identity {i + 1} separates the nested({i}) "
        f"semiring from the nested({i + 1}) one",
        kind="nested_chain",
        stages=stages,
        notes=tuple(notes),
    )


# Each witness kind: the verify_witness parameters it requires, in the order
# the command line takes them, and its builder.
_KINDS = {
    "uniform_reduction": (("hypergraph",), _uniform_reduction),
    "strongcolor_equiv": (("hypergraph",), _strongcolor_equiv),
    "triangle_in_abcd": ((), _triangle_in_abcd),
    "leaf_removal": (("hypergraph", "leaf_case"), _leaf_removal),
    "beam_step": (("index",), _beam_step),
    "nested_chain": (("index",), _nested_chain),
}
WITNESS_KINDS: dict[str, tuple[str, ...]] = {kind: params for kind, (params, _) in _KINDS.items()}

_PARAMETER_NOUNS = {"hypergraph": "a hypergraph", "index": "an index", "leaf_case": "a leaf_case"}


def verify_witness(
    kind: str,
    hypergraph: Hypergraph | None = None,
    index: int | None = None,
    leaf_case: str | None = None,
    colorings_cap: int = COLORINGS_CAP_DEFAULT,
    closure_cap: int = CLOSURE_CAP_DEFAULT,
) -> WitnessReport:
    """Run one witness pipeline by name.

    WITNESS_KINDS names the parameters each kind takes; each is required and
    no other may be given. index is an int (not a bool) of at least 1, and
    leaf_case is "disjoint" or "shared". Parameter errors and exceeded caps
    raise; a claim that fails to verify comes back as a report with ok False.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown witness kind {kind!r}")
    params, build = _KINDS[kind]
    given = {"hypergraph": hypergraph, "index": index, "leaf_case": leaf_case}
    for name, value in given.items():
        if value is not None and name not in params:
            raise ValueError(f"{kind} does not take the parameter {name}")
    if any(given[name] is None for name in params):
        nouns = " and ".join(_PARAMETER_NOUNS[name] for name in params)
        raise ValueError(f"{kind} requires {nouns}")
    if "leaf_case" in params and leaf_case not in ("disjoint", "shared"):
        raise ValueError("leaf_case must be 'disjoint' or 'shared'")
    if "hypergraph" in params and not validate(hypergraph).valid:
        raise ValueError(f"{kind} requires an admissible hypergraph")
    if "index" in params:
        if isinstance(index, bool) or not isinstance(index, int):
            raise ValueError(f"{kind} index must be an integer, not {index!r}")
        if index < 1:
            raise ValueError(f"{kind} index must be at least 1")
    built = build(**given, colorings_cap=colorings_cap)
    if isinstance(built, WitnessReport):
        return built
    return _run_quotient_plan(kind, built, closure_cap)


def find_subword_embedding(target: FiniteSemiring) -> dict[str, str] | None:
    """Embed the 8-element abc subword semiring into a hypergraph semiring.

    Tries each ordered triple of vertex generators as the letters a, b, c,
    the words as their products and 0 as the target's zero, and returns the
    first such map that is injective and preserves both tables, keyed by
    word. A triple that is no hyperedge sends abc to the zero, so
    injectivity rules it out. A target without a zero has no embedding.
    """
    return _subword_embedding(build_sc(["abc"]), target)


def _subword_embedding(sc: FiniteSemiring, target: FiniteSemiring) -> dict[str, str] | None:
    """find_subword_embedding, given the abc subword semiring sc."""
    zero = _zero_of(target)
    if zero is None:
        return None
    mul = target.mul
    gens = [i for i, lbl in enumerate(target.elements) if lbl.startswith("a·")]
    for i, j, k in permutations(gens, 3):
        words = {
            "a": i,
            "b": j,
            "c": k,
            "ab": mul[i][j],
            "ac": mul[i][k],
            "bc": mul[j][k],
            "abc": mul[mul[i][j]][k],
            "0": zero,
        }
        image = [words[w] for w in sc.elements]
        if len(set(image)) == len(image) and _preserves(sc, target, image):
            return {w: target.elements[x] for w, x in words.items()}
    return None
