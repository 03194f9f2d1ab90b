"""Semiring identities: parsing, evaluation, and two decision procedures.

An identity is a pair of terms over named variables, each a tree of sums
and products kept as written: brackets group, so x*(y*z) and (x*y)*z are
two terms, and the operands of an unbracketed sum or product fold left to
right. The brute-force checker enumerates every assignment up to a budget,
so its verdict is about the terms as written, on any table. On carriers of
at most 16 elements it interprets the identity over byte vectors that each
hold a block of assignments, one C-level gather per lookup and block; on
larger ones it compiles the identity to a loop nest. The flat
checker exploits the collapsing addition of flat semirings: a sum is
non-zero only when all its summands agree on one non-zero value, so it
suffices to search for assignments pinning one side to such a value and
compare the other side there.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .semiring import (
    FiniteSemiring,
    _first_difference,
    is_commutative,
    is_flat,
    is_flat_semiring,
    multiplicative_zero,
    verify_axioms,
)


class IdentitySyntaxError(ValueError):
    """Raised on malformed identity text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Product:
    factors: tuple["Term", ...]


@dataclass(frozen=True)
class Sum:
    terms: tuple["Term", ...]


Term = Variable | Product | Sum


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term
    variables: tuple[str, ...]


@dataclass(frozen=True)
class CheckResult:
    verdict: str
    counterexample: dict[str, str] | None
    explored: int

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def _walk_variables(node: Term, seen: dict[str, None]) -> None:
    """Add each variable name to `seen`, whose keys keep first-occurrence order."""
    if isinstance(node, Variable):
        seen[node.name] = None
    elif isinstance(node, Product):
        for t in node.factors:
            _walk_variables(t, seen)
    else:
        for t in node.terms:
            _walk_variables(t, seen)


def make_identity(lhs: Term, rhs: Term) -> Identity:
    """The identity of the two trees as given, its variables in
    first-occurrence order."""
    names: dict[str, None] = {}
    _walk_variables(lhs, names)
    _walk_variables(rhs, names)
    return Identity(lhs, rhs, tuple(names))


_TOKEN_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789")

# Brackets nest at most this deep. Each level takes the parser three stack
# frames, so far deeper text would exhaust the interpreter's recursion limit.
MAX_NESTING = 200

# The flat checker refuses an identity side that expands into more monomials
# than this. A product of k binomials has 2^k; at twelve (4,096) a check
# already takes seconds, and each further binomial doubles time and memory.
MAX_MONOMIALS = 4096

# The brute-force checker's default budget of assignments (`--budget-evals`).
BUDGET_EVALS_DEFAULT = 10_000_000

# The largest i a `nested:i` token may name; a larger one is refused before
# the identity is built. nested(i)'s binomial side expands to 8i monomials,
# so this is the largest index the flat checker accepts, and the token has no
# other bound on the time and memory it takes to build.
MAX_NESTED_INDEX = MAX_MONOMIALS // 8

# An identity text longer than this is refused before it is tokenized. The
# parser keeps a token list and a term tree per character, so an identity
# file's line had no bound on the time and memory it could take.
MAX_IDENTITY_CHARS = 1_000_000


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch in "+*()=":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if "a" <= ch <= "z":
            j = i + 1
            while j < len(text) and text[j] in _TOKEN_CHARS:
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise IdentitySyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise IdentitySyntaxError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        self.pos += 1
        return tok

    def expr(self) -> Term:
        terms = [self.product()]
        while self.peek()[0] == "+":
            self.take("+")
            terms.append(self.product())
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def product(self) -> Term:
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.take("*")
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self) -> Term:
        kind, value, pos = self.peek()
        if kind == "ident":
            self.take("ident")
            return Variable(value)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise IdentitySyntaxError(f"brackets nested deeper than {MAX_NESTING} levels", pos)
            self.take("(")
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.take(")")
            return inner
        raise IdentitySyntaxError(f"expected a variable or '(', found {value or 'end of input'!r}", pos)


def parse_identity(text: str) -> Identity:
    """Parse "lhs = rhs" where each side is a sum of '*'-separated products.

    Variables match [a-z][a-z0-9]*; juxtaposition is not multiplication.
    Both sides are the trees as written: brackets group, and the operands
    of an unbracketed sum or product fold left to right. So "x*(y*z) =
    (x*y)*z" has two different sides, which brute force separates on a
    table whose multiplication is not associative, and "x*y*z = (x*y)*z"
    has one side twice. Text longer than MAX_IDENTITY_CHARS is refused.
    """
    if len(text) > MAX_IDENTITY_CHARS:
        raise IdentitySyntaxError(
            f"identity longer than {MAX_IDENTITY_CHARS} characters", MAX_IDENTITY_CHARS
        )
    parser = _Parser(_tokenize(text))
    lhs = parser.expr()
    parser.take("=")
    rhs = parser.expr()
    parser.take("end")
    return make_identity(lhs, rhs)


def parse_identity_file(text: str) -> list[Identity]:
    """One identity per line; blank lines and '#' comment lines are skipped."""
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.append(parse_identity(stripped))
    return out


def nested_identity(i: int) -> Identity:
    """The i-th member of the ascending chain, on variables x1 .. x(3i+3).

    Each level j contributes three triple products on one side and a product
    of three binomials on the other. It equals parse_identity of its text.
    """
    if i < 1:
        raise ValueError("index must be a positive integer")

    def x(k: int) -> Variable:
        return Variable(f"x{k}")

    monomials: list[Term] = []
    binomial_products: list[Term] = []
    for j in range(1, i + 1):
        a, b, c = 3 * j - 2, 3 * j - 1, 3 * j
        monomials.append(Product((x(b), x(c + 3), x(a))))
        monomials.append(Product((x(a), x(c + 2), x(c))))
        monomials.append(Product((x(c), x(c + 1), x(b))))
        binomial_products.append(
            Product((Sum((x(b), x(c + 2))), Sum((x(a), x(c + 1))), Sum((x(c), x(c + 3)))))
        )
    # As the parser reads its text, one binomial product is no sum.
    rhs = binomial_products[0] if i == 1 else Sum(tuple(binomial_products))
    return make_identity(Sum(tuple(monomials)), rhs)


def ascii_index(text: str, most: int) -> int | None:
    """The index that text writes in ASCII digits alone, or None for any
    other text; an index over most reads as most + 1.

    str.isdigit is also true for '²' and '١', and int() reads '١' as 1 and
    '1_0' as 10, and skips a sign and spaces. Lengths are compared before
    int() runs, since it refuses a string of more than 4,300 digits.
    """
    if not (text.isascii() and text.isdigit()):
        return None
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(most)):
        return most + 1
    return min(int(digits), most + 1)


def builtin_identity(key: str) -> Identity:
    """Resolve a registry key: eq3.1, eq4.1 .. eq4.4, or nested:i.

    Raises KeyError for an unknown key, and ValueError for `nested:i` with i
    over MAX_NESTED_INDEX, before building anything.
    """
    fixed = {
        "eq3.1": "x1*x2*x3 + x3*x4*x5 + x5*x6*x1 = (x1+x4)*(x2+x5)*(x3+x6)",
        "eq4.4": "x1*x2*x3*x4 = y1*y2*y3*y4",
    }
    if key in fixed:
        return parse_identity(fixed[key])
    if key in ("eq4.1", "eq4.2", "eq4.3"):
        return nested_identity(int(key[-1]))
    if key.startswith("nested:"):
        index = ascii_index(key.split(":", 1)[1], MAX_NESTED_INDEX)
        if index is None or index < 1:
            raise KeyError(f"unknown identity {key!r}")
        if index > MAX_NESTED_INDEX:
            raise ValueError(
                f"identity {key!r}: index over MAX_NESTED_INDEX ({MAX_NESTED_INDEX}), "
                "the largest the flat checker accepts"
            )
        return nested_identity(index)
    raise KeyError(f"unknown identity {key!r}")


def _value(node: Term, values: dict[str, int], s: FiniteSemiring) -> int:
    """Evaluate a term under an index-valued assignment, folding left to right."""
    if isinstance(node, Variable):
        return values[node.name]
    if isinstance(node, Product):
        table, parts = s.mul, node.factors
    else:
        table, parts = s.add, node.terms
    acc = _value(parts[0], values, s)
    for part in parts[1:]:
        acc = table[acc][_value(part, values, s)]
    return acc


def eval_term(t: Term, assignment: dict[str, str], s: FiniteSemiring) -> str:
    """Evaluate a term under a label-valued assignment, returning a label."""
    names: dict[str, None] = {}
    _walk_variables(t, names)
    missing = [v for v in names if v not in assignment]
    if missing:
        raise ValueError(f"unbound variable {missing[0]!r}")
    values = {v: s.index(assignment[v]) for v in names}
    return s.elements[_value(t, values, s)]


# Loops the generated brute-force search nests at most. CPython refuses
# more than 20 statically nested blocks, so past this many variables the
# outermost ones share one loop over their product.
_MAX_LOOPS = 16

# Carriers of at most this many elements are searched by blocks with no
# generated code (`_block_search`): the pair code u·n + v of two element
# indices fits a byte, so every lookup is one C-level gather.
_PAIR_MOST = 16

# A block of `_block_search` holds at most this many assignments.
_BLOCK = 4096

# Carrier sizes, past `_PAIR_MOST`, whose brute-force nest binds the last
# variable to a byte vector instead of a loop; a byte holds at most 256
# element indices. Interpreted, such a nest ran 2 to 2.7x slower on checks
# of thousands of blocks (measurements in CHANGES.md), so it is compiled.
_VECTOR_SIZES = range(_PAIR_MOST + 1, 257)


class _TwoVectors(Exception):
    """A lookup reads the last variable through both operands."""


def _nest_source(ident: Identity, vector: bool = False) -> str | None:
    """Python source of `side(R, A, M, product)`, the brute-force search.

    Each variable is bound by a loop over the carrier `R`, in
    `ident.variables` order, so assignments come in lexicographic order; past
    `_MAX_LOOPS` variables the outermost ones are bound together by one loop
    over `product(R, repeat=...)`. Each side is folded left to right as
    written, one table lookup `tK = A[x][y]` or `tK = M[x][y]` per statement,
    and each statement sits in the loop of the last variable it reads, so it
    is recomputed only when that variable changes. Textually identical
    lookups share a temporary. The innermost body returns the first
    assignment at which the sides differ; the function returns None when
    there is none.

    With `vector`, the last variable, which one side reads, has no loop: it
    is the byte string `V` of every value at once, and `side(R, A, M,
    product, V, F, AR, AC, MR, MC, D)`, whose tables are the semiring's
    `byte_tables`, returns the differing position in `V` as the last value.
    A lookup with one operand that reads `V` is a vector itself, one C-level
    gather: a row x gathers `y.translate(AR[x])`, a column y gathers
    `x.translate(AC[y])`. It sits in the loop of the last looped variable it
    reads, before the first loop if none. A vector side is compared whole
    with the other, a scalar one as its constant vector `F[x]`, and `D` finds
    the first differing position. A lookup of two vectors has no C-level
    gather: mapping it element by element costs more than the loop it saves,
    so there is no vector nest then, and the source is None.

    The source names only the loop slots `aI`, temporaries, the tables, `R`,
    `product` and the vector names; variable names never reach it.
    """
    nvars = len(ident.variables)
    looped = nvars - vector
    fused = max(looped - _MAX_LOOPS + 1, 1)
    slots = [f"a{i}" for i in range(looped)]
    # Each operand's name, the number of loops it needs and whether it is a
    # vector; the first `fused` variables share loop 1.
    operands = {
        v: (slots[i], max(i - fused + 1, 0) + 1, False)
        for i, v in enumerate(ident.variables[:looped])
    }
    if vector:
        operands[ident.variables[-1]] = ("V", 0, True)
    bodies: list[list[str]] = [[] for _ in range(looped - fused + 2)]
    temps: dict[tuple[str, str, str], tuple[str, int, bool]] = {}

    def lookup(table: str, x: tuple[str, int, bool], y: tuple[str, int, bool]) -> str:
        (a, _, a_vector), (b, _, b_vector) = x, y
        if a_vector and b_vector:
            raise _TwoVectors
        if a_vector:
            return f"{a}.translate({table}C[{b}])"
        if b_vector:
            return f"{b}.translate({table}R[{a}])"
        return f"{table}[{a}][{b}]"

    def fold(node: Term) -> tuple[str, int, bool]:
        """The operand holding a term's value, the loop it is known in and
        whether it is a vector."""
        if isinstance(node, Variable):
            return operands[node.name]
        table, parts = ("M", node.factors) if isinstance(node, Product) else ("A", node.terms)
        acc = fold(parts[0])
        for part in parts[1:]:
            operand = fold(part)
            key = (table, acc[0], operand[0])
            if key not in temps:
                temps[key] = f"t{len(temps)}", max(acc[1], operand[1]), acc[2] or operand[2]
                bodies[temps[key][1]].append(f"{temps[key][0]} = {lookup(table, acc, operand)}")
            acc = temps[key]
        return acc

    try:
        (lhs, _, lvec), (rhs, _, rvec) = fold(ident.lhs), fold(ident.rhs)
    except _TwoVectors:
        return None
    if lvec != rvec:
        lhs, rhs = (lhs, f"F[{rhs}]") if lvec else (f"F[{lhs}]", rhs)
    at = [f"D({lhs}, {rhs})"] if vector else []
    headers = []
    if looped:
        outer = f"{', '.join(slots[:fused])} in product(R, repeat={fused})" if fused > 1 else "a0 in R"
        headers = [f"for {outer}:"] + [f"for {slot} in R:" for slot in slots[fused:]]
    vector_names = ", V, F, AR, AC, MR, MC, D" if vector else ""
    lines = [f"def side(R, A, M, product{vector_names}):"]
    lines.extend("    " + line for line in bodies[0])
    for depth, (header, body) in enumerate(zip(headers, bodies[1:]), start=1):
        lines.append("    " * depth + header)
        lines.extend("    " * (depth + 1) + line for line in body)
    lines.append("    " * (len(headers) + 1) + f"if {lhs} != {rhs}:")
    lines.append("    " * (len(headers) + 2) + f"return ({', '.join(slots + at)},)")
    return "\n".join(lines) + "\n"


def _compile_nest(source: str):
    namespace: dict[str, object] = {}
    exec(source, {"__builtins__": {}}, namespace)
    return namespace["side"]


@functools.lru_cache(maxsize=64)
def _block_vectors(n: int, k: int) -> tuple[bytes, ...]:
    """The values of the last k variables at the n^k assignments of a block,
    in lexicographic order, one byte vector per variable; built in C, once
    per (n, k)."""
    return tuple(
        b"".join([bytes((v,)) * n ** (k - 1 - i) for v in range(n)]) * n**i for i in range(k)
    )


def _block_search(s: FiniteSemiring, ident: Identity) -> int:
    """The number of assignments, in lexicographic order, before the first
    at which the sides differ: all n^variables when none does. For carriers
    of 1 to `_PAIR_MOST` elements; no code is generated.

    The last k variables, k the largest with n^k <= `_BLOCK`, are the byte
    vectors of one block of n^k assignments (`_block_vectors`). The other
    variables are looped: the innermost one by a loop, the rest by an
    odometer. Each side is folded left to right as written, one lookup per
    step, and textually identical lookups share a temporary. A lookup of
    two scalars reads the table; any other is one C-level gather through
    the semiring's tables: a scalar row x gathers `y.translate(rows[x])`, a
    scalar column y gathers `x.translate(columns[y])`, and two vectors
    gather their pair codes u·n + v, made by integer arithmetic on their
    bytes, through the flattened table (`pair_tables`). A lookup is
    recomputed only when the last looped variable it reads, or an earlier
    one, changes; one that reads none is computed once. Each block compares
    the two sides whole, a scalar side as the constant vector of its value.
    """
    n, names = s.size, ident.variables
    k = 1
    while k < len(names) and n ** (k + 1) <= _BLOCK:
        k += 1
    looped, size = len(names) - k, n**k
    env: list = [0] * looped
    env += _block_vectors(n, k)
    # Each operand's slot in env, the level it is known at (1 + the index of
    # the last looped variable it reads, 0 if none) and whether it is a vector.
    operands = {v: (i, i + 1 if i < looped else 0, i >= looped) for i, v in enumerate(names)}
    levels: list[list[tuple]] = [[] for _ in range(looped + 1)]
    temps: dict[tuple[str, int, int], tuple[int, int, bool]] = {}
    add_rows, add_columns, mul_rows, mul_columns, _ = s.byte_tables
    gathers = {}
    for op, table, rows, columns, pairs in (
        ("+", s.add, add_rows, add_columns, s.pair_tables[0]),
        ("*", s.mul, mul_rows, mul_columns, s.pair_tables[1]),
    ):
        gathers[op, False, False] = lambda x, y, table=table: table[x][y]
        gathers[op, False, True] = lambda x, y, rows=rows: y.translate(rows[x])
        gathers[op, True, False] = lambda x, y, columns=columns: x.translate(columns[y])
        gathers[op, True, True] = lambda x, y, pairs=pairs: (
            (int.from_bytes(x, "big") * n + int.from_bytes(y, "big")).to_bytes(size, "big")
        ).translate(pairs)

    def fold(node: Term) -> tuple[int, int, bool]:
        """The slot holding a term's value, its level and whether it is a vector."""
        if isinstance(node, Variable):
            return operands[node.name]
        op, parts = ("*", node.factors) if isinstance(node, Product) else ("+", node.terms)
        acc = fold(parts[0])
        for part in parts[1:]:
            operand = fold(part)
            key = (op, acc[0], operand[0])
            if key not in temps:
                temps[key] = len(env), max(acc[1], operand[1]), acc[2] or operand[2]
                levels[temps[key][1]].append(
                    (len(env), gathers[op, acc[2], operand[2]], acc[0], operand[0])
                )
                env.append(None)
            acc = temps[key]
        return acc

    (lhs, _, _), (rhs, _, _) = fold(ident.lhs), fold(ident.rhs)
    # With no looped variable, a spare slot takes the one pass of the loop.
    inner, slot, values = (levels[looped], looped - 1, range(n)) if looped else ([], len(env), (0,))
    env.append(None)
    for level in levels[: max(looped, 1)]:
        for out, gather, x, y in level:
            env[out] = gather(env[x], env[y])
    block, top = 0, n - 1
    while True:
        for v in values:
            env[slot] = v
            for out, gather, x, y in inner:
                env[out] = gather(env[x], env[y])
            if env[lhs] != env[rhs]:
                at = _block_difference(env[lhs], env[rhs], size)
                if at is not None:
                    return (block + v) * size + at
        block += n
        # The odometer: the last outer looped variable below its top value
        # steps, and the ones after it go back to 0.
        j = looped - 2
        while j >= 0 and env[j] == top:
            env[j] = 0
            j -= 1
        if j < 0:
            return n ** len(names)
        env[j] += 1
        for level in levels[j + 1 : looped]:
            for out, gather, x, y in level:
                env[out] = gather(env[x], env[y])


# Per element index, the one-byte string of it.
_BYTE = [bytes((c,)) for c in range(256)]


def _block_difference(left, right, size: int) -> int | None:
    """The first position at which two sides' values over a block differ,
    a scalar being the constant vector of its value; None if none does."""
    if isinstance(left, int):
        left = _BYTE[left] * size
    if isinstance(right, int):
        right = _BYTE[right] * size
    if left == right:
        return None
    differ = int.from_bytes(left, "big") ^ int.from_bytes(right, "big")
    return size - 1 - (differ.bit_length() - 1) // 8


def _failure(
    ident: Identity, values: dict[str, int], s: FiniteSemiring, explored: int
) -> CheckResult:
    """Re-evaluate both sides at a counterexample before reporting it."""
    witness = {v: s.elements[values[v]] for v in ident.variables}
    if _value(ident.lhs, values, s) == _value(ident.rhs, values, s):
        raise RuntimeError(f"internal error: both sides agree at the counterexample {witness}")
    return CheckResult("fails", witness, explored)


def check_identity_bruteforce(
    s: FiniteSemiring, ident: Identity, budget: int = BUDGET_EVALS_DEFAULT
) -> CheckResult:
    """Exhaust every assignment; first counterexample in lexicographic order.

    Refuses outright when |S|^variables exceeds the budget, naming the flat
    checker as the alternative. Each side is evaluated as its tree is
    written, so on any table the verdict is about the terms typed. On
    carriers of at most `_PAIR_MOST` elements the identity is interpreted
    over byte vectors that each hold a block of assignments
    (`_block_search`), with no code generated. On larger ones it is
    compiled to one loop nest per call (`_nest_source`), whose last
    variable, on carriers of `_VECTOR_SIZES`, is a byte vector unless a
    lookup reads it through both operands. Compiling takes 0.1 to 0.4 ms
    (2-core machine, Python 3.11), most of a check of a few hundred
    assignments or of an early counterexample. `explored` is the
    counterexample's position in that order, or |S|^variables when the
    identity holds.
    """
    ident = make_identity(ident.lhs, ident.rhs)
    n, nvars = s.size, len(ident.variables)
    total = n**nvars
    if total > budget:
        raise ValueError(
            f"budget exceeded: {n}^{nvars} = {total} evaluations > {budget}; "
            "use the flat checker"
        )
    if 0 < n <= _PAIR_MOST:
        before = _block_search(s, ident)
    else:
        args = (range(n), s.add, s.mul, itertools.product)
        source = n in _VECTOR_SIZES and _nest_source(ident, vector=True)
        if source:
            *tables, constants = s.byte_tables
            args += (bytes(range(n)), constants, *tables, _first_difference)
        else:
            source = _nest_source(ident)
        hit = _compile_nest(source)(*args)
        before = total if hit is None else functools.reduce(lambda i, v: i * n + v, hit)
    if before == total:
        return CheckResult("holds", None, total)
    rest, values = before, {}
    for v in reversed(ident.variables):
        rest, values[v] = divmod(rest, n)
    return _failure(ident, values, s, before + 1)


def _monomial_count(node: Term) -> int:
    """The length of _monomials(node), computed without building the list."""
    if isinstance(node, Variable):
        return 1
    if isinstance(node, Sum):
        return sum(map(_monomial_count, node.terms))
    return math.prod(map(_monomial_count, node.factors))


def _monomials(node: Term) -> list[tuple[str, ...]]:
    """Expand a term into its sum-of-products monomial list, each monomial
    its variables in written order. A bracketed sum or product expands as
    it would unbracketed: a product's monomials come in the order of
    `itertools.product` over its factors' lists. Each monomial is joined
    once, so the work is linear in the output."""
    if isinstance(node, Variable):
        return [(node.name,)]
    if isinstance(node, Sum):
        out: list[tuple[str, ...]] = []
        for t in node.terms:
            out.extend(_monomials(t))
        return out
    parts = [_monomials(f) for f in node.factors]
    return [tuple(itertools.chain.from_iterable(c)) for c in itertools.product(*parts)]


class _SideSearch:
    """Backtracking enumeration of assignments that pin one side to a value.

    Every monomial of the side must evaluate to the target; remaining
    variables of the identity range free. Variables are assigned slot by
    slot, `slot` mapping each variable to its slot in `order`, so each
    monomial is complete at its largest slot and checked against the target
    there. On commutative carriers (all the builtin ones) a running partial
    product per monomial prunes any branch that already hit zero, and a
    variable joining a monomial with partial product p only tries the values
    v with p·v non-zero; otherwise a monomial is folded in its written order
    where it completes, which is slower but order-faithful.

    No check below the first completion slot depends on the target, and at
    that slot only the value the completed monomials agree on does. So the
    prefix up to that slot is walked once per side, each surviving state is
    filed under that value, and `hits()` resumes only from the states filed
    under each target. `explored` advances as if each target walked the
    prefix again, so it counts the same nodes as a walk from slot 0; a
    target with no filed state adds the prefix's nodes and starts no walk.
    Both walks are `_walk`, on an explicit stack, so no recursion limit
    bounds a side's length. Entering a slot saves the partial products it
    touches once; each value is folded into those saved partials, which are
    put back only when the slot is exhausted.
    """

    def __init__(self, s: FiniteSemiring, side_monomials, all_variables):
        self.s, self.zero, self.commutative = s, multiplicative_zero(s), is_commutative(s, "mul")
        counts: dict[str, int] = {}
        for mono in side_monomials:
            for v in mono:
                counts[v] = counts.get(v, 0) + 1
        # Most frequent first; the sort is stable, so ties keep the
        # identity's variable order.
        side_vars = [v for v in all_variables if v in counts]
        side_vars.sort(key=counts.__getitem__, reverse=True)
        self.order = side_vars + [v for v in all_variables if v not in counts]
        self.slot = slot = {v: i for i, v in enumerate(self.order)}
        self.monomials = [tuple(map(slot.__getitem__, mono)) for mono in side_monomials]
        # Per side slot: (monomial index, multiplicity, completes at this slot).
        self.touches: list[list[tuple[int, int, bool]]] = [[] for _ in side_vars]
        for m, mono in enumerate(self.monomials):
            mults: dict[int, int] = {}
            for i in mono:
                mults[i] = mults.get(i, 0) + 1
            last = max(mono)
            for i, mult in mults.items():
                self.touches[i].append((m, mult, i == last))
        self.nonzero = [v for v in range(s.size) if v != self.zero]
        # Per p, the non-zero products p·v as v -> p·v, in ascending v; zero
        # is the table's absorbing element.
        self.followers = s._laws.mul.nonzero
        self.first = min(map(max, self.monomials))
        # Target -> (prefix nodes passed before it, assignment, partial
        # products), one state per slot-`first` node, in walk order. The
        # walk counts the filed nodes too; each is taken back as it is filed.
        self.frontier: dict[int, list[tuple[int, list[int], list[int | None]]]] = {}
        assignment, partial = [0] * len(self.order), [None] * len(self.monomials)
        self.explored = 0
        for agreed in self._walk(0, self.first, None, assignment, partial):
            self.explored -= 1
            self.frontier.setdefault(agreed, []).append((self.explored, assignment[:], partial[:]))
        self.prefix_nodes, self.explored = self.explored, 0

    def hits(self):
        """Yield `(target, assignment)` for each non-zero target in ascending
        order and each assignment pinning the side to it, the assignment a
        list of element indices by slot. The list is reused: read it before
        resuming."""
        start, last = self.first + 1, len(self.order) - 1
        for target in self.nonzero:
            states = self.frontier.get(target)
            if states is None:
                self.explored += self.prefix_nodes
                continue
            counted = 0
            for before, assignment, partial in states:
                self.explored += before - counted + 1
                counted = before
                for _ in self._walk(start, last, target, assignment, partial):
                    yield target, assignment
            self.explored += self.prefix_nodes - counted

    def _walk(self, start, last, target, assignment, partial):
        """Walk slots `start`..`last` depth first from the given state and
        yield the agreed value at each passing node of slot `last`.

        Entering a slot saves `(monomial, partial product, multiplicity,
        completes here)` once for each monomial it touches. A node computes
        each product from the saved partial and its value, and is pruned on a
        zero product or on a completed monomial other than `target` (with
        `target` None, other than the node's first completed one, which is
        then the agreed value). A pruned node may leave partials behind, but
        the next value overwrites each one it reaches before it can descend,
        so the saved partials are put back only when the slot is exhausted.
        The stack holds each unfinished slot's value iterator and saved list;
        the outer loop enters a slot, the inner one resumes the deepest
        unfinished slot. `explored` gains the nodes passed, from a local,
        before each yield and on exit. With `start` past `last` the given
        state is the one node, uncounted.
        """
        if start > last:
            yield target
            return
        mul, zero, commutative, monomials = self.s.mul, self.zero, self.commutative, self.monomials
        touches, followers, nonzero, size = self.touches, self.followers, self.nonzero, self.s.size
        side_slots = len(touches)
        nodes, slot, stack = 0, start, []
        while True:
            if slot < side_slots:
                saved = [(m, partial[m], mult, completes) for m, mult, completes in touches[slot]]
                values = nonzero
                if commutative:
                    for _, p, _, _ in saved:
                        if p is not None and len(followers[p]) < len(values):
                            values = followers[p]
            else:
                values, saved = range(size), []
            values = iter(values)
            while True:
                for value in values:
                    assignment[slot] = value
                    agreed = target
                    for m, p, mult, completes in saved:
                        if commutative:
                            if mult == 1:
                                prod = value if p is None else mul[p][value]
                            else:
                                prod = p
                                for _ in range(mult):
                                    prod = value if prod is None else mul[prod][value]
                            partial[m] = prod
                        elif completes:
                            mono = monomials[m]
                            prod = assignment[mono[0]]
                            for i in mono[1:]:
                                prod = mul[prod][assignment[i]]
                        else:
                            continue
                        if prod == zero:
                            break
                        if completes:
                            if agreed is None:
                                agreed = prod
                            elif agreed != prod:
                                break
                    else:
                        nodes += 1
                        if slot < last:
                            stack.append((values, saved))
                            slot += 1
                            break
                        self.explored += nodes
                        nodes = 0
                        yield agreed
                else:
                    for m, p, _, _ in saved:
                        partial[m] = p
                    if not stack:
                        self.explored += nodes
                        return
                    values, saved = stack.pop()
                    slot -= 1
                    continue
                break


def check_identity_flat(s: FiniteSemiring, ident: Identity) -> CheckResult:
    """Decide an identity on a flat semiring without full enumeration.

    For each side and each non-zero target value, enumerate the assignments
    making every monomial of that side equal the target (the side then sums
    to the target), and check the opposite side at each hit. The identity
    fails precisely when some hit disagrees. A side that expands into more
    than MAX_MONOMIALS monomials is refused with ValueError before any search.

    The identity is prepared once per call: make_identity walks the trees
    as given for the variables in first-occurrence order, whatever
    `ident.variables` says, and each side is expanded into monomials once;
    a semiring's sums and products are associative, so brackets change no
    monomial. A side's monomials drive its own search;
    mapped through that search's slots, they check it at the other side's
    hits. On a flat semiring a sum equals a non-zero target only when every
    summand does, so a hit folds the other side's monomials in written order
    and stops at the first that misses the target. A miss is re-checked on
    the term trees (`_failure`) before it is reported.

    The search relies on the semiring axioms as well as flatness, so a table
    that is not is_flat_semiring is refused with ValueError, naming the
    failing axioms if the table is flat.
    """
    if not is_flat_semiring(s):
        if not is_flat(s):
            raise ValueError("flat checker requires a flat semiring; use brute force")
        failing = ", ".join(verify_axioms(s).failing())
        raise ValueError(f"flat checker requires a semiring; this flat table fails {failing}")
    ident = make_identity(ident.lhs, ident.rhs)
    for side in (ident.lhs, ident.rhs):
        count = _monomial_count(side)
        if count > MAX_MONOMIALS:
            # Python refuses to print an int of more than 4,300 digits.
            size = count if count < 10**12 else f"at least 2^{count.bit_length() - 1}"
            raise ValueError(
                f"identity side expands to {size} monomials, "
                f"over the flat checker's cap of {MAX_MONOMIALS}"
            )
    expanded = (_monomials(ident.lhs), _monomials(ident.rhs))
    mul, explored = s.mul, 0
    for side, other in (expanded, expanded[::-1]):
        search = _SideSearch(s, side, ident.variables)
        slot = search.slot
        checks = [(slot[mono[0]], tuple(map(slot.__getitem__, mono[1:]))) for mono in other]
        for target, assignment in search.hits():
            for first, rest in checks:
                prod = assignment[first]
                for i in rest:
                    prod = mul[prod][assignment[i]]
                if prod != target:
                    values = dict(zip(search.order, assignment))
                    return _failure(ident, values, s, explored + search.explored)
        explored += search.explored
    return CheckResult("holds", None, explored)
