"""The full acceptance battery as one deterministic record stream.

Both the command line (`flathg suite`) and the acceptance tests run this;
the records carry no timing or environment data and all randomness is
seeded, so two runs produce byte-identical structured output.

Each run builds every semiring its sections read once, at the start, and
hands that table of semirings to the sections; nothing is kept from one run
to the next. Each of the 10,000 random sums is one `getrandbits` draw.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass

from .coloring import is_2_robust
from .constructions import _subword_embedding, verify_witness
from .hg_semiring import build_semiring
from .hypergraph import Hypergraph, build_hypergraph, family, girth, is_linear
from .semiring import (
    FiniteSemiring,
    is_flat,
    is_zero_cancellative,
    subdirect_irreducibility_certificate,
    verify_axioms,
)
from .terms import (
    builtin_identity,
    check_identity_bruteforce,
    check_identity_flat,
    eval_term,
    parse_identity,
)
from .words import build_sc, builtin_s7

SUITE_SEED = 271828


@dataclass(frozen=True)
class SuiteRecord:
    section: str
    label: str
    ok: bool
    detail: str


def sample_nonuniform() -> Hypergraph:
    """One 3-edge plus one disjoint 2-edge."""
    return build_hypergraph(
        ["u1", "u2", "u3", "u4", "u5"],
        [("u1", "u2", "u3"), ("u4", "u5")],
    )


def sample_pendant() -> Hypergraph:
    """The triangle with a pendant edge hanging off u1."""
    return build_hypergraph(
        [f"u{i}" for i in range(1, 9)],
        [("u1", "u2", "u3"), ("u3", "u4", "u5"), ("u5", "u6", "u1"), ("u7", "u8", "u1")],
    )


def single_edge() -> Hypergraph:
    return build_hypergraph(["u1", "u2", "u3"], [("u1", "u2", "u3")])


def random_hyperforest(rng: random.Random, max_edges: int = 10) -> Hypergraph:
    """Grow a hyperforest edge by edge.

    Every new edge brings at least two fresh vertices and hooks onto at most
    one existing vertex, which rules out alternating cycles outright.
    """
    count = rng.randint(1, max_edges)
    vertices: list[str] = []
    edges: list[tuple[str, ...]] = []

    def fresh() -> str:
        vertices.append(f"v{len(vertices) + 1}")
        return vertices[-1]

    for _ in range(count):
        if not edges or rng.random() < 0.3:
            edges.append((fresh(), fresh(), fresh()))
        else:
            hook = rng.choice(vertices)
            edges.append((hook, fresh(), fresh()))
    return build_hypergraph(vertices, edges)


def _random_loopfree(rng: random.Random) -> Hypergraph:
    n = rng.randint(2, 9)
    vs = [f"v{i}" for i in range(1, n + 1)]
    edges: set[frozenset[str]] = set()
    for _ in range(rng.randint(0, 8)):
        size = rng.choice((2, 3))
        if size <= n:
            edges.add(frozenset(rng.sample(vs, size)))
    return Hypergraph(tuple(vs), frozenset(edges))


def _random_identity_text(rng: random.Random) -> str:
    def side() -> str:
        monomials = []
        for _ in range(rng.randint(1, 3)):
            factors = [f"x{rng.randint(1, 5)}" for _ in range(rng.randint(1, 3))]
            monomials.append("*".join(factors))
        return " + ".join(monomials)

    return f"{side()} = {side()}"


def _fmt_assignment(assignment: dict[str, str] | None) -> str:
    if assignment is None:
        return "none"
    return " ".join(f"{k}={assignment[k]}" for k in sorted(assignment))


def _identity_records(tables: dict[str, FiniteSemiring]) -> list[SuiteRecord]:
    recs = []
    sc3 = tables["sc_abc"]
    sc4 = tables["sc_abcd"]
    s7 = tables["s7"]
    triangle = tables["beam(1)"]
    nested = {i: tables[f"nested({i})"] for i in (1, 2, 3)}
    eq31 = builtin_identity("eq3.1")
    eq42 = builtin_identity("eq4.2")
    eq43 = builtin_identity("eq4.3")
    eq44 = builtin_identity("eq4.4")

    def expect(section_label, semiring, ident, want_holds, brute=False):
        if brute:
            res = check_identity_bruteforce(semiring, ident)
        else:
            res = check_identity_flat(semiring, ident)
        ok = res.holds == want_holds
        detail = res.verdict
        if res.counterexample is not None:
            detail += f" at {_fmt_assignment(res.counterexample)}"
        recs.append(SuiteRecord("identities", section_label, ok, detail))

    expect("eq3.1 holds in sc_abc", sc3, eq31, True)
    expect("eq3.1 fails in the triangle semiring", triangle, eq31, False)
    substitution = {f"x{i}": f"a·u{i}" for i in range(1, 7)}
    lhs = eval_term(eq31.lhs, substitution, triangle)
    rhs = eval_term(eq31.rhs, substitution, triangle)
    recs.append(
        SuiteRecord(
            "identities",
            "generator substitution separates eq3.1 in the triangle semiring",
            lhs != rhs,
            f"lhs={lhs} rhs={rhs}",
        )
    )
    expect("eq4.2 holds in the nested(1) semiring", nested[1], eq42, True)
    expect("eq4.2 fails in the nested(2) semiring", nested[2], eq42, False)
    expect("eq4.3 holds in the nested(2) semiring", nested[2], eq43, True)
    expect("eq4.3 fails in the nested(3) semiring", nested[3], eq43, False)
    expect("eq4.2 holds in s7 by brute force", s7, eq42, True, brute=True)
    expect("eq4.4 fails in s7", s7, eq44, False, brute=True)
    expect("eq4.4 holds in the nested(2) semiring", nested[2], eq44, True)
    expect("eq4.4 fails in sc_abcd", sc4, eq44, False)
    return recs


def _coloring_records() -> list[SuiteRecord]:
    recs = []
    report = is_2_robust(family("beam", 1))
    pinned = (
        not report.robust
        and report.failure is not None
        and report.failure.pair == ("u1", "u4")
        and report.failure.assignment == (0, 1)
    )
    detail = "no failure found"
    if report.failure is not None:
        u, v = report.failure.pair
        cu, cv = report.failure.assignment
        detail = f"pair {u},{v} with colors {cu},{cv} does not extend"
    recs.append(
        SuiteRecord("colorings", "triangle fails 2-robustness at the known pair", pinned, detail)
    )
    for n in range(4, 9):
        rep = is_2_robust(family("n_cycle", n))
        recs.append(
            SuiteRecord(
                "colorings",
                f"n_cycle({n}) is 2-robust",
                rep.robust,
                "every valid pair extends" if rep.robust else "found a stuck pair",
            )
        )
    rng = random.Random(SUITE_SEED)
    for t in range(1, 6):
        forest = random_hyperforest(rng, max_edges=10)
        rep = is_2_robust(forest)
        recs.append(
            SuiteRecord(
                "colorings",
                f"random hyperforest {t} of 5 is 2-robust",
                rep.robust,
                f"{len(forest.vertices)} vertices, {len(forest.edges)} edges",
            )
        )
    return recs


def _witness_records() -> list[SuiteRecord]:
    runs = [
        ("triangle_in_abcd collapses onto the triangle semiring", dict(kind="triangle_in_abcd")),
        (
            "strongcolor_equiv(n_cycle(4)) collapses onto its hypergraph semiring",
            dict(kind="strongcolor_equiv", hypergraph=family("n_cycle", 4)),
        ),
        (
            "uniform_reduction recovers the non-uniform sample semiring",
            dict(kind="uniform_reduction", hypergraph=sample_nonuniform()),
        ),
        (
            "leaf_removal recovers the pendant sample semiring",
            dict(kind="leaf_removal", hypergraph=sample_pendant(), leaf_case="shared"),
        ),
    ]
    for i in (1, 2, 3):
        runs.append(
            (
                f"beam_step({i}) collapses onto the beam({i + 1}) semiring",
                dict(kind="beam_step", index=i),
            )
        )
    recs = []
    for label, kwargs in runs:
        rep = verify_witness(**kwargs)
        detail = (
            f"closure={rep.closure_size} ideal={rep.ideal_size} quotient={rep.quotient_size}"
        )
        if not rep.ok:
            detail = f"failed at {rep.failure_stage}; {detail}"
        recs.append(SuiteRecord("witnesses", label, rep.ok, detail))
    return recs


def _family_members() -> list[tuple[str, Hypergraph]]:
    members: list[tuple[str, Hypergraph]] = []
    for kind in ("beam", "fan", "nested"):
        for i in (1, 2, 3):
            members.append((f"{kind}({i})", family(kind, i)))
    for n in range(3, 9):
        members.append((f"n_cycle({n})", family("n_cycle", n)))
    members.append(("single-edge", single_edge()))
    return members


def _samples() -> list[tuple[str, Hypergraph]]:
    return [("nonuniform-sample", sample_nonuniform()), ("pendant-sample", sample_pendant())]


def _build_tables() -> dict[str, FiniteSemiring]:
    """Every semiring the sections read, keyed by name, each built once.

    Names are those of `_family_members` and `_samples` and sc_ab, sc_abc,
    sc_aab, sc_abcd and s7. Equal hypergraphs (beam(1), fan(1) and
    n_cycle(3) are one triangle) share one semiring, and so its law view.
    """
    built: dict[Hypergraph, FiniteSemiring] = {}
    tables: dict[str, FiniteSemiring] = {}
    for name, h in _family_members() + _samples():
        if h not in built:
            built[h] = build_semiring(h).exported
        tables[name] = built[h]
    for word in ("ab", "abc", "aab", "abcd"):
        tables[f"sc_{word}"] = build_sc([word])
    tables["s7"] = builtin_s7()
    return tables


def _certificate_records(tables: dict[str, FiniteSemiring]) -> list[SuiteRecord]:
    recs = []
    for name, _ in _family_members():
        s = tables[name]
        axioms = verify_axioms(s).all_pass
        flat = is_flat(s)
        cancellative = is_zero_cancellative(s) is True
        cert = subdirect_irreducibility_certificate(s)
        ok = axioms and flat and cancellative and cert.granted and cert.annihilators == ("TOP",)
        detail = f"size={s.size}"
        if not ok:
            detail += (
                f" axioms={axioms} flat={flat} cancellative={cancellative}"
                f" granted={cert.granted} annihilators={','.join(cert.annihilators) or 'none'}"
            )
        recs.append(SuiteRecord("certificates", f"{name} semiring certificate", ok, detail))
    return recs


# The pool of the random identities and sums, by table name.
POOL = ("sc_ab", "sc_abc", "sc_aab", "s7", "single-edge", "beam(1)")
SUM_COUNT = 10_000


def _random_sums(sizes: list[int], rng: random.Random) -> Iterator[tuple[int, list[int]]]:
    """SUM_COUNT random sums as (pool index, summands), one draw each.

    The pool index is uniform over `sizes`, the length uniform in 1-4 and
    each summand uniform over that member's carrier. They are read off one
    `getrandbits` draw as mixed-radix digits; the draw has 32 bits beyond the
    largest digit product, so any bias from the draw not being a multiple of
    that product is below 2^-32.
    """
    bits = (len(sizes) * 4 * max(sizes) ** 4).bit_length() + 32
    for _ in range(SUM_COUNT):
        r, i = divmod(rng.getrandbits(bits), len(sizes))
        r, extra = divmod(r, 4)
        n = sizes[i]
        xs = []
        for _ in range(extra + 1):
            r, x = divmod(r, n)
            xs.append(x)
        yield i, xs


def _flat_sums_record(pool: list[FiniteSemiring], rng: random.Random) -> SuiteRecord:
    """Fold each random sum through its member's add table; a flat addition
    gives x for x + ... + x and the zero for anything else."""
    violations = 0
    for i, xs in _random_sums([s.size for s in pool], rng):
        add = pool[i].add
        total = xs[0]
        for x in xs[1:]:
            total = add[total][x]
        expected = xs[0] if len(set(xs)) == 1 else pool[i].zero
        if total != expected:
            violations += 1
    return SuiteRecord(
        "properties",
        f"flat addition law holds on {SUM_COUNT} random sums",
        violations == 0,
        f"violations={violations}",
    )


def _property_records(tables: dict[str, FiniteSemiring]) -> list[SuiteRecord]:
    recs = []
    rng = random.Random(SUITE_SEED + 1)
    mismatches = 0
    for _ in range(200):
        h = _random_loopfree(rng)
        if is_linear(h) != (girth(h) >= 3):
            mismatches += 1
    recs.append(
        SuiteRecord(
            "properties",
            "linearity coincides with girth at least 3 on 200 random hypergraphs",
            mismatches == 0,
            f"mismatches={mismatches}",
        )
    )

    rng = random.Random(SUITE_SEED + 2)
    pool = [tables[name] for name in POOL]
    disagreements = 0
    bad_counterexamples = 0
    for _ in range(50):
        s = pool[rng.randrange(len(pool))]
        ident = parse_identity(_random_identity_text(rng))
        fast = check_identity_flat(s, ident)
        slow = check_identity_bruteforce(s, ident)
        if fast.holds != slow.holds:
            disagreements += 1
        for res in (fast, slow):
            if res.counterexample is not None:
                if eval_term(ident.lhs, res.counterexample, s) == eval_term(
                    ident.rhs, res.counterexample, s
                ):
                    bad_counterexamples += 1
    recs.append(
        SuiteRecord(
            "properties",
            "flat and brute-force checkers agree on 50 random identities",
            disagreements == 0 and bad_counterexamples == 0,
            f"disagreements={disagreements} bad_counterexamples={bad_counterexamples}",
        )
    )

    recs.append(_flat_sums_record(pool, random.Random(SUITE_SEED + 3)))

    missing = []
    targets = _family_members() + _samples()
    for name, _ in targets:
        if _subword_embedding(tables["sc_abc"], tables[name]) is None:
            missing.append(name)
    recs.append(
        SuiteRecord(
            "properties",
            "sc_abc embeds in every built hypergraph semiring",
            not missing,
            f"checked={len(targets)} missing={','.join(missing) or 'none'}",
        )
    )
    return recs


def run_suite() -> tuple[SuiteRecord, ...]:
    """Run every acceptance section and return the records in fixed order."""
    tables = _build_tables()
    records: list[SuiteRecord] = []
    records.extend(_identity_records(tables))
    records.extend(_coloring_records())
    records.extend(_witness_records())
    records.extend(_certificate_records(tables))
    records.extend(_property_records(tables))
    return tuple(records)
