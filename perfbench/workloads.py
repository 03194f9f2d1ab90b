"""The four workloads: the inputs each case gets, the call it makes into
flathg, and how its answer is checked.

Every case looks its flathg function up on the module when it runs, so the
traced run's wrappers see the call. Inputs are made when a workload is built
(that is set-up time); references are computed once afterwards, outside any
timing, from `reference` and never from flathg's own answers.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref
from harness import INTERPRETER, TABLE_SCAN


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    # The expected answer; called once, outside the timed region.
    reference: Callable[[], object]
    # (result, expected) -> None when they agree, else what differs.
    check: Callable[[object, object], str | None]


def _equal(got, want) -> str | None:
    return None if got == want else f"got {got!r}, want {want!r}"


def _witness(report, want) -> str | None:
    """want is (ok, power arity, quotient size)."""
    return _equal((report.ok, report.power_arity, report.quotient_size), want)


def suite(fl, seed: int) -> list[Case]:
    """`flathg suite --format structured` through the CLI entry point.

    What users and CI run. Brute-force term evaluation in its property
    section dominates. The suite is seeded internally, so the workload seed
    changes nothing here.
    """
    cli = importlib.import_module("flathg.cli")
    importlib.import_module("flathg.suite")
    argv = ["suite", "--format", "structured"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result, digest):
        code, text = result
        failing = [r["label"] for r in map(json.loads, text.splitlines()) if not r["ok"]]
        got = hashlib.sha256(text.encode()).hexdigest()
        if code == 0 and not failing and got == digest:
            return None
        return f"exit {code}, failing records {failing}, output sha256 {got}"

    return [Case("flathg suite --format structured", run, lambda: ref.SUITE_DIGEST, check)]


def arity(fl, seed: int) -> list[Case]:
    """Witnesses whose cost is the subpower closure and the ideal quotient.

    strongcolor_equiv on n_cycle(4) and n_cycle(5) takes powers of arity 18
    and 30 over the 8-element sc_abc; triangle_in_abcd takes arity 2 over the
    16-element sc_abcd. Every base has at most 16 elements. n_cycle(6) is
    left out: it takes about 17 s on a 2-core sandbox.
    """
    cases = []
    for n in (4, 5):
        h = fl.family("n_cycle", n)
        cases.append(Case(
            f"strongcolor_equiv n_cycle({n})",
            lambda h=h: fl.verify_witness("strongcolor_equiv", hypergraph=h),
            lambda n=n: (True, ref.cycle_colorings(n), ref.strongcolor_quotient(n)),
            _witness,
        ))
    cases.append(Case(
        "triangle_in_abcd",
        lambda: fl.verify_witness("triangle_in_abcd"),
        lambda: (True, 2, ref.family_size(1)),
        _witness,
    ))
    random.Random(seed).shuffle(cases)
    return cases


def _certify(fl, h):
    s = fl.build_semiring(h).exported
    cert = fl.subdirect_irreducibility_certificate(s)
    return (
        s.size,
        fl.verify_axioms(s).all_pass,
        fl.is_flat(s),
        fl.is_zero_cancellative(s) is True,
        cert.granted,
        cert.annihilators,
    )


def tables(fl, seed: int) -> list[Case]:
    """Build and certify family semirings of 32 to 104 elements.

    The O(n^3) table scans of `semiring` (verify_axioms, and flat_completion
    inside build_semiring) dominate. beam_step takes arity-3 powers over
    20- to 80-element bases, the other side of a 16-element packed encoding.
    """
    cases = []
    for kind in ("beam", "fan", "nested"):
        for i in (4, 8, 12, 16):
            h = fl.family(kind, i)
            cases.append(Case(
                f"certify {kind}({i})",
                lambda h=h: _certify(fl, h),
                lambda i=i: (ref.family_size(i), True, True, True, True, ("TOP",)),
                _equal,
            ))
    for i in (1, 4, 8, 12):
        cases.append(Case(
            f"beam_step({i})",
            lambda i=i: fl.verify_witness("beam_step", index=i),
            lambda i=i: (True, 3, ref.beam_step_quotient(i)),
            _witness,
        ))
    random.Random(seed).shuffle(cases)
    return cases


IDENTITIES_PER_CARRIER = 48


def random_identity(rng: random.Random, variables: int, commuted: bool) -> str:
    """A sum-of-products identity over x1 .. x<variables>.

    A commuted one repeats the left side with its monomials and their
    factors shuffled, so it holds on the commutative carriers used here and
    the checker must exhaust its search; otherwise the two sides are drawn
    independently and the identity mostly fails early.
    """
    names = [f"x{k}" for k in range(1, variables + 1)]

    def side():
        return [[rng.choice(names) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 3))]

    lhs = side()
    if commuted:
        rhs = [rng.sample(mono, len(mono)) for mono in rng.sample(lhs, len(lhs))]
    else:
        rhs = side()

    def text(monomials):
        return " + ".join("*".join(mono) for mono in monomials)

    return f"{text(lhs)} = {text(rhs)}"


def _nested_chain(report, upper) -> str | None:
    identity, size, want_size = upper
    stages = [(st.name, st.ok) for st in report.stages]
    if not report.ok or stages != [("lower-satisfies", True), ("upper-fails", True)]:
        return f"ok={report.ok} stages={stages}"
    if size != want_size:
        return f"upper semiring has {size} elements, want {want_size}"
    pins = ref.parse_pins(report.notes[0]) if report.notes else {}
    if not identity.separates(pins):
        return f"separating assignment {pins} does not separate"
    return None


def _identity_verdict(result, expected) -> str | None:
    identity, holds = expected
    want = "holds" if holds else "fails"
    if result.verdict != want:
        return f"verdict {result.verdict}, want {want}"
    if holds != (result.counterexample is None):
        return f"counterexample {result.counterexample} with verdict {result.verdict}"
    if result.counterexample is not None and not identity.separates(result.counterexample):
        return f"counterexample {result.counterexample} does not separate"
    return None


def search(fl, seed: int) -> list[Case]:
    """The flat decision procedure and the strong-coloring search.

    nested_chain(2..4), the nested:8 identity on n_cycle(8), 2-robustness of
    n_cycle(6/8/10), all strong colorings of n_cycle(10), and seeded random
    identities on carriers of at most 14 elements. The seed picks the random
    identities and the case order.
    """
    rng = random.Random(seed)
    cases = []

    def upper(i):
        s = fl.build_semiring(fl.family("nested", i + 1)).exported
        return ref.Identity(ref.nested_text(i + 1), s.elements, s.add, s.mul), s.size, ref.family_size(i + 1)

    for i in (2, 3, 4):
        cases.append(Case(
            f"nested_chain({i})",
            lambda i=i: fl.verify_witness("nested_chain", index=i),
            lambda i=i: upper(i),
            _nested_chain,
        ))
    cycle8 = fl.build_semiring(fl.family("n_cycle", 8)).exported
    nested8 = fl.parse_identity(ref.nested_text(8))
    cases.append(Case(
        "check_identity_flat n_cycle(8) nested:8",
        lambda: (fl.check_identity_flat(cycle8, nested8).verdict, cycle8.size),
        lambda: ("holds", ref.strongcolor_quotient(8)),
        _equal,
    ))
    for n in (6, 8, 10):
        h = fl.family("n_cycle", n)
        cases.append(Case(
            f"is_2_robust n_cycle({n})",
            lambda h=h: fl.is_2_robust(h).robust,
            lambda: True,
            _equal,
        ))
    cycle10 = fl.family("n_cycle", 10)
    cases.append(Case(
        "enumerate_strong_colorings n_cycle(10)",
        lambda: fl.enumerate_strong_colorings(cycle10),
        lambda: ref.cycle_hypergraph(10),
        lambda colorings, h: None if ref.strong_colorings_ok(*h, colorings, 10)
        else f"{len(colorings)} colorings do not match",
    ))
    # Each identity is its own case, so the pooled median case time is the
    # median identity check, which is steady across seeds; the carriers all
    # have 14 elements, so the case times form one cluster.
    for kind, i in (("beam", 1), ("fan", 1), ("nested", 1), ("n_cycle", 3)):
        s = fl.build_semiring(fl.family(kind, i)).exported
        # The mix is fixed (every third identity commuted, 2 to 4 variables
        # in turn); only the terms are drawn from the seed.
        for k in range(IDENTITIES_PER_CARRIER):
            text = random_identity(rng, 2 + k // 3 % 3, k % 3 == 0)
            ident = fl.parse_identity(text)
            cases.append(Case(
                f"check_identity_flat {kind}({i}): {text}",
                lambda s=s, ident=ident: fl.check_identity_flat(s, ident),
                lambda s=s, text=text: _decided(ref.Identity(text, s.elements, s.add, s.mul)),
                _identity_verdict,
            ))
    rng.shuffle(cases)
    return cases


def _decided(identity):
    return identity, identity.holds()


WORKLOADS = {"suite": suite, "arity": arity, "tables": tables, "search": search}
# The calibration loop that scales each workload's times (see harness).
CALIBRATIONS = {"suite": INTERPRETER, "arity": INTERPRETER, "tables": TABLE_SCAN, "search": INTERPRETER}
