"""Acceptance gate: one test per top-level criterion, timed against its budget.

Each test reproduces the exact verdicts the library must deliver, so a
`pytest -v` run of this file reads as the acceptance checklist. Budgets are
asserted with a monotonic clock around the whole criterion body.
"""

import random
import time

from flathg.coloring import is_2_robust
from flathg.constructions import find_subword_embedding, verify_witness
from flathg.hg_semiring import build_semiring
from flathg.hypergraph import build_hypergraph, family, girth, is_linear
from flathg.semiring import (
    is_flat,
    is_zero_cancellative,
    subdirect_irreducibility_certificate,
    verify_axioms,
)
from flathg.suite import (
    SUITE_SEED,
    _build_tables,
    _property_records,
    random_hyperforest,
    single_edge,
)
from flathg.terms import (
    builtin_identity,
    check_identity_bruteforce,
    check_identity_flat,
    eval_term,
)
from flathg.words import build_sc, builtin_s7


def test_criterion_1_identity_separations(sc_abc, sc_abcd, s7,
                                          triangle_semiring, nested_semirings):
    start = time.monotonic()

    eq31 = builtin_identity("eq3.1")
    assert check_identity_flat(sc_abc, eq31).holds
    triangle_verdict = check_identity_flat(triangle_semiring, eq31)
    assert not triangle_verdict.holds
    witness = {f"x{i}": f"a·u{i}" for i in range(1, 7)}
    assert triangle_verdict.counterexample == witness
    assert (eval_term(eq31.lhs, witness, triangle_semiring)
            != eval_term(eq31.rhs, witness, triangle_semiring))
    assert time.monotonic() - start < 5.0

    eq42 = builtin_identity("eq4.2")
    assert check_identity_flat(nested_semirings[1], eq42).holds
    assert not check_identity_flat(nested_semirings[2], eq42).holds
    assert time.monotonic() - start < 30.0

    eq43 = builtin_identity("eq4.3")
    assert check_identity_flat(nested_semirings[2], eq43).holds
    assert not check_identity_flat(nested_semirings[3], eq43).holds
    assert time.monotonic() - start < 300.0

    tail = time.monotonic()
    s7_eq42 = check_identity_bruteforce(s7, eq42)
    assert s7_eq42.holds
    assert s7_eq42.explored == 3**9
    eq44 = builtin_identity("eq4.4")
    assert not check_identity_bruteforce(s7, eq44).holds
    assert check_identity_flat(nested_semirings[2], eq44).holds
    assert not check_identity_flat(sc_abcd, eq44).holds
    assert time.monotonic() - tail < 5.0


def test_criterion_2_coloring_results():
    start = time.monotonic()

    triangle = family("beam", 1)
    report = is_2_robust(triangle)
    assert not report.robust
    assert report.failure.pair == ("u1", "u4")
    assert report.failure.assignment == (0, 1)

    for n in range(4, 9):
        assert is_2_robust(family("n_cycle", n)).robust

    rng = random.Random(SUITE_SEED)
    for _ in range(5):
        forest = random_hyperforest(rng, max_edges=10)
        assert girth(forest) == float("inf")
        assert is_2_robust(forest).robust

    assert time.monotonic() - start < 30.0


def test_criterion_3_witness_pipeline():
    start = time.monotonic()

    assert verify_witness("triangle_in_abcd").ok

    assert verify_witness("strongcolor_equiv", hypergraph=family("n_cycle", 4)).ok

    nonuniform = build_hypergraph(
        ["u1", "u2", "u3", "u4", "u5"],
        [("u1", "u2", "u3"), ("u4", "u5")],
    )
    assert verify_witness("uniform_reduction", hypergraph=nonuniform).ok

    pendant = build_hypergraph(
        [f"u{i}" for i in range(1, 9)],
        [("u1", "u2", "u3"), ("u3", "u4", "u5"),
         ("u5", "u6", "u1"), ("u7", "u8", "u1")],
    )
    assert verify_witness("leaf_removal", hypergraph=pendant, leaf_case="shared").ok

    for i in (1, 2, 3):
        step = verify_witness("beam_step", index=i)
        assert step.ok
        assert step.quotient_size == 6 * (i + 1) + 8

    assert time.monotonic() - start < 120.0


def test_criterion_4_structural_certificates():
    start = time.monotonic()

    members = (
        [("beam", family("beam", i)) for i in (1, 2, 3)]
        + [("fan", family("fan", i)) for i in (1, 2, 3)]
        + [("nested", family("nested", i)) for i in (1, 2, 3)]
        + [("n_cycle", family("n_cycle", n)) for n in range(3, 9)]
        + [("single-edge", single_edge())]
    )
    assert len(members) == 16
    for name, h in members:
        s = build_semiring(h).exported
        assert verify_axioms(s).all_pass, name
        assert is_flat(s), name
        assert is_zero_cancellative(s) is True, name
        cert = subdirect_irreducibility_certificate(s)
        assert cert.granted, name
        assert cert.annihilators == ("TOP",), name

    assert time.monotonic() - start < 60.0


def test_criterion_5_property_suites():
    start = time.monotonic()

    records = _property_records(_build_tables())
    assert len(records) == 4
    failing = [r for r in records if not r.ok]
    assert failing == []

    # spot-check the ingredients independently of the batch runner
    rng = random.Random(0xACCE)
    for _ in range(20):
        forest = random_hyperforest(rng, max_edges=6)
        assert is_linear(forest) == (girth(forest) >= 3)
    assert find_subword_embedding(
        build_semiring(family("fan", 2)).exported
    ) is not None

    assert time.monotonic() - start < 120.0


def test_out_of_reach_boundary_first_three_inclusions_only():
    """The variety chain is only machine-checked at i = 1, 2, 3.

    The general statements behind it (no finite identity basis, strictness
    for every i) are not decidable by this artifact, so the checked boundary
    is pinned here: three nested separations succeed and nothing past the
    third is claimed.
    """
    for i in (1, 2, 3):
        assert verify_witness("nested_chain", index=i).ok

    s7 = builtin_s7()
    cert = subdirect_irreducibility_certificate(s7)
    assert not cert.granted  # flatness alone never certifies irreducibility
