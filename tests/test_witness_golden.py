"""Witness reports and refusals pinned against a checked-in expected file.

Regenerate the expected file, after a deliberate change to a report, with
`PYTHONPATH=src python tests/test_witness_golden.py`.
"""

from pathlib import Path

from flathg.constructions import format_witness_report, verify_witness
from flathg.hypergraph import build_hypergraph, family
from flathg.suite import sample_nonuniform, sample_pendant

EXPECTED = Path(__file__).parent / "data" / "witness_reports.txt"


def _disjoint_leaf():
    return build_hypergraph(
        [f"u{i}" for i in range(1, 10)],
        [("u1", "u2", "u3"), ("u3", "u4", "u5"), ("u5", "u6", "u1"), ("u7", "u8", "u9")],
    )


def _nonlinear():
    return build_hypergraph(["u1", "u2", "u3", "u4"], [("u1", "u2", "u3"), ("u1", "u2", "u4")])


CORPUS = [
    ("triangle_in_abcd", dict(kind="triangle_in_abcd")),
    *[
        (f"strongcolor_equiv {name}", dict(kind="strongcolor_equiv", hypergraph=h))
        for name, h in [
            ("n_cycle(3)", family("n_cycle", 3)),
            ("n_cycle(4)", family("n_cycle", 4)),
            ("beam(1)", family("beam", 1)),
            ("nonlinear", _nonlinear()),
        ]
    ],
    (
        "uniform_reduction nonuniform",
        dict(kind="uniform_reduction", hypergraph=sample_nonuniform()),
    ),
    ("uniform_reduction beam(1)", dict(kind="uniform_reduction", hypergraph=family("beam", 1))),
    (
        "leaf_removal shared",
        dict(kind="leaf_removal", hypergraph=sample_pendant(), leaf_case="shared"),
    ),
    (
        "leaf_removal disjoint",
        dict(kind="leaf_removal", hypergraph=_disjoint_leaf(), leaf_case="disjoint"),
    ),
    (
        "leaf_removal missing",
        dict(kind="leaf_removal", hypergraph=family("beam", 2), leaf_case="disjoint"),
    ),
    (
        "leaf_removal bogus",
        dict(kind="leaf_removal", hypergraph=sample_pendant(), leaf_case="bogus"),
    ),
    (
        "leaf_removal nonlinear bogus",
        dict(kind="leaf_removal", hypergraph=_nonlinear(), leaf_case="bogus"),
    ),
    ("leaf_removal no arguments", dict(kind="leaf_removal")),
    *[(f"beam_step {i}", dict(kind="beam_step", index=i)) for i in (0, 1, 2, 6)],
    *[(f"nested_chain {i}", dict(kind="nested_chain", index=i)) for i in (0, 1, 2)],
]


def render_corpus() -> str:
    parts = []
    for label, kwargs in CORPUS:
        try:
            body = format_witness_report(verify_witness(**kwargs))
        except ValueError as exc:
            body = f"ValueError: {exc}\n"
        parts.append(f"=== {label}\n{body}")
    return "".join(parts)


def test_reports_match_the_expected_file():
    assert render_corpus() == EXPECTED.read_text(encoding="utf-8")


if __name__ == "__main__":
    EXPECTED.write_text(render_corpus(), encoding="utf-8")
