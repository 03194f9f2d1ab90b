import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from flathg import cli, constructions, semiring, terms
from flathg.cli import main
from flathg.constructions import format_witness_report, verify_witness
from flathg.hg_semiring import build_semiring
from flathg.hypergraph import family, format_hypergraph, parse_hypergraph
from flathg.semiring import format_semiring

BOOL_LATTICE = json.dumps(
    {
        "elements": ["0", "1"],
        "add": [[0, 1], [1, 1]],
        "mul": [[0, 0], [0, 1]],
        "zero": 0,
    }
)

# sha256 of `flathg suite --format structured`; a change to any verdict,
# detail or field order of the battery shows up here.
SUITE_DIGEST = "6563ca5fa89a9d982ca48432d12e84fef2bb345fb262b18822b4e5baa8d7439e"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_holding_identity_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["check", "builtin:sc_abc", "eq3.1"])
        assert code == 0
        assert out == "holds\n"

    def test_failing_identity_exits_one(self, capsys):
        code, out, _ = run(capsys, ["check", "builtin:s7", "eq4.4"])
        assert code == 1
        assert out == "fails: x1=1 x2=1 x3=1 x4=1 y1=1 y2=1 y3=1 y4=a\n"

    def test_no_subcommand_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 2
        assert "a subcommand is required" in err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2

    def test_unknown_option_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--workers", "2", "suite"])
        assert exc.value.code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["validate", "/no/such/file.json"])
        assert code == 2
        assert "cannot read file: /no/such/file.json" in err

    def test_an_unwritable_export_is_an_input_error(self, capsys, tmp_path):
        code, out, err = run(capsys, ["check", "builtin:sc_abc", "eq3.1", "--export", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err.startswith("flathg: error: [Errno 21] Is a directory")

    @staticmethod
    def _run_into_a_closed_pipe(argv, unbuffered="", read_first=0):
        """Run `python -m flathg.cli argv` with stdout a pipe whose reader
        reads read_first bytes and closes its end (before the process
        starts, for none), so every later write to it fails. Returns the
        exit status and stderr."""
        read_end, write_end = os.pipe()
        if not read_first:
            os.close(read_end)
        src = str(pathlib.Path(cli.__file__).parents[1])
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            "PYTHONUNBUFFERED": unbuffered,
        }
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "flathg.cli", *argv], stdout=write_end, stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write_end)
        if read_first:
            os.read(read_end, read_first)
            os.close(read_end)
        _, err = proc.communicate(timeout=60)
        return proc.returncode, err

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("argv", [["family", "beam", "3000"], ["check", "builtin:sc_abc", "eq3.1"]])
    def test_a_closed_output_pipe_exits_141_in_silence(self, argv, unbuffered):
        """As for `flathg ... | head -1`, whether the output fills the pipe's
        buffer or is one line. An empty PYTHONUNBUFFERED leaves stdout
        block-buffered, as a pipe is by default, so a one-line output is
        first written when `main` flushes."""
        assert self._run_into_a_closed_pipe(argv, unbuffered) == (141, b"")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_a_reader_that_leaves_midway_gets_exit_141(self, unbuffered):
        """As for `flathg family beam 3000 | head -c 1`: the reader goes while
        a write waits on the full pipe. On unbuffered stdout that write
        returns short and the text layer drops the rest, so a later write
        must meet the closed pipe."""
        done = self._run_into_a_closed_pipe(["family", "beam", "3000"], unbuffered, read_first=1)
        assert done == (141, b"")

    def test_a_closed_output_pipe_leaves_the_whole_export(self, tmp_path):
        """As for `flathg ... --export PATH | head`: the export is written
        before stdout, so the reader leaving cannot cut it short."""
        target = tmp_path / "beam3000.json"
        done = self._run_into_a_closed_pipe(["family", "beam", "3000", "--export", str(target)])
        assert done == (141, b"")
        assert target.read_text(encoding="utf-8") == format_hypergraph(family("beam", 3000))

    def test_unknown_builtin_for_hypergraph_command(self, capsys):
        code, _, err = run(capsys, ["semiring", "builtin:s7"])
        assert code == 2
        assert "needs a hypergraph" in err

    def test_budget_exceeded_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(BOOL_LATTICE)
        code, _, err = run(
            capsys, ["--budget-evals", "3", "check", str(path), "x1*x2=x2*x1"]
        )
        assert code == 2
        assert "budget exceeded: 2^2 = 4 evaluations > 3" in err

    def test_monomial_cap_is_an_input_error(self, capsys):
        binomials = "*".join(f"(x{i}+y{i})" for i in range(13))
        code, _, err = run(capsys, ["check", "builtin:sc_abc", f"{binomials}=x0"])
        assert code == 2
        assert err == (
            "flathg: error: identity side expands to 8192 monomials, "
            "over the flat checker's cap of 4096\n"
        )

    @pytest.mark.parametrize("key", ("nested:²", "nested:١"))
    def test_a_nested_index_of_other_digits_is_an_input_error(self, capsys, key):
        """Not a traceback ('²'), nor a check of nested:1 (Arabic-Indic one):
        the key is no builtin, so the token is read as a file."""
        code, out, err = run(capsys, ["check", "builtin:sc_abc", key])
        assert (code, out) == (2, "")
        assert err.startswith(f"flathg: error: cannot read file: {key} ")

    @pytest.mark.parametrize("index", (513, 10**9))
    def test_a_nested_index_past_the_bound_is_an_input_error(self, capsys, monkeypatch, index):
        def unreachable(i):
            raise AssertionError(f"nested_identity({i}) was built")

        monkeypatch.setattr(terms, "nested_identity", unreachable)
        code, out, err = run(capsys, ["check", "builtin:sc_abc", f"nested:{index}"])
        assert (code, out) == (2, "")
        assert err == (
            f"flathg: error: identity 'nested:{index}': index over MAX_NESTED_INDEX (512), "
            "the largest the flat checker accepts\n"
        )

    def test_deep_brackets_are_an_input_error(self, capsys):
        code, _, err = run(capsys, ["check", "builtin:sc_abc", "(" * 400 + "x" + ")" * 400 + "=x"])
        assert code == 2
        assert "brackets nested deeper than 200 levels (at position 200)" in err

    def test_an_identity_line_past_the_length_budget_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("x = x\n" + " + ".join(["x"] * 400_000) + " = x\n")
        code, out, err = run(capsys, ["check", "builtin:sc_abc", str(path)])
        assert (code, out) == (2, "")
        assert err == (
            f"flathg: error: bad identity file {path}: "
            "identity longer than 1000000 characters (at position 1000000)\n"
        )

    @pytest.mark.parametrize("argv", (["validate", "{path}"], ["check", "builtin:sc_abc", "{path}"]))
    def test_a_file_that_is_not_utf8_is_an_input_error(self, capsys, tmp_path, argv):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfex\x00")
        code, out, err = run(capsys, [a.format(path=path) for a in argv])
        assert (code, out) == (2, "")
        assert err == f"flathg: error: cannot read file: {path} (not UTF-8 at byte 0)\n"

    @pytest.mark.parametrize("argv", (["validate"], ["check", "eq3.1"]))
    def test_deep_json_is_an_input_error(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, [argv[0], str(path), *argv[1:]])
        assert code == 2
        assert "maximum recursion depth exceeded" in err

    @pytest.mark.parametrize(
        "zero, message",
        ((0, "add table entry True is not an element index"), (False, "zero index False out of range")),
        ids=("true-entry", "false-zero"),
    )
    def test_boolean_indices_are_an_input_error(self, capsys, tmp_path, zero, message):
        path = tmp_path / "bool.json"
        doc = {"elements": ["0", "x"], "add": [[0, True], [True, True]], "mul": [[0, 0], [0, 1]]}
        path.write_text(json.dumps({**doc, "zero": zero}))
        code, _, err = run(capsys, ["check", str(path), "eq3.1"])
        assert code == 2
        assert err == f"flathg: error: bad semiring file {path}: {message}\n"

    @pytest.mark.parametrize(
        "doc, message",
        (
            ([1, 2], "bad semiring file {path}: top level must be an object"),
            ({"elements": ["0"], "add": [[0]]}, "bad semiring file {path}: missing fields: mul"),
            ({"vertices": "abc", "edges": []}, "bad hypergraph file {path}: 'vertices' and 'edges' must be lists"),
        ),
        ids=("array", "no-mul", "vertices-not-a-list"),
    )
    def test_a_malformed_subject_document_is_an_input_error(self, capsys, tmp_path, doc, message):
        path = tmp_path / "subject.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["check", str(path), "eq3.1"])
        assert (code, out) == (2, "")
        assert err == f"flathg: error: {message.format(path=path)}\n"


# Two edges share the pair {a, b}, so the hypergraph parses but is not linear.
NON_LINEAR = json.dumps({"vertices": ["a", "b", "c", "d"], "edges": [["a", "b", "c"], ["a", "b", "d"]]})

# Each site where a library call refuses its input with ValueError, driven
# through main. Arguments ending in .json name the files the test writes.
LIBRARY_REFUSALS = [
    pytest.param(["family", "zigzag", "3"], "unsupported kind/index combination: 'zigzag', 3",
                 id="family-command"),
    pytest.param(["semiring", "family:n_cycle:2"], "unsupported kind/index combination: n_cycle, 2",
                 id="family-token"),
    pytest.param(["semiring", "nonlinear.json"], "hypergraph is not admissible: linear",
                 id="semiring-non-linear"),
    pytest.param(["check", "nonlinear.json", "eq3.1"], "hypergraph is not admissible: linear",
                 id="check-non-linear-subject"),
    pytest.param(["check", "builtin:sc_abc", "nested:513"],
                 "identity 'nested:513': index over MAX_NESTED_INDEX (512), "
                 "the largest the flat checker accepts",
                 id="nested-index"),
    pytest.param(["check", "builtin:sc_abc", "*".join(f"(x{i}+y{i})" for i in range(13)) + "=x0"],
                 "identity side expands to 8192 monomials, over the flat checker's cap of 4096",
                 id="monomial-cap"),
    pytest.param(["--budget-evals", "3", "check", "bool.json", "x1*x2=x2*x1"],
                 "budget exceeded: 2^2 = 4 evaluations > 3; use the flat checker",
                 id="brute-force-budget"),
    pytest.param(["--colorings-cap", "5", "color", "family:beam:1"],
                 "more than 5 strong colorings; raise the cap", id="colorings-cap-count"),
    pytest.param(["--colorings-cap", "5", "color", "family:beam:1", "--enumerate"],
                 "more than 5 strong colorings; raise the cap", id="colorings-cap-enumerate"),
    pytest.param(["--colorings-cap", "5", "witness", "strongcolor_equiv", "family:n_cycle:4"],
                 "more than 5 strong colorings; raise the cap", id="colorings-cap-witness"),
    pytest.param(["color", "family:beam:1", "--extend", "u1=0,u2=0"],
                 "invalid partial assignment: {u1, u2} is a subhyperedge but both are colored 0",
                 id="extend-subhyperedge"),
    pytest.param(["color", "family:beam:1", "--extend", "zz=0"],
                 "unknown vertex 'zz' in partial assignment", id="extend-unknown-vertex"),
    pytest.param(["color", "family:beam:1", "--extend", "u1=5"],
                 "color 5 is not one of 0, 1, 2", id="extend-color-5"),
    pytest.param(["--closure-cap", "1", "witness", "beam_step", "1"],
                 "closure exceeded 1 elements; refusing to continue", id="closure-cap"),
    pytest.param(["witness", "strongcolor_equiv", "nonlinear.json"],
                 "strongcolor_equiv requires an admissible hypergraph", id="witness-inadmissible"),
    pytest.param(["witness", "leaf_removal", "family:beam:2", "bogus"],
                 "leaf_case must be 'disjoint' or 'shared'", id="witness-leaf-case"),
]


class TestLibraryRefusals:
    @pytest.mark.parametrize("argv, message", LIBRARY_REFUSALS)
    def test_a_refusal_exits_two_with_its_message(self, capsys, tmp_path, argv, message):
        (tmp_path / "nonlinear.json").write_text(NON_LINEAR)
        (tmp_path / "bool.json").write_text(BOOL_LATTICE)
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert run(capsys, argv) == (2, "", f"flathg: error: {message}\n")

    def test_an_internal_error_is_not_a_refusal(self, monkeypatch):
        def broken(h):
            raise RuntimeError("internal error")

        monkeypatch.setattr(cli, "is_2_robust", broken)
        with pytest.raises(RuntimeError, match="internal error"):
            main(["color", "family:beam:1", "--robust"])


class TestValidate:
    def test_families_are_valid(self, capsys):
        code, out, _ = run(capsys, ["validate", "family:fan:2"])
        assert code == 0
        assert out == "valid: 9 vertices, 5 edges\n"

    @pytest.mark.parametrize("edge", ["abc", {"a": 1, "b": 2, "c": 3}, 7], ids=["string", "dict", "int"])
    def test_an_edge_that_is_not_a_list_is_an_input_error(self, capsys, tmp_path, edge):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [edge]}))
        code, out, err = run(capsys, ["validate", str(path)])
        assert (code, out) == (2, "")
        assert err == f"flathg: error: bad hypergraph file {path}: edge must be a list of vertex ids, got {edge!r}\n"

    def test_violations_are_listed(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b", "c", "d"],
            "edges": [["a", "b", "c"], ["a", "b", "d"]],
        }))
        code, out, _ = run(capsys, ["validate", str(path)])
        assert code == 1
        assert "linear" in out

    def test_export_writes_the_printed_report(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b", "c", "d"],
            "edges": [["a", "b", "c"], ["a", "b", "d"]],
        }))
        target = tmp_path / "report.txt"
        code, out, _ = run(capsys, ["validate", str(path), "--export", str(target)])
        assert code == 1
        assert out.startswith("invalid:\n")
        assert target.read_text() == out


# Hypergraph files for `flathg semiring`: a 3-edge beside a 2-edge, and a
# lone 2-edge, whose top is the product of its two generators.
SEMIRING_FILES = {
    "mixed": {"vertices": ["u1", "u2", "u3", "u4", "u5"], "edges": [["u1", "u2", "u3"], ["u4", "u5"]]},
    "two-edge": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
}

CERTIFICATE_LINE = "certificate: granted (annihilators: TOP)\n"

# subject, text report, structured record after its "source" field.
SEMIRING_PINS = [
    (
        "family:beam:1",
        "14 elements: 6 generators, 6 pair classes, zero and top\n" + CERTIFICATE_LINE,
        '"size": 14, "generators": 6, "pair_classes": 6, "flat": true, '
        '"certificate_granted": true, "annihilators": ["TOP"], "degenerate": false}\n',
    ),
    (
        "family:nested:2",
        "20 elements: 9 generators, 9 pair classes, zero and top\n" + CERTIFICATE_LINE,
        '"size": 20, "generators": 9, "pair_classes": 9, "flat": true, '
        '"certificate_granted": true, "annihilators": ["TOP"], "degenerate": false}\n',
    ),
    (
        "mixed",
        "10 elements: 5 generators, 3 pair classes, zero and top\n" + CERTIFICATE_LINE,
        '"size": 10, "generators": 5, "pair_classes": 3, "flat": true, '
        '"certificate_granted": true, "annihilators": ["TOP"], "degenerate": false}\n',
    ),
    (
        "two-edge",
        "4 elements: 2 generators, 0 pair classes, zero and top\n" + CERTIFICATE_LINE
        + "note: no 3-edge, no product of three generators reaches the top\n",
        '"size": 4, "generators": 2, "pair_classes": 0, "flat": true, '
        '"certificate_granted": true, "annihilators": ["TOP"], "degenerate": true}\n',
    ),
]


def _semiring_source(tmp_path, subject):
    if subject.startswith("family:"):
        return subject
    path = tmp_path / f"{subject}.json"
    path.write_text(json.dumps(SEMIRING_FILES[subject]))
    return str(path)


class TestSemiring:
    @pytest.mark.parametrize("subject,text,record", SEMIRING_PINS, ids=[p[0] for p in SEMIRING_PINS])
    def test_text_report(self, capsys, tmp_path, subject, text, record):
        code, out, _ = run(capsys, ["semiring", _semiring_source(tmp_path, subject)])
        assert code == 0
        assert out == text

    @pytest.mark.parametrize("subject,text,record", SEMIRING_PINS, ids=[p[0] for p in SEMIRING_PINS])
    def test_structured_record(self, capsys, tmp_path, subject, text, record):
        source = _semiring_source(tmp_path, subject)
        code, out, _ = run(capsys, ["--format", "structured", "semiring", source])
        assert code == 0
        assert out == '{"command": "semiring", "source": ' + json.dumps(source) + ", " + record

    def test_the_exchange_document_is_built_only_for_export(self, capsys, tmp_path, monkeypatch):
        formatted = []
        monkeypatch.setattr(cli, "format_semiring", lambda s: formatted.append(s) or format_semiring(s))
        code, out, _ = run(capsys, ["semiring", "family:beam:1"])
        assert (code, formatted) == (0, [])
        target = tmp_path / "beam1.json"
        code, exported_out, _ = run(capsys, ["semiring", "family:beam:1", "--export", str(target)])
        assert (code, exported_out, len(formatted)) == (0, out, 1)
        assert target.read_text(encoding="utf-8") == format_semiring(build_semiring(family("beam", 1)).exported)


class TestCheck:
    def test_identity_literal(self, capsys):
        code, out, _ = run(capsys, ["check", "builtin:sc_abc", "x1*x2=x2*x1"])
        assert code == 0
        assert out == "holds\n"

    def test_family_token_subject(self, capsys):
        code, out, _ = run(capsys, ["check", "family:nested:1", "eq4.2"])
        assert code == 0
        code, out, _ = run(capsys, ["check", "family:nested:2", "eq4.2"])
        assert code == 1

    def test_hypergraph_file_subject(self, capsys, tmp_path):
        path = tmp_path / "nested2.json"
        path.write_text(format_hypergraph(family("nested", 2)))
        assert run(capsys, ["check", str(path), "eq4.2"]) == run(
            capsys, ["check", "family:nested:2", "eq4.2"]
        )

    def test_structured_record(self, capsys):
        code, out, _ = run(
            capsys, ["--format", "structured", "check", "builtin:sc_abc", "eq3.1"]
        )
        assert code == 0
        record = json.loads(out)
        assert record["verdict"] == "holds"
        assert record["method"] == "flat"
        assert record["counterexample"] is None

    def test_non_idempotent_table_goes_to_brute_force(self, capsys, tmp_path):
        path = tmp_path / "doubling.json"
        path.write_text(
            json.dumps(
                {"elements": ["0", "x"], "add": [0, 0, 0, 0], "mul": [0, 0, 0, 0], "zero": 0}
            )
        )
        code, out, _ = run(capsys, ["--format", "structured", "check", str(path), "x+x = y+y"])
        assert code == 0
        record = json.loads(out)
        assert record["verdict"] == "holds"
        assert record["method"] == "brute-force"

    def test_non_associative_flat_table_goes_to_brute_force(self, capsys, tmp_path):
        # Flat addition, but a·a = 0 while a·b = b·a = b·b = b: multiplication
        # is not associative and neither distributive law holds.
        path = tmp_path / "non_associative.json"
        path.write_text(
            json.dumps(
                {
                    "elements": ["0", "a", "b"],
                    "add": [[0, 0, 0], [0, 1, 0], [0, 0, 2]],
                    "mul": [[0, 0, 0], [0, 0, 2], [0, 2, 2]],
                    "zero": 0,
                }
            )
        )
        code, out, _ = run(
            capsys, ["--format", "structured", "check", str(path), "x*x*y = y*x*x"]
        )
        assert code == 1
        record = json.loads(out)
        assert record["verdict"] == "fails"
        assert record["method"] == "brute-force"
        assert record["counterexample"] == {"x": "a", "y": "b"}

    def test_brackets_are_read_as_written(self, capsys, tmp_path):
        """q·(p·q) = q but (q·p)·q = p: brute force separates the groupings."""
        path = tmp_path / "grouping.json"
        path.write_text(json.dumps(
            {"elements": ["p", "q"], "add": [[0, 0], [0, 1]], "mul": [[0, 0], [1, 0]]}
        ))
        grouped = "x*(y*z) = (x*y)*z"
        code, out, _ = run(capsys, ["--format", "structured", "check", str(path), grouped])
        assert code == 1
        record = json.loads(out)
        assert (record["verdict"], record["method"], record["explored"]) == ("fails", "brute-force", 6)
        assert list(record["counterexample"].items()) == [("x", "q"), ("y", "p"), ("z", "q")]
        assert run(capsys, ["check", str(path), grouped]) == (1, "fails: x=q y=p z=q\n", "")
        assert run(capsys, ["check", str(path), "x*y*z = (x*y)*z"]) == (0, "holds\n", "")

    def test_a_non_flat_subject_reads_flatness_and_no_law(self, capsys, tmp_path, monkeypatch):
        """A chain lattice (add = max, mul = min) is not flat, so check
        sends it to brute force without scanning any semiring law."""
        scans = []
        for name in ("_assoc_failure", "_distributive_failure", "_commutativity_failure",
                     "_cancellation_failure", "verify_axioms"):
            monkeypatch.setattr(semiring, name, lambda *a, name=name: scans.append(name))
        r = range(6)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({
            "elements": [str(i) for i in r],
            "add": [[max(i, j) for j in r] for i in r],
            "mul": [[min(i, j) for j in r] for i in r],
            "zero": 0,
        }))
        code, out, _ = run(capsys, ["--format", "structured", "check", str(path), "x*(x+y) = x"])
        assert code == 0
        record = json.loads(out)
        assert (record["verdict"], record["method"], record["explored"]) == ("holds", "brute-force", 36)
        assert scans == []

    @pytest.mark.parametrize("fmt", ("text", "structured"))
    def test_export_writes_the_printed_verdicts(self, capsys, tmp_path, fmt):
        target = tmp_path / "verdicts.txt"
        code, out, _ = run(
            capsys, ["--format", fmt, "check", "builtin:s7", "eq4.4", "--export", str(target)]
        )
        assert code == 1
        assert target.read_text() == out != ""

    def test_flags_work_after_the_subcommand_too(self, capsys):
        _, before, _ = run(
            capsys, ["--format", "structured", "check", "builtin:sc_abc", "eq3.1"]
        )
        _, after, _ = run(
            capsys, ["check", "builtin:sc_abc", "eq3.1", "--format", "structured"]
        )
        assert before == after


class TestColor:
    def test_default_reports_the_count(self, capsys):
        code, out, _ = run(capsys, ["color", "family:beam:1"])
        assert code == 0
        assert out == "strongly 3-colorable: 6 colorings\n"

    def test_robust_pass(self, capsys):
        code, out, _ = run(capsys, ["color", "family:n_cycle:4", "--robust"])
        assert code == 0
        assert out == "2-robust\n"

    def test_robust_failure_names_the_pair(self, capsys):
        code, out, _ = run(capsys, ["color", "family:nested:1", "--robust"])
        assert code == 1
        assert out == "not 2-robust: pair u1,u4 with colors 0,1 does not extend\n"

    def test_extend_verdicts(self, capsys):
        code, out, _ = run(
            capsys, ["color", "family:n_cycle:4", "--extend", "u1=0,u4=1"]
        )
        assert (code, out) == (0, "extends\n")
        code, out, _ = run(
            capsys, ["color", "family:beam:1", "--extend", "u1=0,u4=1"]
        )
        assert (code, out) == (1, "does not extend\n")

    @pytest.mark.parametrize(
        "extra, expected",
        [([], "strongly 3-colorable: 6 colorings\n"), (["--extend", "u1=0"], "extends\n")],
    )
    def test_search_deeper_than_the_recursion_limit(self, capsys, extra, expected):
        # beam(330) has 993 vertices: a search with a frame per vertex overflows.
        code, out, _ = run(capsys, ["color", "family:beam:330", *extra])
        assert (code, out) == (0, expected)

    @pytest.mark.parametrize("text", ("١", "+1", "0_0", "²", ""))
    def test_a_color_is_ascii_digits(self, capsys, text):
        """int() reads all but the last two as 1 or 0 and pins that color."""
        code, out, err = run(capsys, ["color", "family:beam:1", "--extend", f"u1={text}"])
        assert (code, out) == (2, "")
        assert err == f"flathg: error: color of u1 must be an integer: {text!r}\n"

    def test_spaces_around_a_pin_are_ignored(self, capsys):
        assert run(capsys, ["color", "family:beam:1", "--extend", " u1 = 01 , u2= 2"]) == (0, "extends\n", "")

    @pytest.mark.parametrize("partial", ("u1=1,u1=2", "u1=1, u1 =1"))
    def test_a_vertex_named_twice_is_an_input_error(self, capsys, partial):
        code, out, err = run(capsys, ["--format", "structured", "color", "family:beam:1", "--extend", partial])
        assert (code, out) == (2, "")
        assert err == "flathg: error: vertex 'u1' named twice in partial assignment\n"

    def test_enumerate_lists_then_counts(self, capsys):
        code, out, _ = run(capsys, ["color", "family:beam:1", "--enumerate"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "u1=0 u2=1 u3=2 u4=0 u5=1 u6=2"
        assert lines[-1] == "6 strong colorings"
        assert len(lines) == 7


class TestWitness:
    def test_pipeline_report(self, capsys):
        code, out, _ = run(capsys, ["witness", "triangle_in_abcd"])
        assert code == 0
        assert "ok: yes" in out.splitlines()

    def test_text_output_and_export_are_the_formatted_report(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run(capsys, ["witness", "triangle_in_abcd", "--export", str(target)])
        assert code == 0
        assert out == format_witness_report(verify_witness("triangle_in_abcd"))
        assert target.read_bytes() == out.encode()

    def test_unknown_kind(self, capsys):
        code, _, err = run(capsys, ["witness", "bogus"])
        assert code == 2
        assert "unknown witness kind" in err

    def test_beam_step_with_index(self, capsys):
        code, out, _ = run(capsys, ["witness", "beam_step", "2"])
        assert code == 0
        assert "quotient-size: 26" in out.splitlines()

    def test_index_must_be_numeric(self, capsys):
        code, _, err = run(capsys, ["witness", "beam_step", "two"])
        assert code == 2
        assert "index must be an integer" in err

    def test_an_index_in_other_digits_is_an_input_error(self, capsys):
        """int() reads the Arabic-Indic one as 1; beam_step(1) must not run."""
        code, out, err = run(capsys, ["witness", "beam_step", "١"])
        assert (code, out) == (2, "")
        assert err == "flathg: error: beam_step index must be an integer: '١'\n"

    def test_nested_chain_past_the_cap_exits_two_before_building(self, capsys, monkeypatch):
        def unreachable(h):
            raise AssertionError("a semiring was built")

        monkeypatch.setattr(constructions, "build_semiring", unreachable)
        message = (
            "flathg: error: nested_chain index over MAX_NESTED_INDEX - 1 (511): "
            "identity i+1 would expand past the flat checker's cap\n"
        )
        assert run(capsys, ["witness", "nested_chain", "512"]) == (2, "", message)

    @pytest.mark.parametrize(
        "argv",
        (["triangle_in_abcd", "extra"], ["leaf_removal", "family:beam:2"], ["beam_step"]),
    )
    def test_argument_count_follows_the_kind(self, capsys, argv):
        code, _, err = run(capsys, ["witness", *argv])
        assert code == 2
        assert f"{argv[0]} takes" in err


# Texts that int() reads (as 1, 10, 1, 1, 1) or that str.isdigit accepts,
# none of which is an index in ASCII digits.
NOT_INDICES = ("١", "1_0", " 1", "+1", "1١", "²", "")


class TestIndexTokens:
    @pytest.mark.parametrize("text", NOT_INDICES)
    def test_a_family_token_index_is_ascii_digits(self, capsys, text):
        code, out, err = run(capsys, ["semiring", f"family:beam:{text}"])
        assert (code, out) == (2, "")
        assert err == f"flathg: error: family index must be an integer: {text!r}\n"

    @pytest.mark.parametrize("text", NOT_INDICES)
    def test_a_family_command_index_is_ascii_digits(self, capsys, text):
        code, out, err = run(capsys, ["family", "beam", text])
        assert (code, out) == (2, "")
        assert err == f"flathg: error: family index must be an integer: {text!r}\n"

    @pytest.mark.parametrize("flag", ("--budget-evals", "--closure-cap", "--colorings-cap"))
    @pytest.mark.parametrize("text", NOT_INDICES)
    def test_a_cap_is_ascii_digits(self, capsys, flag, text):
        with pytest.raises(SystemExit) as exc:
            main([flag, text, "witness", "beam_step", "1"])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"flathg: error: argument {flag}: not an integer: {text!r}"

    @pytest.mark.parametrize("text, message", (("0", "must be positive"), (str(2**63), f"must be at most {2**63 - 1}")))
    def test_a_cap_is_from_one_to_sys_maxsize(self, capsys, text, message):
        with pytest.raises(SystemExit) as exc:
            main(["--closure-cap", text, "witness", "beam_step", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"flathg: error: argument --closure-cap: {message}"

    def test_a_cap_may_have_leading_zeros(self, capsys):
        """beam_step(1)'s closure has 54 elements."""
        assert run(capsys, ["--closure-cap", "0054", "witness", "beam_step", "1"])[0] == 0
        assert run(capsys, ["--closure-cap", "0053", "witness", "beam_step", "1"]) == (
            2, "", "flathg: error: closure exceeded 53 elements; refusing to continue\n"
        )

    def test_leading_zeros_are_digits(self, capsys):
        assert run(capsys, ["family", "beam", "010"]) == run(capsys, ["family", "beam", "10"])

    def test_an_index_past_sys_maxsize_is_refused_before_building(self, capsys, monkeypatch):
        def unreachable(kind, index):
            raise AssertionError(f"family({kind!r}, {index}) was built")

        monkeypatch.setattr(cli, "family", unreachable)
        for argv in (["family", "beam", "9" * 5000], ["semiring", f"family:beam:{2**63}"]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert err == f"flathg: error: family index must be at most {2**63 - 1}\n"


class TestFamily:
    def test_output_is_parseable(self, capsys):
        code, out, _ = run(capsys, ["family", "nested", "1"])
        assert code == 0
        h = parse_hypergraph(out)
        assert len(h.vertices) == 6 and len(h.edges) == 3

    def test_unknown_kind(self, capsys):
        code, _, err = run(capsys, ["family", "wheel", "3"])
        assert code == 2

    def test_export_writes_the_same_document(self, capsys, tmp_path):
        target = tmp_path / "h.json"
        code, out, _ = run(
            capsys, ["family", "n_cycle", "4", "--export", str(target)]
        )
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(out)
        assert out == format_hypergraph(family("n_cycle", 4))
        assert target.read_bytes() == out.encode()


class TestSuite:
    def test_structured_output_is_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, ["--format", "structured", "suite"])
        code2, out2, _ = run(capsys, ["suite", "--format", "structured"])
        assert code1 == code2 == 0
        assert out1 == out2
        assert hashlib.sha256(out1.encode()).hexdigest() == SUITE_DIGEST

    def test_text_output_ends_with_the_tally(self, capsys):
        code, out, _ = run(capsys, ["suite"])
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
        assert lines[-1] == f"{len(lines) - 1} passed, 0 failed"
