"""Batch front door: validate inputs, run checks and witnesses, emit reports.

Exit codes: 0 when every claim checked out, 1 when some claim failed
(an identity fails, a coloring is stuck, a witness does not verify),
2 on usage or input problems (unknown subcommand, unreadable file,
exceeded budget). The library refuses an input by raising ValueError;
`main` is the one place that turns it, a CliInputError or an OSError into
`flathg: error: ...` and exit 2, and lets any other exception propagate.
The handlers collect their records; `main` writes `--export` first and
then all of stdout, so an unwritable export exits 2 before anything is
printed. A closed output pipe (`flathg ... | head`) is no input error:
`main` then prints no message and exits 141, the status of a process
that SIGPIPE ended, with the export already written.
Every number on the command line (index, cap, color) is ASCII digits, read
by `terms.ascii_index`. Output is plain text by default; `--format
structured` switches to line-delimited JSON records with stable field order.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .coloring import enumerate_strong_colorings, extends, is_2_robust
from .constructions import (
    CLOSURE_CAP_DEFAULT,
    COLORINGS_CAP_DEFAULT,
    WITNESS_KINDS,
    format_witness_report,
    verify_witness,
)
from .hg_semiring import build_semiring
from .hypergraph import (
    Hypergraph,
    HypergraphParseError,
    family,
    format_hypergraph,
    hypergraph_from_document,
    parse_hypergraph,
    validate,
)
from .semiring import (
    FiniteSemiring,
    SemiringParseError,
    format_semiring,
    is_flat,
    is_flat_semiring,
    semiring_from_document,
    subdirect_irreducibility_certificate,
)
from .terms import (
    BUDGET_EVALS_DEFAULT,
    IdentitySyntaxError,
    ascii_index,
    builtin_identity,
    check_identity_bruteforce,
    check_identity_flat,
    parse_identity,
    parse_identity_file,
)
from .words import build_sc, builtin_s7


class CliInputError(Exception):
    """An input the command line itself refuses, with exit code 2."""


class Reporter:
    def __init__(self, fmt: str):
        self.structured = fmt == "structured"
        self.lines: list[str] = []
        # What --export writes when it is not the printed output.
        self.artifact: str | None = None

    def record(self, fields: dict, text: str) -> None:
        """Collect one record for `main` to print: the fields as JSON, or the
        text, which may end in a newline of its own."""
        self.lines.append(json.dumps(fields) if self.structured else text.removesuffix("\n"))


def _positive(text: str) -> int:
    """A cap in ASCII digits (ascii_index), from 1 to sys.maxsize."""
    value = ascii_index(text, sys.maxsize)
    if value is None:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    if value > sys.maxsize:
        raise argparse.ArgumentTypeError(f"must be at most {sys.maxsize}")
    return value


def _add_common_flags(parser: argparse.ArgumentParser, with_defaults: bool) -> None:
    def default(value):
        return value if with_defaults else argparse.SUPPRESS

    parser.add_argument("--budget-evals", type=_positive, default=default(BUDGET_EVALS_DEFAULT),
                        help="cap on brute-force identity evaluations")
    parser.add_argument("--closure-cap", type=_positive, default=default(CLOSURE_CAP_DEFAULT),
                        help="cap on generated subsemiring size")
    parser.add_argument("--colorings-cap", type=_positive, default=default(COLORINGS_CAP_DEFAULT),
                        help="cap on enumerated strong colorings")
    parser.add_argument("--format", choices=("text", "structured"), default=default("text"),
                        help="text lines or line-delimited JSON records")
    parser.add_argument("--export", metavar="PATH", default=default(None),
                        help="also write the command's primary artifact to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flathg",
        description="Flat semirings from 3-hypergraphs: identities, colorings, witnesses.",
    )
    _add_common_flags(parser, with_defaults=True)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def subparser(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p, with_defaults=False)
        return p

    p = subparser("validate", "check a hypergraph against the admissibility rules")
    p.add_argument("source", help="hypergraph file, or family:<kind>:<i>")

    p = subparser("semiring", "build the semiring of a hypergraph")
    p.add_argument("source", help="hypergraph file, or family:<kind>:<i>")

    p = subparser("check", "check an identity in a semiring")
    p.add_argument("subject", help="semiring/hypergraph file, builtin:<name>, or family:<kind>:<i>")
    p.add_argument("identity", help="registry key, literal 'lhs = rhs', or identity file")

    p = subparser("color", "strong 3-coloring questions")
    p.add_argument("source", help="hypergraph file, or family:<kind>:<i>")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--enumerate", action="store_true", help="list all strong colorings")
    mode.add_argument("--robust", action="store_true", help="decide 2-robustness")
    mode.add_argument("--extend", metavar="PARTIAL",
                      help="partial assignment like u1=0,u4=1")

    p = subparser("witness", "run a witness pipeline")
    p.add_argument("kind", help="one of: " + ", ".join(WITNESS_KINDS))
    p.add_argument("params", nargs="*",
                   help="hypergraph source, index, or leaf case, depending on kind")

    p = subparser("family", "print a family hypergraph")
    p.add_argument("kind")
    p.add_argument("index")

    subparser("suite", "run the full acceptance battery")
    return parser


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read file: {path} ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise CliInputError(f"cannot read file: {path} (not UTF-8 at byte {exc.start})") from exc


def _index(text: str, what: str) -> int:
    """An index or a color in ASCII digits (ascii_index), at most sys.maxsize."""
    index = ascii_index(text, sys.maxsize)
    if index is None:
        raise CliInputError(f"{what} must be an integer: {text!r}")
    if index > sys.maxsize:
        raise CliInputError(f"{what} must be at most {sys.maxsize}")
    return index


def _family_from_token(token: str) -> Hypergraph:
    parts = token.split(":")
    if len(parts) != 3 or parts[0] != "family":
        raise CliInputError(f"unknown builtin: {token}")
    return family(parts[1], _index(parts[2], "family index"))


def _load_hypergraph(source: str) -> Hypergraph:
    token = source[len("builtin:"):] if source.startswith("builtin:") else source
    if token.startswith("family:"):
        return _family_from_token(token)
    if source.startswith("builtin:"):
        raise CliInputError(f"unknown builtin: {source} (this command needs a hypergraph)")
    text = _read_file(source)
    try:
        return parse_hypergraph(text)
    except HypergraphParseError as exc:
        raise CliInputError(f"bad hypergraph file {source}: {exc}")


_BUILTIN_SEMIRINGS = {
    "sc_abc": lambda: build_sc(["abc"]),
    "sc_abcd": lambda: build_sc(["abcd"]),
    "s7": builtin_s7,
}


def _load_subject(source: str) -> tuple[str, FiniteSemiring]:
    """Resolve the `check` subject to a semiring, building one if needed. No
    law is checked here; _cmd_check reads is_flat_semiring to pick a checker."""
    token = source[len("builtin:"):] if source.startswith("builtin:") else source
    if token in _BUILTIN_SEMIRINGS:
        return token, _BUILTIN_SEMIRINGS[token]()
    if token.startswith("family:"):
        return token, build_semiring(_family_from_token(token)).exported
    if source.startswith("builtin:"):
        raise CliInputError(f"unknown builtin: {source}")
    text = _read_file(source)
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliInputError(f"bad input file {source}: {exc}")
    if isinstance(doc, dict) and "vertices" in doc:
        try:
            h = hypergraph_from_document(doc)
        except HypergraphParseError as exc:
            raise CliInputError(f"bad hypergraph file {source}: {exc}")
        return source, build_semiring(h).exported
    try:
        s = semiring_from_document(doc)
    except SemiringParseError as exc:
        raise CliInputError(f"bad semiring file {source}: {exc}")
    return source, s


def _load_identities(token: str) -> list[tuple[str, object]]:
    try:
        return [(token, builtin_identity(token))]
    except KeyError:
        pass
    if "=" in token:
        try:
            return [(token, parse_identity(token))]
        except IdentitySyntaxError as exc:
            raise CliInputError(f"bad identity {token!r}: {exc}")
    text = _read_file(token)
    try:
        idents = parse_identity_file(text)
    except IdentitySyntaxError as exc:
        raise CliInputError(f"bad identity file {token}: {exc}")
    if not idents:
        raise CliInputError(f"no identities found in {token}")
    return [(f"{token}:{i + 1}", ident) for i, ident in enumerate(idents)]


def _fmt_offender(item) -> str:
    if isinstance(item, str):
        return item
    parts = [_fmt_offender(p) for p in item]
    if all(isinstance(p, str) for p in item):
        return "{" + ",".join(parts) + "}"
    return " and ".join(parts)


def _cmd_validate(args, out: Reporter) -> int:
    h = _load_hypergraph(args.source)
    report = validate(h)
    fields = {
        "command": "validate",
        "source": args.source,
        "valid": report.valid,
        "violations": [
            {"rule": rule, "offenders": list(offenders)}
            for rule, offenders in report.violations
        ],
    }
    if report.valid:
        out.record(fields, f"valid: {len(h.vertices)} vertices, {len(h.edges)} edges")
        return 0
    lines = ["invalid:"]
    for rule, offenders in report.violations:
        rendered = ", ".join(_fmt_offender(o) for o in offenders)
        lines.append(f"  {rule}: {rendered}" if rendered else f"  {rule}")
    out.record(fields, "\n".join(lines))
    return 1


def _cmd_semiring(args, out: Reporter) -> int:
    h = _load_hypergraph(args.source)
    s = build_semiring(h)
    exported = s.exported
    cert = subdirect_irreducibility_certificate(exported)
    # The carrier is zero, one generator per vertex, the pair classes and top.
    generators = len(h.vertices)
    pairs = exported.size - generators - 2
    fields = {
        "command": "semiring",
        "source": args.source,
        "size": exported.size,
        "generators": generators,
        "pair_classes": pairs,
        "flat": is_flat(exported),
        "certificate_granted": cert.granted,
        "annihilators": list(cert.annihilators),
        "degenerate": s.degenerate_no_top_triple,
    }
    text = (
        f"{exported.size} elements: {generators} generators, {pairs} pair classes, "
        f"zero and top\ncertificate: {'granted' if cert.granted else 'not granted'}"
        f" (annihilators: {', '.join(cert.annihilators) or 'none'})"
    )
    if s.degenerate_no_top_triple:
        text += "\nnote: no 3-edge, no product of three generators reaches the top"
    out.record(fields, text)
    # The exchange document holds two dense n² tables: build it only to write it.
    if args.export:
        out.artifact = format_semiring(exported)
    return 0


def _cmd_check(args, out: Reporter) -> int:
    name, s = _load_subject(args.subject)
    idents = _load_identities(args.identity)
    method = "flat" if is_flat_semiring(s) else "brute-force"
    worst = 0
    for label, ident in idents:
        if method == "flat":
            result = check_identity_flat(s, ident)
        else:
            result = check_identity_bruteforce(s, ident, budget=args.budget_evals)
        fields = {
            "command": "check",
            "subject": name,
            "identity": label,
            "verdict": result.verdict,
            "method": method,
            "explored": result.explored,
            "counterexample": result.counterexample,
        }
        if result.holds:
            out.record(fields, "holds")
        else:
            cex = " ".join(
                f"{k}={result.counterexample[k]}" for k in sorted(result.counterexample)
            )
            out.record(fields, f"fails: {cex}")
            worst = 1
    return worst


def _parse_partial(text: str) -> dict[str, int]:
    partial: dict[str, int] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise CliInputError(f"bad partial assignment entry: {chunk!r}")
        vertex, _, color = (part.strip() for part in chunk.partition("="))
        if vertex in partial:
            raise CliInputError(f"vertex {vertex!r} named twice in partial assignment")
        partial[vertex] = _index(color, f"color of {vertex}")
    if not partial:
        raise CliInputError("empty partial assignment")
    return partial


def _cmd_color(args, out: Reporter) -> int:
    h = _load_hypergraph(args.source)
    if args.robust:
        report = is_2_robust(h)
        fields = {
            "command": "color",
            "source": args.source,
            "mode": "robust",
            "robust": report.robust,
        }
        if report.robust:
            out.record(fields, "2-robust")
            return 0
        u, v = report.failure.pair
        cu, cv = report.failure.assignment
        fields["pair"] = [u, v]
        fields["assignment"] = [cu, cv]
        out.record(fields, f"not 2-robust: pair {u},{v} with colors {cu},{cv} does not extend")
        return 1
    if args.extend is not None:
        partial = _parse_partial(args.extend)
        okay = extends(h, partial)
        fields = {
            "command": "color",
            "source": args.source,
            "mode": "extend",
            "partial": partial,
            "extends": okay,
        }
        out.record(fields, "extends" if okay else "does not extend")
        return 0 if okay else 1
    colorings = enumerate_strong_colorings(h, cap=args.colorings_cap)
    if args.enumerate:
        for phi in colorings:
            fields = {
                "command": "color",
                "source": args.source,
                "mode": "enumerate",
                "coloring": phi,
            }
            out.record(fields, " ".join(f"{v}={phi[v]}" for v in h.vertices))
        summary = {
            "command": "color",
            "source": args.source,
            "mode": "enumerate",
            "count": len(colorings),
        }
        out.record(summary, f"{len(colorings)} strong colorings")
    else:
        fields = {
            "command": "color",
            "source": args.source,
            "mode": "count",
            "count": len(colorings),
            "colorable": bool(colorings),
        }
        verdict = "strongly 3-colorable" if colorings else "not strongly 3-colorable"
        out.record(fields, f"{verdict}: {len(colorings)} colorings")
    return 0 if colorings else 1


def _cmd_witness(args, out: Reporter) -> int:
    kind = args.kind
    if kind not in WITNESS_KINDS:
        raise CliInputError(f"unknown witness kind: {kind}")
    names = WITNESS_KINDS[kind]
    if len(args.params) != len(names):
        wanted = " ".join(names) if names else "no arguments"
        raise CliInputError(f"{kind} takes {len(names)} argument(s): {wanted}")
    kwargs = {"colorings_cap": args.colorings_cap, "closure_cap": args.closure_cap}
    for name, param in zip(names, args.params):
        if name == "index":
            kwargs[name] = _index(param, f"{kind} index")
        elif name == "hypergraph":
            kwargs[name] = _load_hypergraph(param)
        else:
            kwargs[name] = param
    report = verify_witness(kind, **kwargs)
    fields = {
        "command": "witness",
        "kind": report.kind,
        "claim": report.claim,
        "ok": report.ok,
        "power_arity": report.power_arity,
        "closure_size": report.closure_size,
        "ideal_size": report.ideal_size,
        "quotient_size": report.quotient_size,
        "generators": list(report.generators),
        "stages": [{"name": st.name, "ok": st.ok, "detail": st.detail} for st in report.stages],
        "failure_stage": report.failure_stage,
        "isomorphism": None if report.isomorphism is None else dict(report.isomorphism),
        "notes": list(report.notes),
    }
    out.artifact = format_witness_report(report)
    out.record(fields, out.artifact)
    return 0 if report.ok else 1


def _cmd_family(args, out: Reporter) -> int:
    index = _index(args.index, "family index")
    h = family(args.kind, index)
    fields = {
        "command": "family",
        "kind": args.kind,
        "index": index,
        "vertices": list(h.vertices),
        "edges": [list(e) for e in h.edge_list()],
    }
    out.artifact = format_hypergraph(h)
    out.record(fields, out.artifact)
    return 0


def _cmd_suite(args, out: Reporter) -> int:
    from .suite import run_suite

    records = run_suite()
    failures = 0
    for r in records:
        fields = {"section": r.section, "label": r.label, "ok": r.ok, "detail": r.detail}
        mark = "PASS" if r.ok else "FAIL"
        out.record(fields, f"{mark} [{r.section}] {r.label}: {r.detail}")
        if not r.ok:
            failures += 1
    summary = {
        "section": "summary",
        "label": "acceptance battery",
        "ok": failures == 0,
        "detail": f"passed={len(records) - failures} failed={failures}",
    }
    out.record(
        summary,
        f"{len(records) - failures} passed, {failures} failed",
    )
    return 0 if failures == 0 else 1


_HANDLERS = {
    "validate": _cmd_validate,
    "semiring": _cmd_semiring,
    "check": _cmd_check,
    "color": _cmd_color,
    "witness": _cmd_witness,
    "family": _cmd_family,
    "suite": _cmd_suite,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("flathg: error: a subcommand is required", file=sys.stderr)
        return 2
    out = Reporter(args.format)
    try:
        code = _HANDLERS[args.command](args, out)
        # The export comes first, so a reader that stops early cannot cut it.
        if args.export:
            with open(args.export, "w", encoding="utf-8") as fh:
                fh.write("\n".join(out.lines) + "\n" if out.artifact is None else out.artifact)
        # print writes each line and each newline apart, the final newline
        # last. Unbuffered stdout (python -u) drops what a partial write to a
        # pipe leaves when the reader goes, so that small last write is the
        # one that meets the closed pipe.
        print(*out.lines, sep="\n")
        # Block-buffered stdout (a pipe or a file) may hold all of a short
        # output until now: a closed pipe must fail here, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone: no message, and the status of a
        # process that SIGPIPE ended (128 + 13). What stdout still buffers
        # goes to os.devnull, so the interpreter's final flush cannot fail.
        # A stdout with no file descriptor (main called in process) is kept.
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except (CliInputError, OSError, ValueError) as exc:
        print(f"flathg: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
