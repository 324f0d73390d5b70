"""Command-line front end.

Subcommands: validate, holonomy, sweep, compare, curvature, center.
Exit codes: 0 on success, 1 on a domain failure (diagnostics, invalid
moves, bad file content), 2 on usage or I/O problems.

Bare file names that do not exist in the working directory fall back to
the bundled examples shipped with the package, so
``trisweep sweep --complex tetrahedron.json ...`` works out of the box.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .complexes import load_complex, validate_complex
from .errors import TrisweepError, input_limit_text
from .groups import (
    center_obstruction_check,
    descriptor_from_json,
    format_element,
    free_group,
    identity,
    parse_element,
)
from .paths import EdgePath, load_scheme
from .sweep import (
    Connection2,
    Section,
    compare_schemes,
    curvature_square,
    decode_connection,
    defect_report_to_json,
    load_connection,
    run_scheme,
    trace_to_json,
)
from .bundle import holonomy as edge_holonomy


def _read_text(path: str) -> str:
    p = Path(path)
    if p.exists():
        return p.read_text(encoding="utf-8")
    if "/" not in path and "\\" not in path:
        # the bundled examples, read without importlib.resources, which data_path loads
        bundled = Path(__file__).parent / "examples" / path
        if bundled.is_file():
            return bundled.read_text(encoding="utf-8")
    raise FileNotFoundError(f"no such file: {path}")


def _fmt_path(path: EdgePath) -> str:
    if all(len(x) == 1 and len(y) == 1 for x, y in path.steps):
        return "(" + ",".join(x + y for x, y in path.steps) + ")"
    return "(" + ",".join(f"{x}>{y}" for x, y in path.steps) + ")"


def _fmt_word(letters) -> str:
    return "(" + ", ".join(format_element(l) for l in letters) + ")"


def _emit_json(obj) -> int:
    print(json.dumps(obj, sort_keys=True))
    return 0


_WORD_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _load_connection_for_word(args, complex):
    """Load the connection, extending a free backend with fresh word generators."""
    obj = decode_connection(_read_text(args.connection))
    group = None
    word_texts = _split_word(args.word) if getattr(args, "word", None) else []
    if word_texts:
        try:
            declared = descriptor_from_json(obj.get("group"))
        except AttributeError:  # not an object: load_connection below reports it
            declared = None
        if declared is not None and declared.kind == "free":
            fresh = sorted(
                {
                    tok
                    for letter in word_texts
                    for tok in _WORD_TOKEN_RE.findall(letter)
                    if tok != "e" and tok not in declared.generators
                }
            )
            if fresh:
                group = free_group(declared.generators + tuple(fresh))
    connection = load_connection(obj, complex, group=group)
    return connection, word_texts


def _split_word(word: str) -> list[str]:
    """Letters of a --word, split at commas outside product arrays and cycles."""
    letters = []
    depth = 0
    start = 0
    for i, ch in enumerate(word):
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        elif ch == "," and depth == 0:
            letters.append(word[start:i].strip())
            start = i + 1
    letters.append(word[start:].strip())
    return letters


def _initial_section(connection, path: EdgePath, word_texts) -> Section:
    group = connection.group
    if word_texts:
        letters = tuple(parse_element(t, group) for t in word_texts)
    else:
        letters = tuple(identity(group) for _ in path.steps)
    return Section(path, letters)


def _as_connection2(connection) -> Connection2:
    if isinstance(connection, Connection2):
        return connection
    raise TrisweepError('this command needs a connection file with a "cells" block')


# -- subcommands -----------------------------------------------------------

def cmd_validate(args) -> int:
    complex = load_complex(_read_text(args.complex))
    diagnostics = validate_complex(complex, require_pure_dim2=args.require_pure_dim2)
    if args.format == "json":
        _emit_json({"diagnostics": [{"rule": d.rule, "simplex": d.simplex, "message": d.message} for d in diagnostics]})
    else:
        if not diagnostics:
            print("ok")
        for d in diagnostics:
            print(d.message)
    return 1 if diagnostics else 0


def cmd_holonomy(args) -> int:
    complex = load_complex(_read_text(args.complex))
    connection = load_connection(_read_text(args.connection), complex)
    base = connection.base if isinstance(connection, Connection2) else connection
    chain = [v.strip() for v in re.split(r"[,\s]+", args.path.strip()) if v.strip()]
    path = EdgePath.from_vertices(*chain)
    result = edge_holonomy(base, path)
    if args.format == "json":
        return _emit_json({"holonomy": format_element(result)})
    print(format_element(result))
    return 0


def cmd_sweep(args) -> int:
    complex = load_complex(_read_text(args.complex))
    connection, word_texts = _load_connection_for_word(args, complex)
    scheme = load_scheme(_read_text(args.scheme))
    start = _initial_section(connection, scheme.start_path, word_texts)
    trace = run_scheme(start, scheme, _as_connection2(connection))
    if args.format == "json":
        return _emit_json(trace_to_json(trace))
    for section in trace.sections:
        print(f"{_fmt_path(section.path)} -> {_fmt_word(section.letters)}")
    return 0


def cmd_compare(args) -> int:
    if len(args.scheme) != 2:
        raise TrisweepError("compare needs exactly two --scheme files")
    complex = load_complex(_read_text(args.complex))
    connection, word_texts = _load_connection_for_word(args, complex)
    scheme1 = load_scheme(_read_text(args.scheme[0]))
    scheme2 = load_scheme(_read_text(args.scheme[1]))
    start = _initial_section(connection, scheme1.start_path, word_texts)
    result = compare_schemes(scheme1, scheme2, start, _as_connection2(connection))
    if args.format == "json":
        return _emit_json(
            {
                "verdict": result.verdict,
                "quotient": [format_element(q) for q in result.quotient],
                "gauge": None if result.gauge is None else {v: format_element(g) for v, g in result.gauge.values},
            }
        )
    print(result.verdict)
    print(f"quotient: {_fmt_word(result.quotient)}")
    if result.gauge is not None:
        for v, g in result.gauge.values:
            print(f"gauge {v}: {format_element(g)}")
    return 0


def cmd_curvature(args) -> int:
    complex = load_complex(_read_text(args.complex))
    connection, word_texts = _load_connection_for_word(args, complex)
    a, b, c, d = args.vertices
    path = EdgePath(((a, b), (b, d)))
    start = _initial_section(connection, path, word_texts)
    report = curvature_square(a, b, c, d, start, _as_connection2(connection))
    if args.format == "json":
        return _emit_json(defect_report_to_json(report))
    print(f"path: {_fmt_path(report.path)}")
    print(f"defects: {_fmt_word(report.defects)}")
    return 0


def cmd_center(args) -> int:
    try:
        descriptor = descriptor_from_json(json.loads(args.group))
    except json.JSONDecodeError as exc:
        raise TrisweepError(f"bad group descriptor: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer past the int-to-str limit, or deep nesting
        raise TrisweepError(f"bad group descriptor: {input_limit_text(exc)}") from exc
    elements = center_obstruction_check(descriptor)
    if args.format == "json":
        return _emit_json({"center": [format_element(z) for z in elements]})
    for z in elements:
        print(format_element(z))
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--seed", type=int, default=0, help="reserved for randomized subcommands")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trisweep", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a complex file")
    p.add_argument("--complex", required=True)
    p.add_argument("--require-pure-dim2", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("holonomy", help="transport along a path")
    p.add_argument("--complex", required=True)
    p.add_argument("--connection", required=True)
    p.add_argument("--path", required=True, help="vertex chain, e.g. a,b,d,a")
    _add_common(p)
    p.set_defaults(func=cmd_holonomy)

    p = subs.add_parser("sweep", help="run a sweep scheme on an initial word")
    p.add_argument("--complex", required=True)
    p.add_argument("--connection", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--word", help="comma-separated letters over the start path")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("compare", help="run two schemes and compare the final words")
    p.add_argument("--complex", required=True)
    p.add_argument("--connection", required=True)
    p.add_argument("--scheme", action="append", required=True, help="give twice: first and second scheme")
    p.add_argument("--word")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("curvature", help="four-move square around two faces")
    p.add_argument("--complex", required=True)
    p.add_argument("--connection", required=True)
    p.add_argument("vertices", nargs=4, metavar=("a", "b", "c", "d"))
    p.add_argument("--word", help="letters over (ab,bd); defaults to identities")
    _add_common(p)
    p.set_defaults(func=cmd_curvature)

    p = subs.add_parser("center", help="admissible cell values for a trivial connective structure")
    p.add_argument("group", help='group descriptor JSON, e.g. {"symmetric":3}')
    _add_common(p)
    p.set_defaults(func=cmd_center)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrisweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
