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
from .errors import TrisweepError, decode_json
from .groups import (
    center_obstruction_check,
    descriptor_from_json,
    format_element,
    identity,
    parse_element,
)
from .paths import EdgePath, load_scheme
from .sweep import (
    Connection2,
    Section,
    compare_schemes,
    curvature_square,
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


def _fmt_path(steps) -> str:
    sep = "" if all(len(x) == 1 and len(y) == 1 for x, y in steps) else ">"
    return "(" + ",".join(x + sep + y for x, y in steps) + ")"


def _emit(args, result, lines, code: int = 0) -> int:
    """Print a subcommand's one result, as a JSON line or as its text lines, and return ``code``.

    ``result`` is what ``--format json`` prints; ``lines`` are the same
    result rendered as text.
    """
    if args.format == "json":
        print(json.dumps(result, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def _load_connection_for_word(args, complex):
    """Load the connection, extending a free backend with the fresh generators of a --word."""
    word_texts = _split_word(args.word) if args.word else []
    return load_connection(_read_text(args.connection), complex, word_texts), word_texts


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
    result = {"diagnostics": [{"rule": d.rule, "simplex": d.simplex, "message": d.message} for d in diagnostics]}
    lines = [d.message for d in diagnostics] or ["ok"]
    return _emit(args, result, lines, 1 if diagnostics else 0)


def cmd_holonomy(args) -> int:
    complex = load_complex(_read_text(args.complex))
    connection = load_connection(_read_text(args.connection), complex)
    base = connection.base if isinstance(connection, Connection2) else connection
    chain = [v.strip() for v in re.split(r"[,\s]+", args.path.strip()) if v.strip()]
    path = EdgePath.from_vertices(*chain)
    text = format_element(edge_holonomy(base, path))
    return _emit(args, {"holonomy": text}, [text])


def cmd_sweep(args) -> int:
    complex = load_complex(_read_text(args.complex))
    connection, word_texts = _load_connection_for_word(args, complex)
    scheme = load_scheme(_read_text(args.scheme))
    start = _initial_section(connection, scheme.start_path, word_texts)
    sections = trace_to_json(run_scheme(start, scheme, _as_connection2(connection)))
    lines = [f"{_fmt_path(s['path'])} -> ({', '.join(s['letters'])})" for s in sections]
    return _emit(args, sections, lines)


def cmd_compare(args) -> int:
    if len(args.scheme) != 2:
        raise TrisweepError("compare needs exactly two --scheme files")
    complex = load_complex(_read_text(args.complex))
    connection, word_texts = _load_connection_for_word(args, complex)
    scheme1 = load_scheme(_read_text(args.scheme[0]))
    scheme2 = load_scheme(_read_text(args.scheme[1]))
    start = _initial_section(connection, scheme1.start_path, word_texts)
    comparison = compare_schemes(scheme1, scheme2, start, _as_connection2(connection))
    quotient = [format_element(q) for q in comparison.quotient]
    gauge = None if comparison.gauge is None else {v: format_element(g) for v, g in comparison.gauge.values}
    lines = [comparison.verdict, f"quotient: ({', '.join(quotient)})"]
    lines += [f"gauge {v}: {g}" for v, g in (gauge or {}).items()]
    return _emit(args, {"verdict": comparison.verdict, "quotient": quotient, "gauge": gauge}, lines)


def cmd_curvature(args) -> int:
    complex = load_complex(_read_text(args.complex))
    connection, word_texts = _load_connection_for_word(args, complex)
    a, b, c, d = args.vertices
    path = EdgePath(((a, b), (b, d)))
    start = _initial_section(connection, path, word_texts)
    report = defect_report_to_json(curvature_square(a, b, c, d, start, _as_connection2(connection)))
    lines = [f"path: {_fmt_path(report['path'])}", f"defects: ({', '.join(report['defects'])})"]
    return _emit(args, report, lines)


def cmd_center(args) -> int:
    descriptor = descriptor_from_json(decode_json(args.group, TrisweepError, "bad group descriptor"))
    elements = [format_element(z) for z in center_obstruction_check(descriptor)]
    return _emit(args, {"center": elements}, elements)


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
