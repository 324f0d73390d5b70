"""Command-line front end.

Subcommands: validate, holonomy, sweep, compare, curvature, center.
Exit codes: 0 on success, 1 on a domain failure (diagnostics, invalid
moves, bad file content), 2 on usage or I/O problems.  A failure prints
one ``error:`` line on stderr, and a warning one ``warning:`` line.

Bare file names that do not exist in the working directory fall back to
the bundled examples shipped with the package, so
``trisweep sweep --complex tetrahedron.json ...`` works out of the box.
A file that is not UTF-8 text is bad file content.

Each subcommand loads only the library modules it calls, when it runs:
``validate`` loads ``complexes`` and ``center`` loads ``groups``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from importlib import import_module
from pathlib import Path

from . import data_path
from .errors import TrisweepError, decode_json

# The names perfbench/tracer.py wraps on this module, and the module that
# defines each (``edge_holonomy`` is ``bundle.holonomy``).  The subcommands
# import on use, from the defining module; these names go when the tracer
# wraps names only where they are defined (ROADMAP item 4).
_TRACED = {
    "load_complex": "complexes", "validate_complex": "complexes", "load_scheme": "paths",
    "parse_element": "groups", "format_element": "groups", "center_obstruction_check": "groups",
    "edge_holonomy": "bundle", "load_connection": "sweep", "run_scheme": "sweep",
    "trace_to_json": "sweep", "compare_schemes": "sweep", "curvature_square": "sweep",
}


def __getattr__(name: str):
    """The function a traced name stands for, from its defining module.

    It is bound here on the first read, so that later reads see what that
    read saw, not what the defining module holds then: the tracer puts back
    what it read here, and while it is installed the module holds its wrapper.
    """
    if name not in _TRACED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__package__}.{_TRACED[name]}"), name.removeprefix("edge_"))
    return value


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.exists() and ("/" in path or "\\" in path or not (p := data_path(path)).is_file()):
        raise FileNotFoundError(f"no such file: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TrisweepError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


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


def _sweep_inputs(args, path):
    """The start ``Section`` over the ``EdgePath`` ``path`` and the ``Connection2`` of a sweeping subcommand.

    The connection is loaded with the --word's letters, so that a free
    backend gains the word's fresh generators.  The section's letters are
    the word's, or one identity per step of ``path`` when there is no word.
    A connection without cells is refused last, so a bad word is named first.
    """
    from .complexes import load_complex
    from .groups import identity, parse_element
    from .sweep import Connection2, Section, load_connection

    complex = load_complex(_read_text(args.complex))
    word_texts = _split_word(args.word) if args.word else []
    connection = load_connection(_read_text(args.connection), complex, word_texts)
    group = connection.group
    letters = [parse_element(t, group) for t in word_texts] or [identity(group)] * len(path.steps)
    start = Section(path, tuple(letters))
    if not isinstance(connection, Connection2):
        raise TrisweepError('this command needs a connection file with a "cells" block')
    return start, connection


# -- subcommands -----------------------------------------------------------

def cmd_validate(args) -> int:
    from .complexes import load_complex, validate_complex

    complex = load_complex(_read_text(args.complex))
    diagnostics = validate_complex(complex, require_pure_dim2=args.require_pure_dim2)
    result = {"diagnostics": [{"rule": d.rule, "simplex": d.simplex, "message": d.message} for d in diagnostics]}
    lines = [d.message for d in diagnostics] or ["ok"]
    return _emit(args, result, lines, 1 if diagnostics else 0)


def cmd_holonomy(args) -> int:
    from .bundle import holonomy
    from .complexes import load_complex
    from .groups import format_element
    from .paths import EdgePath
    from .sweep import Connection2, load_connection

    complex = load_complex(_read_text(args.complex))
    connection = load_connection(_read_text(args.connection), complex)
    base = connection.base if isinstance(connection, Connection2) else connection
    chain = [v.strip() for v in re.split(r"[,\s]+", args.path.strip()) if v.strip()]
    path = EdgePath.from_vertices(*chain)
    text = format_element(holonomy(base, path))
    return _emit(args, {"holonomy": text}, [text])


def cmd_sweep(args) -> int:
    from .paths import load_scheme
    from .sweep import run_scheme, trace_to_json

    scheme = load_scheme(_read_text(args.scheme))
    start, connection = _sweep_inputs(args, scheme.start_path)
    sections = trace_to_json(run_scheme(start, scheme, connection))
    lines = [f"{_fmt_path(s['path'])} -> ({', '.join(s['letters'])})" for s in sections]
    return _emit(args, sections, lines)


def cmd_compare(args) -> int:
    from .groups import format_element
    from .paths import load_scheme
    from .sweep import compare_schemes

    if len(args.scheme) != 2:
        raise TrisweepError("compare needs exactly two --scheme files")
    scheme1, scheme2 = (load_scheme(_read_text(name)) for name in args.scheme)
    start, connection = _sweep_inputs(args, scheme1.start_path)
    comparison = compare_schemes(scheme1, scheme2, start, connection)
    quotient = [format_element(q) for q in comparison.quotient]
    gauge = None if comparison.gauge is None else {v: format_element(g) for v, g in comparison.gauge.values}
    lines = [comparison.verdict, f"quotient: ({', '.join(quotient)})"]
    lines += [f"gauge {v}: {g}" for v, g in (gauge or {}).items()]
    return _emit(args, {"verdict": comparison.verdict, "quotient": quotient, "gauge": gauge}, lines)


def cmd_curvature(args) -> int:
    from .paths import EdgePath
    from .sweep import curvature_square, defect_report_to_json

    a, b, c, d = args.vertices
    start, connection = _sweep_inputs(args, EdgePath(((a, b), (b, d))))
    report = defect_report_to_json(curvature_square(a, b, c, d, start, connection))
    lines = [f"path: {_fmt_path(report['path'])}", f"defects: ({', '.join(report['defects'])})"]
    return _emit(args, report, lines)


def cmd_center(args) -> int:
    from .groups import center_obstruction_check, descriptor_from_json, format_element

    descriptor = descriptor_from_json(decode_json(args.group, TrisweepError, "bad group descriptor"))
    elements = [format_element(z) for z in center_obstruction_check(descriptor)]
    return _emit(args, {"center": elements}, elements)


def _subcommand(subs, name: str, func, help: str, *files: str) -> argparse.ArgumentParser:
    """Declare subcommand ``name``: a required ``--<file>`` option per input file, ``--format`` and ``--seed``.

    Returns the subparser, for the subcommand's own arguments.
    """
    sub = subs.add_parser(name, help=help)
    for option in files:
        sub.add_argument(f"--{option}", required=True)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--seed", type=int, default=0, help="reserved for randomized subcommands")
    sub.set_defaults(func=func)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trisweep", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    p = _subcommand(subs, "validate", cmd_validate, "check a complex file", "complex")
    p.add_argument("--require-pure-dim2", action="store_true")
    p = _subcommand(subs, "holonomy", cmd_holonomy, "transport along a path", "complex", "connection")
    p.add_argument("--path", required=True, help="vertex chain, e.g. a,b,d,a")
    p = _subcommand(subs, "sweep", cmd_sweep, "run a sweep scheme on an initial word", "complex", "connection", "scheme")
    p.add_argument("--word", help="comma-separated letters over the start path")
    p = _subcommand(subs, "compare", cmd_compare, "run two schemes and compare the final words", "complex", "connection")
    p.add_argument("--scheme", action="append", required=True, help="give twice: first and second scheme")
    p.add_argument("--word")
    p = _subcommand(subs, "curvature", cmd_curvature, "four-move square around two faces", "complex", "connection")
    p.add_argument("vertices", nargs=4, metavar="VERTEX", help="vertices a b c d of the faces {a,b,c} and {b,c,d}")
    p.add_argument("--word", help="letters over (ab,bd); defaults to identities")
    p = _subcommand(subs, "center", cmd_center, "admissible cell values for a trivial connective structure")
    p.add_argument("group", help='group descriptor JSON, e.g. {"symmetric":3}')
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # restores the caller's warning display on the way out
        # each warning is one plain line, with no source location
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
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
