"""Exception hierarchy shared by all trisweep modules, and the one JSON decode rule.

Every domain error has ``line`` and ``column``, set when a JSON text failed
to decode, and ``step_index``, set when a step of a scheme could not be read
or applied; each is ``None`` where it does not apply.
"""

from __future__ import annotations

import json
import sys


class TrisweepError(Exception):
    """Base class for all domain errors raised by this package."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None, step_index: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.step_index = step_index


class ComplexError(TrisweepError):
    """Bad complex file or simplicial data (parse, closure, duplicates)."""


class PathError(TrisweepError):
    """Edge-path violation: empty path, broken composability, endpoint mismatch."""


class SchemeError(TrisweepError):
    """Invalid homotopy move or sweep scheme; ``step_index`` is set by ``load_scheme`` and ``validate_scheme``."""


class GroupError(TrisweepError):
    """Group backend problem: mismatch, bad element text, unsupported query."""


class BundleError(TrisweepError):
    """Connection data problem: missing edge values, non-edge steps, bad gauge."""


class SweepError(TrisweepError):
    """Section-level move failure or bad cell data.

    A path mismatch, a missing cell value, or a cell key that is not a
    triple; ``step_index`` is set by ``run_scheme``.
    """


def quote(value: object) -> str:
    """``repr(value)`` cut to 60 characters, so that an error line stays readable."""
    shown = repr(value)
    return shown if len(shown) <= 60 else shown[:60] + "…"


def as_dict(value, error: type[TrisweepError], what: str) -> dict:
    """``dict(value)``, or ``error`` saying that ``what``, quoted, is not a map or (key, value) pairs."""
    try:
        return dict(value)
    except (TypeError, ValueError):  # not iterable, or an item that is not a pair
        raise error(f"{what} {quote(value)} are not a map or (key, value) pairs") from None


def input_limit_text(exc: Exception) -> str:
    """Say which interpreter limit refused an input, as a CLI user can act on it.

    ``exc`` is the RecursionError of a JSON text nested too deeply, or the
    ValueError of an integer past the int-to-str limit, whose own text
    advises a call to ``sys.set_int_max_str_digits()`` instead.
    """
    if isinstance(exc, RecursionError):
        return "arrays or objects nested too deeply"
    return f"an integer longer than {sys.get_int_max_str_digits()} digits"


def decode_json(text: str, error: type[TrisweepError], what: str):
    """The JSON value of ``text``, or ``error`` saying ``what`` failed and why.

    A syntax error gives ``"{what} at line L, column C: ..."`` with ``line``
    and ``column`` set; an input past an interpreter limit gives
    ``"{what}: ..."`` through ``input_limit_text``.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} at line {exc.lineno}, column {exc.colno}: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # an integer past the int-to-str limit, or deep nesting
        raise error(f"{what}: {input_limit_text(exc)}") from exc
