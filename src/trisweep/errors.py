"""Exception hierarchy shared by all trisweep modules."""

from __future__ import annotations

import sys


class TrisweepError(Exception):
    """Base class for all domain errors raised by this package."""


class ComplexError(TrisweepError):
    """Bad complex file or simplicial data (parse, closure, duplicates)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class PathError(TrisweepError):
    """Edge-path violation: empty path, broken composability, endpoint mismatch."""


class SchemeError(TrisweepError):
    """Invalid homotopy move or sweep scheme.

    ``step_index`` locates the offending move when the error surfaced
    while running a scheme.
    """

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


class GroupError(TrisweepError):
    """Group backend problem: mismatch, bad element text, unsupported query."""


class BundleError(TrisweepError):
    """Connection data problem: missing edge values, non-edge steps, bad gauge."""


class SweepError(TrisweepError):
    """Section-level move failure: path mismatch or missing cell value.

    ``step_index`` is set when raised from inside ``run_scheme``.
    """

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


def quote(value: object) -> str:
    """``repr(value)`` cut to 60 characters, so that an error line stays readable."""
    shown = repr(value)
    return shown if len(shown) <= 60 else shown[:60] + "…"


def input_limit_text(exc: Exception) -> str:
    """Say which interpreter limit refused an input, as a CLI user can act on it.

    ``exc`` is the RecursionError of a JSON text nested too deeply, or the
    ValueError of an integer past the int-to-str limit, whose own text
    advises a call to ``sys.set_int_max_str_digits()`` instead.
    """
    if isinstance(exc, RecursionError):
        return "arrays or objects nested too deeply"
    return f"an integer longer than {sys.get_int_max_str_digits()} digits"
