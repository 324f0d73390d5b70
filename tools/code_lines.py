"""Count the code lines of each Python module under a directory.

A code line is a physical line that holds a token other than a comment or
a docstring.  A docstring here is a logical line made only of string
literals that opens a module, class or function body.  Blank lines,
comment lines and docstring lines do not count; a line shared by code and
a comment does.

Usage: python tools/code_lines.py [DIR]   (default: src/trisweep)

Prints one ``<count> <module>`` line per module, sorted by path, and a
last ``<total> total`` line.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# tokens that carry no code of their own
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.COMMENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    lines: set[int] = set()
    logical: list[tokenize.TokenInfo] = []
    opens_body = True  # the next logical line opens a body: the module's, or a def's or class's after its INDENT
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.INDENT:
                opens_body = True
            if tok.type not in _LAYOUT and tok.type != tokenize.ENCODING:
                logical.append(tok)
            if tok.type != tokenize.NEWLINE:
                continue
            docstring = opens_body and all(t.type == tokenize.STRING for t in logical)
            if not docstring:
                for t in logical:
                    lines.update(range(t.start[0], t.end[0] + 1))
            logical = []
            opens_body = False
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/trisweep")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
