"""Print the code lines of each module under ``src/``, and their total.

A code line is a line that holds part of a token other than a comment or a
docstring; blank lines, comment lines and docstrings do not count, so
reformatting a docstring or a comment does not change the count.  A
docstring here is any statement that is a string literal alone.

    python3 tests/source_loc.py

Only the standard library is used (``tokenize``).  The file name has no
``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    with path.open("rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
    tokens = [t for t in tokens if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for i, token in enumerate(tokens):
        if token.type in _LAYOUT:
            continue
        alone = (
            token.type == tokenize.STRING
            and (i == 0 or tokens[i - 1].type in _STATEMENT_START)
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if not alone:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> int:
    modules = sorted((ROOT / "src").rglob("*.py"))
    counts = [(path.relative_to(ROOT).as_posix(), code_lines(path)) for path in modules]
    width = max(len(name) for name, _ in counts)
    for name, n in counts:
        print(f"{name.ljust(width)}  {n:5d}")
    print(f"{'total'.ljust(width)}  {sum(n for _, n in counts):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
