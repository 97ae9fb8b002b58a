#!/usr/bin/env python3
"""Count the code lines of each src/torustc module, and their total.

A code line holds at least one token that is not a comment, a docstring or
layout (newlines and indentation).  A docstring here is any statement that
is a string and nothing else.  Only the standard library's tokenize is
used, so the count needs nothing installed.

Usage: python scripts/code_lines.py [package directory]
"""

import io
import pathlib
import sys
import tokenize

LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
          tokenize.COMMENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of lines of source that carry code."""
    lines = set()
    statement = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            statement.append(tok)
        elif tok.type == tokenize.NEWLINE:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main() -> None:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                        else pathlib.Path(__file__).resolve().parent.parent / "src" / "torustc")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16} {count:>6,}")
    print(f"{'total':<16} {total:>6,}")


if __name__ == "__main__":
    main()
