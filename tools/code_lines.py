#!/usr/bin/env python3
"""Count the code lines of the vrpca package: the lines of src/vrpca/*.py
that hold a token other than a comment, a docstring or layout.

    python3 tools/code_lines.py            # the total, then one line a file
    python3 tools/code_lines.py path/to/src/vrpca

A docstring here is any string statement standing alone (a module, class
or function docstring, or a bare string between statements); a line that
holds only such a string, comments or whitespace is not counted. The
count is made with the standard library's tokenize, so it does not follow
how lines are wrapped inside brackets: every physical line that carries
a counted token counts once.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

#: tokens that carry no code; a string just after one of them starts a
#: statement
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """The number of code lines of the Python file ``path``."""
    with open(path, "rb") as fh:
        toks = [t for t in tokenize.tokenize(fh.readline)
                if t.type not in (tokenize.NL, tokenize.COMMENT)]
    lines = set()
    for prev, tok, nxt in zip(toks, toks[1:], toks[2:]):
        docstring = (tok.type == tokenize.STRING and prev.type in _LAYOUT
                     and nxt.type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if tok.type not in _LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "vrpca")
    counts = {p.name: code_lines(p) for p in sorted(root.glob("*.py"))}
    print(sum(counts.values()))
    for name, count in counts.items():
        print(f"  {name} {count}")


if __name__ == "__main__":
    main()
