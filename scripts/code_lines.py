"""Code lines per module of a package, counted with `tokenize`.

A line counts when a token other than a comment, a newline or an indent
lies on it; a token over several lines counts each of them. A statement
made of string literals alone (a docstring, or a string used as a comment)
does not count. So blank lines, comments and docstrings are left out.

Usage: python3 scripts/code_lines.py [PACKAGE_DIR]   (default: src/gtsp)
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Lines of `path` that hold code, by the rule of the module docstring."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _LAYOUT:
                if tok.type == tokenize.NEWLINE and statement:
                    if any(t.type != tokenize.STRING for t in statement):
                        for t in statement:
                            lines.update(range(t.start[0], t.end[0] + 1))
                    statement = []
                continue
            statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else ROOT / "src" / "gtsp"
    counts = {p.name: code_lines(p) for p in sorted(package.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
