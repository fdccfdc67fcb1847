"""Count the lines of the package's source, per module and in total.

Prints, for each module under src/depthpocs and for all of them, its
`wc -l` line count and its code lines: lines that hold a token other than
a comment, leaving out blank lines, comment-only lines and the lines of
docstrings (a string that is the first statement of a module, class or
function). Run from anywhere:

    python tools/src_size.py [DIR]

DIR defaults to the package directory beside this script's parent.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that docstrings span in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(wc -l lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "depthpocs"
    total = [0, 0]
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total[0] += lines
        total[1] += code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total[0]:>6} {total[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
