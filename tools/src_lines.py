"""Count the lines of the package's source, split four ways.

    python tools/src_lines.py [DIR]

DIR defaults to src/.  Each line of each .py file under it is one of:

- blank: empty or whitespace only, inside a docstring too;
- docstring: a line of a module, class or function docstring (ast);
- comment: a line whose only token is a comment (tokenize);
- code: every other line.

Prints one line per file, then the total, as "total (code, docstrings,
comments, blank)".
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _comment_lines(path: Path) -> set:
    """The line numbers whose only token is a comment."""
    comments, other = set(), set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.COMMENT:
                comments.add(tok.start[0])
            elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                                  tokenize.DEDENT, tokenize.ENCODING,
                                  tokenize.ENDMARKER):
                other.update(range(tok.start[0], tok.end[0] + 1))
    return comments - other


def count(path: Path) -> tuple:
    """(total, code, docstrings, comments, blank) of one file."""
    text = path.read_text()
    docs = _docstring_lines(ast.parse(text))
    comments = _comment_lines(path)
    code = doc = comment = blank = 0
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            blank += 1
        elif number in docs:
            doc += 1
        elif number in comments:
            comment += 1
        else:
            code += 1
    return code + doc + comment + blank, code, doc, comment, blank


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    sums = [0] * 5
    for path in sorted(root.rglob("*.py")):
        row = count(path)
        sums = [a + b for a, b in zip(sums, row)]
        print("%5d (%d, %d, %d, %d)  %s" % (*row, path))
    print("%5d (%d, %d, %d, %d)  total" % tuple(sums))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
