"""Count the physical lines of Python source that hold code.

A line holds code when a token other than a comment, a newline or an
indentation change lies on it (tokenize), and no docstring covers it: a
docstring is a string literal that is the first statement of a module,
class or function (ast).  Blank lines and comment-only lines never count.

Usage: python3 tools/code_lines.py PATH...
Each PATH is a .py file or a directory searched for them.  Prints one
`count path` line per file, in sorted order, then `count total`.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of lines of the Python file at path that hold code."""
    with tokenize.open(path) as fh:
        source = fh.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv):
    if not argv:
        sys.exit("usage: python3 tools/code_lines.py PATH...")
    files = sorted({f for p in map(Path, argv) for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])})
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d} {f}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
