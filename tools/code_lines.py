"""Count the code lines of each gliderplan module and their total.

A code line holds at least one token that is not part of a comment or a
docstring; blank lines do not count. Docstrings are the string statements
that open a module, class or function body.

    python tools/code_lines.py [SRC_DIR]

SRC_DIR defaults to src/gliderplan next to this script's directory.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers spanned by the docstrings of tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """Number of code lines in the Python file at path."""
    source = Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0]) if argv else (
        Path(__file__).resolve().parents[1] / "src" / "gliderplan")
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path)
        total += n
        print("%6d  %s" % (n, path.name))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
