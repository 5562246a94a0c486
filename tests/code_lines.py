"""Code lines of each module of ``src/bien/``, and their total.

Run from anywhere:

    python3 tests/code_lines.py

A code line is a line that holds a token of code. Blank lines and
comments (found with ``tokenize``) do not count, and neither do the
lines of a module, class or function docstring (found with ``ast``).
"""

import ast
import io
import tokenize
from pathlib import Path

LIBRARY = sorted((Path(__file__).resolve().parent.parent / "src" / "bien").glob("*.py"))

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main():
    total = 0
    for path in LIBRARY:
        n = code_lines(path.read_text())
        total += n
        print(f"{path.stem:12} {n:6,}")
    print(f"{'total':12} {total:6,}")


if __name__ == "__main__":
    main()
