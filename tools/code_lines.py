"""Count the code lines of a Python source tree.

    python tools/code_lines.py [DIR]

prints the number of non-blank lines of the `*.py` files under DIR
(default `src/cayley_stiefel`, relative to the working directory) that are
neither comments nor docstrings: the measure by which a change that
simplifies the library shows that it removed code.  A line counts when a
token other than a comment starts, ends or continues on it, so the lines
inside a multi-line string or bracket count, and the lines of a docstring,
the string that opens a module, class or function body, do not.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of a parsed module span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of non-blank lines of source that are neither comments nor docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    text = source.splitlines()
    lines -= docstring_lines(ast.parse(source))
    return sum(1 for i in lines if text[i - 1].strip())


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python tools/code_lines.py [DIR]", file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else "src/cayley_stiefel")
    if not root.is_dir():
        print(f"not a directory: {root}", file=sys.stderr)
        return 2
    print(sum(code_lines(path.read_text()) for path in sorted(root.rglob("*.py"))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
