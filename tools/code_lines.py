"""Code lines of each gfcalc module: non-blank lines outside comments and
docstrings.

    python tools/code_lines.py [SRC]

prints one ``<count>  <file>`` line per module of ``SRC/gfcalc`` (SRC
defaults to ``src``), in name order, then ``<count>  total``.  A line counts
when some token other than a comment, a docstring or a line break starts on
it or runs through it, so every line of a multi-line expression or of a
string that is not a docstring counts.  A docstring is the string statement
that opens a module, class or function.
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    skip = docstring_lines(ast.parse(path.read_bytes(), str(path)))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list) -> int:
    src = Path(argv[1] if len(argv) > 1 else "src")
    total = 0
    for path in sorted((src / "gfcalc").glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count}  {path.name}")
    print(f"{total}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
