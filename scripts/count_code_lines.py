#!/usr/bin/env python3
"""Count the code lines of each module of a package and their total.

A code line is a physical line that holds part of a Python token other
than a comment; blank lines, comment lines and the lines of docstrings
(the leading string of a module, class or function) are left out.  A
statement continued over several lines counts each of them, and so does a
string literal that is not a docstring.

Example:
    python3 scripts/count_code_lines.py            # src/ergoquench
    python3 scripts/count_code_lines.py path/to/package
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default = Path(__file__).resolve().parent.parent / "src" / "ergoquench"
    ap.add_argument("package", nargs="?", default=str(default),
                    help="package directory (default src/ergoquench)")
    args = ap.parse_args()

    total = 0
    for path in sorted(Path(args.package).rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.relative_to(args.package)} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
