"""Line counts of the ``src/refprice`` modules.

For each module, prints its physical lines and its code lines: the lines
that hold a token other than a comment or a docstring, so blank lines,
comment lines and the lines of module, class and function docstrings are
left out.  The last row is the total.

    python tools/code_lines.py [SRC_DIR]

SRC_DIR defaults to the ``src/refprice`` directory beside this script's.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

# Tokens that make no line a code line.
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of ``source``."""
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    src = argv[1] if len(argv) > 1 else os.path.join(here, os.pardir, "src", "refprice")
    rows = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                rows.append((name, *count(f.read())))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<14} {'physical':>8} {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<14} {physical:>8} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
