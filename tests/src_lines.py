"""Count the lines and code lines of every module under a source tree.

Usage, from the root of a checkout:

    python tests/src_lines.py SRC

SRC is a directory, such as `src`; every `*.py` file under it is read.
Code lines are the physical lines that hold a token of code: blank lines,
comment lines, and the lines of module, class and function docstrings are
left out. A statement continued over several lines counts each of its
lines. It prints the lines and code lines of each module, then the
totals, and its last line is one JSON object. Standard library only.

The name does not match `test_*.py`, so pytest never collects this file;
`tests/test_benches.py` runs it once.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

# tokens that are not code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="a source directory, such as src")
    args = parser.parse_args(argv)
    modules = {}
    for path in sorted(args.src.rglob("*.py")):
        name = path.relative_to(args.src).as_posix()
        modules[name] = dict(zip(("lines", "code"), count(path.read_text(encoding="utf-8"))))
        print(f"{name}: {modules[name]['lines']} lines, {modules[name]['code']} code lines")
    total = {key: sum(m[key] for m in modules.values()) for key in ("lines", "code")}
    print(f"total: {total['lines']} lines, {total['code']} code lines")
    print(json.dumps({"modules": modules, **total}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
