#!/usr/bin/env python3
"""Count code lines per Python module, per top-level definition and in total.

    python3 scripts/code_lines.py src
    python3 scripts/code_lines.py src/iterl2norm/experiments.py

A code line is a physical line that holds part of a token other than a
comment, of a logical line that is not only string literals: blank lines,
comment lines and docstrings (a string statement, at the head of a module,
class or function body or anywhere else) are left out, and a multi-line
string inside code counts every line it spans.  Each path is a module or a
directory, whose `*.py` files are counted in sorted order.  One line per
module gives its count and path, followed by one indented line per
top-level function or class (decorators included) with its count and
name; the last line gives the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING}
# a logical line of these tokens only is a string statement; the f-string
# tokens exist from Python 3.12
_STRINGS = {tokenize.STRING} | {getattr(tokenize, name) for name in
                                ("FSTRING_START", "FSTRING_MIDDLE", "FSTRING_END")
                                if hasattr(tokenize, name)}


def code_lines(source: str) -> set[int]:
    """The numbers (from 1) of the code lines of `source`."""
    lines: set[int] = set()
    logical: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type not in _STRINGS for t in logical):
                for t in logical:
                    lines.update(range(t.start[0], t.end[0] + 1))
            logical = []
        elif tok.type not in _NOT_CODE:
            logical.append(tok)
    return lines


def top_level_defs(source: str) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each top-level function and class,
    its decorators included."""
    return [(node.name, min([node.lineno] + [d.lineno for d in node.decorator_list]),
             node.end_lineno)
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def modules(paths: list[Path]) -> list[Path]:
    return [m for p in paths for m in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", type=Path, help="modules or directories")
    args = ap.parse_args(argv)
    total = 0
    for path in modules(args.paths):
        source = path.read_text(encoding="utf-8")
        lines = code_lines(source)
        total += len(lines)
        print(f"{len(lines):7d}  {path}")
        for name, first, last in top_level_defs(source):
            print(f"{sum(n in lines for n in range(first, last + 1)):7d}    {name}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): stop without a traceback,
        # and point stdout at devnull so that its flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
