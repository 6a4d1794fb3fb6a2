"""Print the code lines of each Python module named on the command line.

    python .github/code_lines.py src/cbnorm_lab/*.py

A code line holds at least one token that is not a comment, and is not part
of a docstring: the string that opens a module, class or function body.
Blank lines and comment lines are left out, so a change that only deletes
prose moves no count.  Prints one `count path` line per module and a total,
as `wc -l` does.
"""

import ast
import io
import sys
import tokenize

_PROSE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            value = getattr(first, "value", None) if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _PROSE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(paths) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:8d} {path}")
    if len(paths) > 1:
        print(f"{total:8d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
