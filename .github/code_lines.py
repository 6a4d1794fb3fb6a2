"""Print the code lines of each Python module named on the command line.

    python .github/code_lines.py src/cbnorm_lab/*.py
    python .github/code_lines.py --changed BASE src/cbnorm_lab/*.py

A code line holds at least one token that is not a comment, and is not part
of a docstring: the string that opens a module, class or function body.
Blank lines and comment lines are left out, so a change that only deletes
prose moves no count.  Prints one `count path` line per module and a total,
as `wc -l` does.

With `--changed BASE`, counts each top-level function and each method of a
top-level class instead, with its decorators and nested functions, in every
module and in the module of the same relative path under the directory BASE.
Prints one `path::name before -> after` line for each function whose count
differs, with `-` for a function one side lacks, or a line saying that none
differs.
"""

import ast
import io
import os
import sys
import tokenize

_PROSE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, *_FUNCTIONS)):
            first = node.body[0] if node.body else None
            value = getattr(first, "value", None) if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _code_line_set(source: str, tree) -> set:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _PROSE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - _docstring_lines(tree)


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    return len(_code_line_set(source, ast.parse(source)))


def function_lines(source: str) -> dict:
    """The code lines of each top-level function and each method of a
    top-level class, by name (`Class.method` for a method)."""
    tree = ast.parse(source)
    lines = _code_line_set(source, tree)
    named = [(node.name, node) for node in tree.body if isinstance(node, _FUNCTIONS)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        named += [(f"{cls.name}.{node.name}", node) for node in cls.body if isinstance(node, _FUNCTIONS)]
    counts = {}
    for name, node in named:
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        counts[name] = len(lines & set(range(first, node.end_lineno + 1)))
    return counts


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def changed(base: str, paths) -> int:
    found = False
    for path in paths:
        before_path = os.path.join(base, path)
        before = function_lines(_read(before_path)) if os.path.exists(before_path) else {}
        after = function_lines(_read(path))
        for name in list(after) + [name for name in before if name not in after]:
            if before.get(name) != after.get(name):
                found = True
                print(f"{path}::{name} {before.get(name, '-')} -> {after.get(name, '-')}")
    if not found:
        print("no function's code lines differ")
    return 0


def main(paths) -> int:
    total = 0
    for path in paths:
        count = code_lines(_read(path))
        total += count
        print(f"{count:8d} {path}")
    if len(paths) > 1:
        print(f"{total:8d} total")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--changed"]:
        sys.exit(changed(sys.argv[2], sys.argv[3:]))
    sys.exit(main(sys.argv[1:]))
