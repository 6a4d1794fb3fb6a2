"""Print the code lines of src/cbnorm_lab that no workload op and no shipped
config reaches.

    python .github/reach.py

Runs every op of the three benchmark workloads at seeds 1-3
(`perfbench/workloads.py`'s `build`, then `cli.run` and `cli.record_to_json`)
and every config in configs/ through the same two calls, under a
`sys.settrace` line tracer that watches only the package's modules.  The
package is imported under the tracer, so its module-level lines count too.

A statement is reached when a line it spans ran; a compound statement spans
its body, so an `if` whose branch never ran is reached, and the branch is
not.  Prints, for each top-level function, method of a top-level class,
class body or `<module>` that holds a code line of an unreached statement
(a code line as .github/code_lines.py counts it), one
`path::name first-last, ...` line with the ranges of those lines; a range
runs on over comments and blank lines, and stops at a reached code line or
one of the other section.  The lines of unreached `raise` statements, most
of them input checks, come apart: first every part's other lines (paths),
then a `raise statements:` line and every part's raise lines, then the
total, split into the two.  A report, not a gate: it exits 0 whatever it
finds.
"""

import ast
import importlib.util
import json
import os
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("code_lines", Path(__file__).with_name("code_lines.py"))
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SEEDS = (1, 2, 3)


def trace_lines(directory, run) -> dict:
    """Call `run()` under a line tracer, and return the set of lines that ran
    of each module under `directory`, by real path."""
    directory = os.path.realpath(directory) + os.sep
    ran, tracers = {}, {}

    def tracer(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def watch(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in tracers:
            real = os.path.realpath(path)
            tracers[path] = tracer(ran.setdefault(real, set())) if real.startswith(directory) else None
        return tracers[path]

    previous = sys.gettrace()
    sys.settrace(watch)
    try:
        run()
    finally:
        sys.settrace(previous)
    return ran


def _owners(tree) -> dict:
    """The name that each line of a top-level function, class or method
    reports under: `function`, `Class.method` or `Class`."""
    owners = {}

    def own(node, name):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        owners.update(dict.fromkeys(range(first, node.end_lineno + 1), name))

    for node in tree.body:
        if isinstance(node, (ast.ClassDef, *code_lines._FUNCTIONS)):
            own(node, node.name)
        if isinstance(node, ast.ClassDef):
            for method in (m for m in node.body if isinstance(m, code_lines._FUNCTIONS)):
                own(method, f"{node.name}.{method.name}")
    return owners


def unreached(source: str, ran: set) -> tuple:
    """(paths, raises): each a list of (name, [(first, last), ...]) of the
    parts of a module (`_owners`, else `<module>`) that hold code lines of
    statements no line of which is in `ran`, in source order, with the
    ranges of those lines; raises holds the lines of unreached `raise`
    statements, and paths every other unreached code line."""
    tree = ast.parse(source)
    code = sorted(code_lines._code_line_set(source, tree))
    missed, raised = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            span = range(first, node.end_lineno + 1)
            if ran.isdisjoint(span):
                missed.update(span)
                if isinstance(node, ast.Raise):
                    raised.update(span)
    owners, sections, last = _owners(tree), ({}, {}), None
    for line in code:
        name, kind = owners.get(line, "<module>"), line in raised
        if line not in missed:
            last = None
        elif last == (name, kind):
            sections[kind][name][-1] = (sections[kind][name][-1][0], line)
        else:
            sections[kind].setdefault(name, []).append((line, line))
            last = (name, kind)
    return tuple(list(parts.items()) for parts in sections)


def report(directory, ran: dict) -> int:
    """Print the unreached ranges of every module under `directory`, by
    its path relative to the working directory: the paths, then the raise
    statements, then the total; return the number of unreached code lines."""
    counts, lines = [0, 0], ([], [])
    for path in sorted(Path(directory).glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code = code_lines._code_line_set(source, ast.parse(source))
        for kind, parts in enumerate(unreached(source, ran.get(os.path.realpath(path), set()))):
            for name, ranges in parts:
                counts[kind] += sum(len(code.intersection(range(a, b + 1))) for a, b in ranges)
                spans = ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in ranges)
                lines[kind].append(f"{os.path.relpath(path)}::{name} {spans}")
    print(*lines[0], "raise statements:", *lines[1], sep="\n")
    print(f"{sum(counts)} code lines unreached: {counts[0]} on paths, {counts[1]} in raise statements")
    return sum(counts)


def run_everything():
    """Every op of every workload at SEEDS, then every shipped config."""
    import workloads
    from cbnorm_lab import cli

    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for op in workloads.build(name, seed, _ROOT):
                cli.record_to_json(cli.run(op.command, op.config)[0])
    for path in sorted((_ROOT / "configs").glob("*.json")):
        config = json.loads(path.read_text(encoding="utf-8"))
        cli.record_to_json(cli.run(config["command"], config)[0])


def main() -> int:
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "perfbench")]
    package = _ROOT / "src" / "cbnorm_lab"
    report(package, trace_lines(package, run_everything))
    return 0


if __name__ == "__main__":
    sys.exit(main())
