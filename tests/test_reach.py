"""Tests for .github/reach.py, the report of the package's unreached lines."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / ".github" / "reach.py"
_SPEC = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

TOY = '''"""A toy module."""


def sign(x):
    if x > 0:
        return 1
    # Only numbers are given.
    if x is None:
        raise ValueError(
            "no sign"
        )
    return -1


class Box:
    size = 2

    def grow(self):
        return self.size + 1

    def shrink(self):
        return self.size - 1
'''


def _run_toy(directory):
    """Import toy.py from `directory`, and take both branches of `sign` but
    not its raise, and `Box.grow` but not `Box.shrink`."""
    spec = importlib.util.spec_from_file_location("toy", directory / "toy.py")
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    assert (toy.sign(1), toy.sign(-1), toy.Box().grow()) == (1, -1, 3)


def test_an_untaken_branch_is_listed_and_a_taken_one_is_not(tmp_path):
    (tmp_path / "toy.py").write_text(TOY)
    ran = reach.trace_lines(tmp_path, lambda: _run_toy(tmp_path))
    lines = ran[str((tmp_path / "toy.py").resolve())]
    assert {5, 6, 8, 12, 19} <= lines and not lines & {9, 10, 11, 22}
    # The untaken raise is listed apart from the uncalled method.
    assert reach.unreached(TOY, lines) == ([("Box.shrink", [(22, 22)])], [("sign", [(9, 11)])])


def test_a_raise_splits_the_range_of_the_path_around_it():
    source = "def f(x):\n    if x:\n        raise ValueError(x)\n    return x\n"
    assert reach.unreached(source, set()) == ([("f", [(1, 2), (4, 4)])], [("f", [(3, 3)])])


def test_report_lists_each_part_and_a_module_that_never_ran(tmp_path, monkeypatch, capsys):
    (tmp_path / "toy.py").write_text(TOY)
    (tmp_path / "never.py").write_text('"""Never imported."""\n\nLIMIT = 3\n\n\ndef f():\n    return LIMIT\n')
    ran = reach.trace_lines(tmp_path, lambda: _run_toy(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert reach.report(tmp_path, ran) == 7
    assert capsys.readouterr().out.splitlines() == [
        "never.py::<module> 3",
        "never.py::f 6-7",
        "toy.py::Box.shrink 22",
        "raise statements:",
        "toy.py::sign 9-11",
        "7 code lines unreached: 4 on paths, 3 in raise statements",
    ]
