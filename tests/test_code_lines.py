"""Tests for .github/code_lines.py, the line counter of the CI summary."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / ".github" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module."""

import functools

LIMIT = 3  # a constant


@functools.cache
def outer(x):
    """Docstring lines are prose."""

    # So are comments and blank lines.
    def inner(y):
        return y + 1

    return inner(x)


class Box:
    """A class."""

    size = 2

    def grow(self, by):
        return (self.size
                + by)
'''


def test_function_lines_count_each_function_and_method_with_its_decorators():
    assert code_lines.function_lines(SOURCE) == {"outer": 5, "Box.grow": 3}
    assert code_lines.code_lines(SOURCE) == 12


def test_changed_prints_only_the_functions_whose_count_differs(tmp_path, monkeypatch, capsys):
    (tmp_path / "base").mkdir()
    (tmp_path / "base" / "m.py").write_text(SOURCE.replace("    return inner(x)\n", "    z = inner(x)\n    return z\n"))
    (tmp_path / "m.py").write_text(SOURCE + "\n\ndef added():\n    pass\n")
    monkeypatch.chdir(tmp_path)
    code_lines.changed(str(tmp_path / "base"), ["m.py"])
    assert capsys.readouterr().out.splitlines() == ["m.py::outer 6 -> 5", "m.py::added - -> 2"]
    code_lines.changed(str(tmp_path), ["m.py"])
    assert capsys.readouterr().out == "no function's code lines differ\n"
