"""Import hygiene: every name a package module imports is used in it.

No linter ships with the test extras, so this stdlib `ast` scan stands in
for one.  `__init__.py` is exempt: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cbnorm_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "import math\nfrom .opspace import OpSpaceMatrix, matrix_norm\n\nmatrix_norm(None)\n"
    assert unused_imports(source) == ["OpSpaceMatrix (line 2)", "math (line 1)"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.pi\n") == []


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"_search", "cbnorm", "holofun", "matcore", "opspace"}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
