"""Name hygiene: every name a package module imports is used in it, every
local variable a function assigns is read, every private module-level name
is read somewhere in the package, every public one there, in the benchmark
or in the acceptance tests, every instance attribute the package
stores is read, no parameter is only validated, and every exception class
that `errors.py` defines is raised somewhere in the package.

No linter ships with the test extras, so these stdlib `ast` scans stand in
for one.  `__init__.py` is exempt from the import scan: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cbnorm_lab"
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope):
    """The nodes of a function's body, without those of nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list:
    """The local variables a function assigns that neither it nor a function
    nested in it reads; `_` marks a value dropped on purpose."""
    found = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, _SCOPES):
            continue
        stored, declared = {}, set()
        for node in _own_nodes(scope):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        found += [f"{name} (line {line})" for name, line in stored.items() if name not in read | declared | {"_"}]
    return sorted(found)


def unraised_errors(errors_source: str, sources) -> list:
    """The classes `errors_source` defines that no `raise` in `sources` names."""
    defined = [node.name for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)]
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return [name for name in defined if name not in raised]


def _defined_names(statement) -> list:
    """The names a module-level statement defines: a def, a class or the
    targets of an assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def _read_names(statement) -> set:
    """The names a statement reads, as a name, an attribute or an import."""
    read = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread_names(sources: dict, private: bool, readers=()) -> list:
    """The module-level names of `sources`, a map from module name to source,
    that are private (`_x`, not dunders) or public, as `private` says, and
    that no module-level statement of `sources` reads except the one defining
    them, nor any statement of the `readers` sources; a recursive function's
    calls to itself do not count.  Any attribute `.x` counts as a read, so the
    scan can miss a name but never flags a used one."""
    defined, reads = [], [_read_names(ast.parse(source)) for source in readers]
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            reads.append(_read_names(statement))
            for name in _defined_names(statement):
                if not name.startswith("__") and name.startswith("_") == private:
                    defined.append((module, name, len(reads) - 1))
    return sorted(
        f"{module}.{name}"
        for module, name, own in defined
        if not any(name in read for i, read in enumerate(reads) if i != own)
    )


def unread_private_names(sources: dict) -> list:
    """The private module-level names that no other statement of `sources` reads."""
    return _unread_names(sources, private=True)


def unreached_public_names(sources: dict, readers=()) -> list:
    """The public module-level names that no other statement of `sources`,
    nor any of the `readers` sources, reads: names only unit tests reach."""
    return _unread_names(sources, private=False, readers=readers)


def _stored_attributes(tree):
    """(name, line) of each attribute a `self.x = …` (augmented too) or an
    `object.__setattr__(obj, "x", …)` stores."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
            and len(node.args) == 3
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value, node.lineno


def unread_attributes(sources: dict, readers=()) -> list:
    """The instance attributes that `sources`, a map from module name to
    source, store and that no `.x` in `sources` or in the `readers` sources
    reads.  An augmented assignment `self.x += …` stores, and its read does
    not count; dataclass fields read through `asdict` are out of scope."""
    stored, read = {}, set()
    for module, source in sources.items():
        for name, line in sorted(_stored_attributes(ast.parse(source)), key=lambda store: store[1]):
            stored.setdefault((module, name), line)
    for source in [*sources.values(), *readers]:
        read.update(
            node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)
        )
    return sorted(f"{module}.{name} (line {line})" for (module, name), line in stored.items() if name not in read)


_VALIDATORS = {"check_seed", "check_count", "check_level", "as_int"}


def _is_validator_call(node) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id in _VALIDATORS) or (
        isinstance(func, ast.Attribute) and func.attr in _VALIDATORS
    )


def validated_only_parameters(source: str) -> list:
    """The parameters whose every read is an argument of a `check_seed`,
    `check_count`, `check_level` or `as_int` call whose result is thrown
    away (an expression statement): checked, then never used."""
    found = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        checked_only = set()
        for statement in ast.walk(scope):
            if isinstance(statement, ast.Expr) and _is_validator_call(statement.value):
                checked_only.update(id(arg) for arg in statement.value.args)
        args = scope.args
        for param in args.posonlyargs + args.args + args.kwonlyargs:
            reads = [
                node for node in ast.walk(scope)
                if isinstance(node, ast.Name) and node.id == param.arg and isinstance(node.ctx, ast.Load)
            ]
            if reads and all(id(node) in checked_only for node in reads):
                found.append(f"{scope.name}({param.arg}) (line {scope.lineno})")
    return found


def test_scan_finds_a_validated_only_parameter():
    source = (
        "def bound(u, budget, seed):\n"
        "    evals = Budget(check_count(budget, 'budget'))\n"
        "    matcore.check_seed(seed)\n"
        "    return evals, u\n"
        "def search(level, seed, n):\n"
        "    level = matcore.check_level(level)\n"
        "    check_seed(seed)\n"
        "    as_int(n, 'n')\n"
        "    return restarts(level, seed)\n"
        "def size(n):\n"
        "    as_int(n, 'n')\n"
    )
    assert validated_only_parameters(source) == ["bound(seed) (line 1)", "search(n) (line 5)", "size(n) (line 10)"]
    assert validated_only_parameters("key = lambda value, name: check_seed(value)\n") == []


def test_no_parameter_is_only_validated():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += [f"{path.stem}.{name}" for name in validated_only_parameters(path.read_text(encoding="utf-8"))]
    assert found == []


def test_scan_finds_an_unread_private_name():
    source = (
        "_GRID, _USED = 2.0, 3.0\n"
        "_SCALED = _USED * 2\n"
        "def _walk(items):\n"
        "    return [] if not items else _walk(items[1:])\n"
        "class _Shape:\n"
        "    pass\n"
        "def _helper():\n"
        "    return _SCALED\n"
    )
    other = "from .a import _helper\nimport a\nprint(_helper(), a._Shape)\n"
    assert unread_private_names({"a": source, "b": other}) == ["a._GRID", "a._walk"]
    assert unread_private_names({"a": "__all__ = []\n_x: int = 1\n", "b": "import a\na._x\n"}) == []


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_scan_finds_an_unreached_public_name():
    source = (
        "LIMIT, USED = 2.0, 3.0\n"
        "def walk(items):\n"
        "    return [] if not items else walk(items[1:])\n"
        "class Shape:\n"
        "    pass\n"
        "def helper():\n"
        "    return USED\n"
        "def _private():\n"
        "    return 0\n"
    )
    package = {"a": source, "__init__": "from .a import helper\n"}
    assert unreached_public_names(package) == ["a.LIMIT", "a.Shape", "a.walk"]
    assert unreached_public_names(package, ["import a\na.Shape(a.walk([]))\n", "LIMIT = 1\n"]) == ["a.LIMIT"]


def test_every_public_name_is_reached():
    # A public name must be read by another statement of the package (its
    # `__init__.py` included), by the benchmark or by the acceptance tests;
    # the unit tests alone do not keep a name alive.
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    readers = [p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py")]
    readers.append((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    assert unreached_public_names(sources, readers) == []


def test_scan_finds_an_unread_attribute():
    source = (
        "class Budget:\n"
        "    def __init__(self, n):\n"
        "        self.left, self.used = n, 0\n"
        "    def spend(self):\n"
        "        self.left -= 1\n"
        "        self.used += 1\n"
        "        return self.left\n"
        "def _freeze(f, grid):\n"
        "    object.__setattr__(f, 'grid', grid)\n"
        "    object.__setattr__(f, 'phi', grid)\n"
        "    other.left = 0\n"
    )
    reader = "def show(f):\n    return f.phi\n"
    assert unread_attributes({"a": source}, [reader]) == ["a.grid (line 9)", "a.used (line 3)"]
    assert unread_attributes({"a": source}, [reader, "budget.used\nf.grid = 1\n"]) == ["a.grid (line 9)"]


def test_every_stored_attribute_is_read():
    # The benchmark's tracer reads package state (`Budget.used` is its
    # count of evaluations per ascent), so its reads count.
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    readers = [p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py")]
    assert unread_attributes(sources, readers) == []


def test_scan_finds_an_unused_local():
    source = (
        "def problem(m):\n"
        "    shape = (m, m)\n"
        "    size, _ = m * m, None\n"
        "    def project(stack):\n"
        "        return stack[:size]\n"
        "    return project\n"
    )
    assert unused_locals(source) == ["shape (line 2)"]
    assert unused_locals("def f(xs):\n    total = 0\n    for x in xs:\n        total += x\n    return total\n") == []


def test_scan_finds_an_unused_import():
    source = "import math\nfrom .opspace import OpSpaceMatrix, matrix_norm\n\nmatrix_norm(None)\n"
    assert unused_imports(source) == ["OpSpaceMatrix (line 2)", "math (line 1)"]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.pi\n") == []


def test_scan_finds_an_unraised_error():
    errors = "class BaseError(Exception):\n    pass\n\n\nclass GuardError(BaseError):\n    row = None\n"
    caught_only = ["raise BaseError('x')\n", "try:\n    pass\nexcept GuardError:\n    pass\n"]
    assert unraised_errors(errors, caught_only) == ["GuardError"]
    assert unraised_errors(errors, ["raise errors.GuardError\n", "raise BaseError from None\n"]) == []


def test_every_error_class_is_raised():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    assert unraised_errors((PACKAGE / "errors.py").read_text(encoding="utf-8"), sources) == []


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"_search", "cbnorm", "holofun", "matcore", "opspace"}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_reads_every_local_it_assigns(module):
    assert unused_locals(module.read_text(encoding="utf-8")) == []
