"""Every name a module imports is used by that module, and every
parameter of a package function is read by it.

No linter ships with the project, so this scans the sources with ``ast``.
Exempt from the import scan are the package's ``__init__.py`` (its imports
are re-exports), ``from __future__`` imports, and names imported on a line
marked ``# noqa: F401``.  The parameter scan covers the module-level
functions of ``src/fbsdekit/*.py`` and the methods of their module-level
classes, apart from ``self`` and ``cls``; nested functions are exempt, as
they implement callback contracts such as a coefficient's ``b(t, x, y,
z)``.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
MODULES = [
    path
    for pattern in ("src/fbsdekit/*.py", "tests/*.py", "demos/*.py", "tools/*.py")
    for path in sorted(REPO_ROOT.glob(pattern))
    if path.name != "__init__.py"
]
PACKAGE = sorted(REPO_ROOT.glob("src/fbsdekit/*.py"))


def unused_imports(source):
    """Names bound by an import statement that nothing else in ``source`` reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            # ``import a.b`` binds ``a``
            imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"line {lineno}: {name}"
        for name, lineno in imported.items()
        if name not in used
    )


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(REPO_ROOT)) for p in MODULES]
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import_and_honours_the_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from math import pi, tau\n"
        "from math import e  # noqa: F401\n"
        "print(os.path.sep, tau)\n"
    )
    assert unused_imports(source) == ["line 2: json", "line 4: pi"]


def unread_parameters(source):
    """``function: parameter`` for each parameter of a module-level function,
    or ``Class.method: parameter`` for a module-level class's method, that
    the body never reads."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    functions = []
    for node in ast.parse(source).body:
        if isinstance(node, defs):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            functions += [
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, defs)
            ]
    unread = []
    for name, function in functions:
        args = function.args
        params = [
            arg.arg
            for arg in [*args.posonlyargs, *args.args, args.vararg,
                        *args.kwonlyargs, args.kwarg]
            if arg is not None
        ]
        read = {
            node.id
            for statement in function.body
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [
            f"{name}: {param}"
            for param in params
            if param not in read and param not in ("self", "cls")
        ]
    return unread


@pytest.mark.parametrize(
    "path", PACKAGE, ids=[str(p.relative_to(REPO_ROOT)) for p in PACKAGE]
)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_scan_finds_an_unread_parameter_and_honours_the_exemptions():
    source = (
        "def f(a, b, *args, c=1, **kwargs):\n"
        "    def callback(t, x):  # nested: exempt\n"
        "        return a\n"
        "    b = 2\n"
        "    return callback, kwargs\n"
        "class K:\n"
        "    def m(self, used, unused):\n"
        "        return used\n"
        "    @classmethod\n"
        "    def c(cls):\n"
        "        return 0\n"
    )
    assert unread_parameters(source) == [
        "f: b", "f: args", "f: c", "K.m: unused",
    ]
