"""Every name a module imports is used by that module.

No linter ships with the project, so this scans the sources with ``ast``.
Exempt are the package's ``__init__.py`` (its imports are re-exports),
``from __future__`` imports, and names imported on a line marked
``# noqa: F401``.
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
