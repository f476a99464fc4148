"""Every name a module of the package, the tests or the scripts imports is
used in it: an unused import is dead code or a leftover of a removed path.
``__future__`` imports are exempt."""

import ast
from pathlib import Path

import pytest

import drostream


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no ``ast.Name`` reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_the_lint_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom typing import Optional, Sequence as Seq\n"
              "x: Optional[int] = None\n")
    assert unused_imports(source) == [(2, "os"), (3, "Seq")]


def unused_in(folder: Path) -> list[str]:
    found = []
    for path in sorted(folder.glob("*.py")):
        found += [f"{path.name}:{line} {name}"
                  for line, name in unused_imports(path.read_text())]
    return found


def test_the_package_has_no_unused_imports():
    found = unused_in(Path(drostream.__file__).parent)
    assert not found, f"unused imports in the package: {found}"


@pytest.mark.parametrize("folder", ["tests", "scripts"])
def test_the_tests_and_scripts_have_no_unused_imports(folder):
    found = unused_in(Path(__file__).resolve().parents[1] / folder)
    assert not found, f"unused imports in {folder}: {found}"
