"""The package states its invariants as raises: ``python -O`` strips asserts."""

import ast
from pathlib import Path

import drostream


def test_the_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(drostream.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
