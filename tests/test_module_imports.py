"""Every module of the package imports alone, in a fresh interpreter: the
package re-exports nothing, so nothing imports its modules ahead of the one
a caller names, and an import cycle or a sibling a module reads but does
not import would otherwise show only in some import orders."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(f"drostream.{path.stem}"
                 for path in (SRC / "drostream").glob("*.py")
                 if path.name != "__init__.py")

# imports the module named by argv[1] and prints the file it came from, or
# exits 1 when its package was imported before it
IMPORT_ALONE = textwrap.dedent("""
    import importlib, sys
    name = sys.argv[1]
    package = name.partition(".")[0]
    early = sorted(m for m in sys.modules
                   if m == package or m.startswith(package + "."))
    if early:
        sys.exit(f"imported before {name}: {early}")
    print(importlib.import_module(name).__file__)
""")


def import_alone(name: str, src: Path) -> subprocess.CompletedProcess:
    """``import name`` as the first import of its package in a fresh
    interpreter with ``src`` first on its path."""
    rest = os.environ.get("PYTHONPATH")
    path = str(src) + os.pathsep + rest if rest else str(src)
    return subprocess.run([sys.executable, "-c", IMPORT_ALONE, name],
                          capture_output=True, text=True, cwd=src,
                          env=dict(os.environ, PYTHONPATH=path))


def test_a_module_that_needs_another_imported_first_fails_alone(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "b.py").write_text("Y = 1\n")
    # pkg.b is an attribute of pkg only once something has imported it
    (package / "a.py").write_text("import pkg\nX = pkg.b.Y\n")
    (package / "c.py").write_text("from . import b\nimport pkg\nX = pkg.b.Y\n")
    failed = import_alone("pkg.a", tmp_path)
    assert failed.returncode == 1
    assert "has no attribute 'b'" in failed.stderr
    ok = import_alone("pkg.c", tmp_path)
    assert ok.returncode == 0, ok.stderr
    assert Path(ok.stdout.strip()) == package / "c.py"


def test_a_module_imported_before_its_turn_fails(tmp_path):
    # a start-up hook that imports the package hides an import-order fault
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "b.py").write_text("Y = 1\n")
    (tmp_path / "sitecustomize.py").write_text("import pkg.b\n")
    proc = import_alone("pkg.b", tmp_path)
    assert proc.returncode == 1
    assert "imported before pkg.b: ['pkg', 'pkg.b']" in proc.stderr


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_alone_in_a_fresh_interpreter(name):
    proc = import_alone(name, SRC)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()) == SRC / (name.replace(".", "/") + ".py")
