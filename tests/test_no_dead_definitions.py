"""Every module-level function, class and constant of the package is read
somewhere in the package outside its own definition, and so is every
method and property of its classes: a definition nothing reads is dead
code, such as a helper or constant whose last user was deleted. A method
counts as read where its name is read as an attribute or a bare name, in
another statement of the package or in another member of its class.
Dunder names and dataclass fields are exempt."""

import ast
from pathlib import Path

import drostream


def defined_names(stmt: ast.stmt) -> list[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def read_names(node: ast.AST) -> set[str]:
    """Names ``node`` reads, bare or as a module's attribute."""
    return ({n.id for n in ast.walk(node)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node)
               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)})


def methods(stmt: ast.stmt) -> list[ast.stmt]:
    """The functions a top-level class statement defines in its body, its
    methods and properties."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [member for member in stmt.body
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))]


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """``file:line name`` of each definition in ``sources`` (file name to
    source) that no other top-level statement of any file reads, and of
    each method that neither another top-level statement nor another member
    of its class reads; an import is not a read."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    # (file, statement index) -> names that statement reads
    reads = {(name, i): read_names(stmt)
             for name, tree in trees.items()
             for i, stmt in enumerate(tree.body)}
    dead = []
    for name, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            for defined in defined_names(stmt):
                if defined.startswith("__"):
                    continue
                if not any(defined in names for where, names in reads.items()
                           if where != (name, i)):
                    dead.append(f"{name}:{stmt.lineno} {defined}")
            for method in methods(stmt):
                if method.name.startswith("__"):
                    continue
                others = [read_names(member) for member in stmt.body
                          if member is not method]
                if not any(method.name in names
                           for names in others + [
                               names for where, names in reads.items()
                               if where != (name, i)]):
                    dead.append(f"{name}:{method.lineno} "
                                f"{stmt.name}.{method.name}")
    return dead


def test_the_lint_finds_a_dead_definition():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("_CAP = 10**18\n"
                 "def rec(n):\n    return rec(n - 1)\n"
                 "def public():\n    return helper()\n"
                 "def helper():\n    return 1\n"
                 "def exported():\n    return 2\n"
                 "Array = list\nx: Array = []\n"),
        "b.py": "from . import a\nY = a.x\n",
        "c.py": ("from .a import public\n"
                 "class C:\n"
                 "    unused: int = 0\n"
                 "    def __len__(self):\n        return 0\n"
                 "    def spent(self):\n        return self.spent()\n"
                 "    @property\n    def total(self):\n        return 1\n"
                 "    def used(self):\n        return self.total\n"
                 "    def called(self):\n        return 2\n"
                 "Z = public(C().called())\n"),
    }
    assert dead_definitions(sources) == ["a.py:1 _CAP", "a.py:2 rec",
                                         "a.py:8 exported",
                                         "b.py:2 Y", "c.py:6 C.spent",
                                         "c.py:11 C.used", "c.py:15 Z"]


def test_the_package_has_no_dead_definitions():
    folder = Path(drostream.__file__).parent
    found = dead_definitions({path.name: path.read_text()
                              for path in sorted(folder.glob("*.py"))})
    assert not found, f"definitions nothing reads: {found}"
