"""Every top-level function, class and constant of the runtime is used."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "koszulmf"


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _refs(node):
    """The identifiers a tree refers to: names, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def _defined(stmt):
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_top_level_definition_is_used():
    # used means named outside its own definition: by another statement
    # of any runtime module, its own included, or anywhere in the tests
    by_tests = set()
    for path in TESTS.glob("*.py"):
        by_tests.update(_refs(_parse(path)))
    stmts = [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
             for stmt in _parse(path).body]
    refs = [set(_refs(stmt)) for _, stmt in stmts]
    checked = 0
    for i, (fname, stmt) in enumerate(stmts):
        for name in _defined(stmt):
            checked += 1
            assert name in by_tests or any(
                name in r for j, r in enumerate(refs) if j != i
            ), f"{fname}:{stmt.lineno} defines {name}, which nothing uses"
    assert checked > 100  # the walker reached every module
