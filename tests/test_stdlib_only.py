"""The runtime imports only the standard library, and no random numbers."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "koszulmf"


def _imports():
    """(file name, line, imported module) for every absolute import."""
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, node.lineno, name


def test_runtime_imports_only_stdlib():
    for fname, line, name in _imports():
        top = name.partition(".")[0]
        assert top in sys.stdlib_module_names, f"{fname}:{line} imports {name}"


def test_runtime_does_not_import_random():
    # every reported check is deterministic and decided on the whole
    # object; sampling belongs to the tests
    for fname, line, name in _imports():
        assert name.partition(".")[0] != "random", f"{fname}:{line} imports {name}"


def test_linalg_is_integer_only():
    # the elimination and the contraction work on integer vectors over one
    # denominator; p is read off integer functional rows, so linalg needs
    # no Fraction.  Its columns are integers, with Contraction's scale the
    # one factor between them and d: no code reads a denominator off them
    names = {name for fname, _, name in _imports() if fname == "linalg.py"}
    assert "math" in names  # the walker reached linalg.py
    assert "fractions" not in names
    path = SRC / "linalg.py"
    attrs = [(node.lineno, node.attr)
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute)]
    assert any(attr == "kernel_ints" for _, attr in attrs)  # reached its code
    for line, attr in attrs:
        assert attr not in ("numerator", "denominator"), (
            f"linalg.py:{line} reads .{attr}")


def test_no_function_takes_a_tolerance():
    # every reported check is decided exactly; a float tolerance would
    # let a wrong answer through as "close enough"
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            checked += 1
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p]
            for p in params:
                assert p.arg not in ("tol", "tolerance"), (
                    f"{path.name}:{node.lineno} takes {p.arg}")
    assert checked > 100  # the walker reached every module


def test_every_lru_cache_has_an_int_bound():
    # caches have bounds: every lru_cache is called with an integer
    # maxsize, and functools.cache, which has none, is not used
    bounded = 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        called = set()
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert all(a.name != "cache" for a in node.names), where
            elif (isinstance(node, ast.Attribute) and node.attr == "cache"
                  and getattr(node.value, "id", None) == "functools"):
                raise AssertionError(f"{where} uses functools.cache")
            elif isinstance(node, ast.Call) and _named(node.func, "lru_cache"):
                sizes = node.args + [kw.value for kw in node.keywords
                                     if kw.arg == "maxsize"]
                assert len(sizes) == 1, f"{where}: lru_cache without maxsize"
                assert (isinstance(sizes[0], ast.Constant)
                        and type(sizes[0].value) is int), (
                    f"{where}: maxsize is not an integer")
                called.add(node.func)
                bounded += 1
        for node in ast.walk(tree):
            if _named(node, "lru_cache") and node not in called:
                raise AssertionError(
                    f"{path.name}:{node.lineno} uses lru_cache uncalled")
    assert bounded == 8  # the walker reached every cache


def _named(node, name):
    """Whether node is the name or the attribute `name`."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)
