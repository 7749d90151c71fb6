"""Import hygiene of the library, read from its source with `ast`.

The library depends on the standard library alone, every name it
imports is used, no module imports another's private (`_`-prefixed)
name, and every import sits at module level, never in a function body.
A package `__init__` counts the names it lists in `__all__` as used.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def imports(tree):
    """(line, top-level module, bound name) for every import; a relative
    import is the library's own, and `from __future__` binds nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                yield node.lineno, top, alias.asname or top
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            top = "tropgrass" if node.level else node.module.split(".")[0]
            for alias in node.names:
                yield node.lineno, top, alias.asname or alias.name


def used_names(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def test_modules_are_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_imports_are_stdlib_or_the_library(path):
    tree = ast.parse(path.read_text(), str(path))
    foreign = [f"{path.name}:{line} {top}" for line, top, _ in imports(tree)
               if top != "tropgrass" and top not in sys.stdlib_module_names]
    assert not foreign


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = used_names(tree)
    unused = [f"{path.name}:{line} {name}" for line, _, name in imports(tree)
              if name not in used]
    assert not unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_private_name_is_imported(path):
    tree = ast.parse(path.read_text(), str(path))
    private = [f"{path.name}:{line} {name}" for line, _, name in imports(tree)
               if name.startswith("_")]
    assert not private


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_import_in_a_function_body(path):
    tree = ast.parse(path.read_text(), str(path))
    inner = [f"{path.name}:{node.lineno} in {fn.name}"
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not inner


def test_minplus_alone_imports_csv():
    """One matrix CSV dialect: TropMatrix.to_csv and from_csv."""
    importers = [str(path.relative_to(SRC)) for path in MODULES
                 if any(top == "csv"
                        for _, top, _ in imports(ast.parse(path.read_text())))]
    assert importers == ["tropgrass/minplus.py"]
