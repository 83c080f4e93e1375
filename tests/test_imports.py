"""Every name a negofs module imports is used: a standard-library unused-import check.

A name counts as used when the module reads it anywhere, including inside a
string annotation such as ``x: "Dataset"``, or when the module's ``__all__``
lists it. The package's ``__all__`` must in turn name only what it imports.
A second check keeps SparseVector's representation inside negofs.sparse.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "negofs"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return imported


def exported_names(tree: ast.Module) -> list[str]:
    """The string entries of a module-level ``__all__`` list, if there is one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [e.value for e in node.value.elts]
    return []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = imported_names(tree)
    used = set(exported_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = None
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_finds_unused_and_honours_string_annotations():
    source = (
        "import os\n"
        "from typing import Iterable, Sequence\n"
        "from pathlib import Path\n"
        "def f(p: 'Path') -> 'list[Sequence]':\n"
        "    return []\n"
    )
    assert unused_imports(source) == ["line 1: os", "line 2: Iterable"]
    assert unused_imports("from os import sep, path\n__all__ = ['sep']\n") == ["line 1: path"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_package_exports_only_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = exported_names(tree)
    assert exported
    assert len(set(exported)) == len(exported)
    assert sorted(set(exported) - set(imported_names(tree))) == []


# SparseVector's storage, its cached floor, its order flag and its unchecked constructor.
REPRESENTATION = {"_data", "_floor", "_sorted", "_trusted"}


def representation_reads(source: str) -> list[str]:
    """Each attribute access to SparseVector's representation, with its line."""
    return [f"line {node.lineno}: .{node.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in REPRESENTATION]


def test_representation_checker_finds_reads_and_calls():
    source = (
        "def f(w, d):\n"
        "    n = len(w._data)\n"
        "    return SparseVector._trusted(3, d, w._floor), w.data\n"
    )
    assert representation_reads(source) == [
        "line 2: ._data", "line 3: ._trusted", "line 3: ._floor"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "sparse.py"])
def test_only_sparse_touches_the_vector_representation(module):
    assert representation_reads((PACKAGE / module).read_text(encoding="utf-8")) == []
