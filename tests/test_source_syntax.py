"""The package supports Python 3.10 (pyproject.toml), and the suite may run
on a later interpreter only: every source, test and tool file must parse
with the 3.10 grammar.  This catches syntax new in 3.11 or later, not
library calls that 3.10 lacks.

No package or tool module imports a name it never reads, so a helper that
is deleted cannot leave its import behind.

Only `anf` knows how a polynomial is stored: no other package module reads
its `_packed` vector, apart from the size rule of `d` (`forms._dense`), and
no other package module names `_level_masks`, the coefficient vector's
layout."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path for folder in ("src", "tests", "tools") for path in (ROOT / folder).rglob("*.py")
)


def test_every_folder_has_python_files():
    assert {path.relative_to(ROOT).parts[0] for path in FILES} == {"src", "tests", "tools"}


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_with_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def unused_imports(tree):
    """The names a module imports and never reads, apart from `__future__`
    and star imports and the names its `__all__` lists."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)):
            read |= {item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_unused_imports_finds_a_name_left_behind():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, re\n"
        "from .anf import _coeffs, _packed_partial, _Value\n"
        "from .exprs import *\n"
        "__all__ = ['_Value']\n"
        "os.getcwd(_coeffs)\n"
    )
    assert unused_imports(tree) == ["_packed_partial (line 3)", "re (line 2)"]


MODULES = [path for path in FILES if path.parent in (ROOT / "src" / "zhegalkin", ROOT / "tools")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def reads_the_packed_store(tree):
    return any(isinstance(node, ast.Attribute) and node.attr == "_packed"
               for node in ast.walk(tree))


def names_the_level_masks(tree):
    # as a name, an imported name, an attribute or a definition
    return any("_level_masks" in (getattr(node, "id", None), getattr(node, "name", None),
                                  getattr(node, "attr", None)) for node in ast.walk(tree))


def test_only_anf_and_forms_read_the_packed_store():
    package = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in MODULES if path.parent == ROOT / "src" / "zhegalkin"}
    readers = [name for name, tree in package.items() if reads_the_packed_store(tree)]
    assert "anf.py" in readers
    assert [name for name in readers if name not in ("anf.py", "forms.py")] == []
    # in forms, only d's size rule reads the store
    assert [getattr(node, "name", type(node).__name__) for node in package["forms.py"].body
            if reads_the_packed_store(node)] == ["_dense"]
    # the level masks, and so the coefficient vector's layout, stay in anf
    assert [name for name, tree in package.items() if names_the_level_masks(tree)] == ["anf.py"]
