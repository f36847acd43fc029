"""The package supports Python 3.10 (pyproject.toml), and the suite may run
on a later interpreter only: every source, test and tool file must parse
with the 3.10 grammar.  This catches syntax new in 3.11 or later, not
library calls that 3.10 lacks.

No package or tool module imports a name it never reads, so a helper that
is deleted cannot leave its import behind.

Only `anf` knows how a polynomial is stored: no other package module reads
its `_terms` slot or its `_packed` vector, and no other package module
names `_level_masks`, the coefficient vector's layout.  No class in the
package defines an attribute hook (`__getattr__` or `__getattribute__`),
so CPython 3.11 can specialize attribute reads on every value."""

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


def reads_the_store(tree, slot="_packed"):
    return any(isinstance(node, ast.Attribute) and node.attr == slot
               for node in ast.walk(tree))


def attribute_hooks(tree):
    # each `__getattr__` or `__getattribute__` that a class body defines by
    # a def or an assignment
    return [f"{cls.name}.{name}"
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            for name in (getattr(node, "name", None),
                         *(getattr(target, "id", None) for target in getattr(node, "targets", ())))
            if name in ("__getattr__", "__getattribute__")]


def test_attribute_hooks_finds_each_kind_of_definition():
    tree = ast.parse(
        "class A:\n    def __getattr__(self, name): pass\n"
        "class B:\n    __getattribute__ = object.__getattribute__\n"
        "class C:\n    def get(self): pass\n"
        "def __getattr__(name): pass\n"
    )
    assert attribute_hooks(tree) == ["A.__getattr__", "B.__getattribute__"]


def names_the_level_masks(tree):
    # as a name, an imported name, an attribute or a definition
    return any("_level_masks" in (getattr(node, "id", None), getattr(node, "name", None),
                                  getattr(node, "attr", None)) for node in ast.walk(tree))


def test_only_anf_reads_the_packed_store():
    package = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in MODULES if path.parent == ROOT / "src" / "zhegalkin"}
    # both slots are read in anf alone: elsewhere through `.terms`, `len`
    # and anf's readers
    for slot in ("_packed", "_terms"):
        assert [name for name, tree in package.items() if reads_the_store(tree, slot)] == [
            "anf.py"], slot
    # no attribute hook, so no value's attribute reads fall back to the generic path
    assert [hook for tree in package.values() for hook in attribute_hooks(tree)] == []
    # the level masks, and so the coefficient vector's layout, stay in anf
    assert [name for name, tree in package.items() if names_the_level_masks(tree)] == ["anf.py"]
