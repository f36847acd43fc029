"""The package supports Python 3.10 (pyproject.toml), and the suite may run
on a later interpreter only: every source, test and tool file must parse
with the 3.10 grammar.  This catches syntax new in 3.11 or later, not
library calls that 3.10 lacks."""

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
