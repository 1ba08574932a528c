"""The package's source and its tests must parse under the oldest Python
the package supports."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
SOURCES = sorted((TESTS.parent / "src" / "eqfrio").glob("*.py"))
TEST_SOURCES = sorted(TESTS.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10
    assert TESTS / "test_grammar.py" in TEST_SOURCES


@pytest.mark.parametrize("path", SOURCES + TEST_SOURCES, ids=lambda p: p.name)
def test_source_parses_with_python_3_10_grammar(path):
    """`requires-python` promises 3.10.  Parsing with
    `feature_version=(3, 10)` rejects grammar added after 3.10, such as
    `except*`, even when the running interpreter is newer.  It checks
    grammar only: library APIs newer than 3.10 (such as `tomllib` or
    `datetime.UTC`) parse fine and are not caught."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
