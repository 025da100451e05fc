"""Every Python file of the package, its tests and the benchmark parses as
Python 3.10, the oldest version ``pyproject.toml`` admits.

This checks grammar only (``ast.parse`` with ``feature_version``): a call to
a standard-library API that 3.10 lacks still passes here, and only a run on
3.10 finds it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
SOURCES = sorted(p for folder in ("src", "tests", "perfbench") for p in (ROOT / folder).rglob("*.py"))


def test_every_tree_has_sources():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_newer_grammar_is_refused():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # exception groups, 3.11
    ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=OLDEST)
