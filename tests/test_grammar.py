"""Every Python file of the library, its tests and the benchmark parses under
the Python 3.10 grammar, the oldest in the CI matrix, so 3.11-only syntax
such as ``except*`` fails here on a newer interpreter too. ``ast``'s
``feature_version`` is best effort: it does not reject every newer form
(a starred subscript ``x[*a]`` still parses).

This checks grammar only, not the standard library: a call to something
added after 3.10 (``tomllib``, ``datetime.UTC``) still parses.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for part in ("src/fourblocks", "tests", "perfbench")
    for path in (ROOT / part).rglob("*.py")
)


def test_files_are_found():
    assert {path.relative_to(ROOT).parts[0] for path in FILES} == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_the_python_3_10_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
