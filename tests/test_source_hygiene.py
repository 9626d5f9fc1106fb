"""Static checks on the package source.

Guards on results must raise errors, since ``python -O`` strips ``assert``
statements, and the kernels have one numpy implementation, so no module may
import numba.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "tenalign").glob("*.py"))


def _imported_roots(node):
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_numba(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            problems.append(f"{path.name}:{node.lineno}: assert statement")
        if "numba" in _imported_roots(node):
            problems.append(f"{path.name}:{node.lineno}: numba import")
    assert not problems, "\n".join(problems)
