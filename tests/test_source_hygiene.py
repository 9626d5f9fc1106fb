"""Static checks on the package source.

Guards on results must raise errors, since ``python -O`` strips ``assert``
statements, and the kernels have one numpy implementation, so no module may
import numba.  Every public function and class must have a caller in the
pipeline, so that code only tests call does not collect in the library, and
every private one a reference in the package, so that a replaced path cannot
linger beside its successor.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
SOURCES = sorted((REPO / "src" / "tenalign").glob("*.py"))


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


def _referenced_names(paths):
    """Every name loaded or attribute read in the given files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_public_names_have_a_pipeline_caller():
    # callers: the package outside its re-exports, the benchmark, and the
    # acceptance criteria; a mention in a docstring or in __all__ is no call
    callers = [p for p in SOURCES if p.name != "__init__.py"]
    callers += sorted((REPO / "bench").glob("*.py")) + [REPO / "tests" / "test_acceptance.py"]
    used = _referenced_names(callers)
    uncalled = []
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            qualified = f"{path.stem}.{node.name}"
            if node.name not in used:
                uncalled.append(f"{qualified} (line {node.lineno})")
    assert not uncalled, "public names without a pipeline caller: " + ", ".join(uncalled)


def test_private_names_are_referenced_in_the_package():
    used = _referenced_names(SOURCES)
    unreferenced = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") and not name.endswith("__") and name not in used:
                unreferenced.append(f"{path.stem}.{name} (line {node.lineno})")
    assert not unreferenced, "private names never referenced: " + ", ".join(unreferenced)
