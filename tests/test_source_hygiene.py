"""Static checks on the package source.

Guards on results must raise errors, since ``python -O`` strips ``assert``
statements, and the kernels have one numpy implementation, so no module may
import numba.  Every public function and class must have a caller in the
pipeline, so that code only tests call does not collect in the library, and
every private one a reference in the package, so that a replaced path cannot
linger beside its successor.  The same holds for the public methods and
properties of public classes.
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


def _referenced_names(paths, qualified=False):
    """Every name loaded or attribute read in the given files; with
    ``qualified``, the ``Name.attribute`` reads instead."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if qualified:
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    names.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _pipeline_callers():
    # the package outside its re-exports, the benchmark, and the acceptance
    # criteria; a mention in a docstring or in __all__ is no call
    callers = [p for p in SOURCES if p.name != "__init__.py"]
    return callers + sorted((REPO / "bench").glob("*.py")) + [REPO / "tests" / "test_acceptance.py"]


def test_public_names_have_a_pipeline_caller():
    used = _referenced_names(_pipeline_callers())
    uncalled = []
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            qualified = f"{path.stem}.{node.name}"
            if node.name not in used:
                uncalled.append(f"{qualified} (line {node.lineno})")
    assert not uncalled, "public names without a pipeline caller: " + ", ".join(uncalled)


def test_public_methods_have_a_pipeline_caller():
    # a classmethod or staticmethod is called through its class, so it needs
    # a ``Class.method`` read; other methods and properties are reached
    # through instances, so their attribute name is enough
    callers = _pipeline_callers()
    used = _referenced_names(callers)
    used_on_class = _referenced_names(callers, qualified=True)
    uncalled = []
    for path in SOURCES:
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
                if decorators & {"classmethod", "staticmethod"}:
                    called = f"{cls.name}.{node.name}" in used_on_class
                else:
                    called = node.name in used
                if not called:
                    uncalled.append(f"{path.stem}.{cls.name}.{node.name} (line {node.lineno})")
    assert not uncalled, "public methods without a pipeline caller: " + ", ".join(uncalled)


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
