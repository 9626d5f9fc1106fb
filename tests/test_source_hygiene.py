"""Static checks on the package source.

Guards on results must raise errors, since ``python -O`` strips ``assert``
statements, and the kernels have one numpy implementation, so no module may
import numba.  Every public function and class must have a caller in the
pipeline, so that code only tests call does not collect in the library, and
every private one a reference in the package, so that a replaced path cannot
linger beside its successor.  The same holds for the public methods and
properties of public classes; a plain method counts as called only where its
name is the function of a call.  Every defaulted parameter, dataclass fields
included, must be passed by some pipeline call, so that a value no caller
varies is a module constant, and every defaulted dataclass field must be left
out by one, so that its default applies.
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


def _call_names(paths):
    """The name of the function of every call in the given files: ``f`` for
    ``f(...)``, ``obj.f(...)`` and ``Class.f(...)``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call):
                names.add(_called_name(node))
    return names


def test_public_methods_have_a_pipeline_caller():
    # a classmethod or staticmethod is called through its class, so it needs
    # a ``Class.method`` read; a property is reached through instances, so its
    # attribute name is enough; a plain method needs a call by its name, since
    # a data attribute of the same name is no caller
    callers = _pipeline_callers()
    used = _referenced_names(callers)
    used_on_class = _referenced_names(callers, qualified=True)
    called_by_name = _call_names(callers)
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
                elif decorators & {"property", "cached_property"}:
                    called = node.name in used
                else:
                    called = node.name in called_by_name
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


def _called_name(node):
    """The name a call or decorator goes by: ``f`` for ``f`` and ``m.f``."""
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id
    return getattr(target, "attr", None)


def _dataclass_defaults(cls):
    """``(field, positional slot)`` for every defaulted field of a dataclass;
    a field with ``init=False`` or a ``ClassVar`` is no parameter."""
    out = []
    slot = 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        keywords = {}
        if isinstance(value, ast.Call) and _called_name(value) == "field":
            keywords = {kw.arg: kw.value for kw in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            if not keywords.keys() & {"default", "default_factory"}:
                value = None
        if value is not None:
            out.append((stmt.target.id, slot))
        slot += 1
    return out


def _defaulted_params(path):
    """``(qualified name, callee name, parameter, positional slot, field)``
    for every defaulted parameter of a function or method in one source file,
    and for every defaulted field of a dataclass (``field`` true).  The slot
    counts positional arguments after ``self`` or ``cls`` (``None`` for a
    keyword-only parameter); ``__init__``, and with it a dataclass, is called
    through its class name."""
    out = []

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if any(_called_name(d) == "dataclass" for d in child.decorator_list):
                    for name, slot in _dataclass_defaults(child):
                        out.append((f"{path.stem}.{child.name}", child.name, name, slot, True))
                visit(child, child)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                decorators = {d.id for d in child.decorator_list if isinstance(d, ast.Name)}
                if cls is not None and "staticmethod" not in decorators:
                    positional = positional[1:]
                callee = cls.name if cls is not None and child.name == "__init__" else child.name
                qualified = f"{path.stem}.{cls.name + '.' if cls else ''}{child.name}"
                for slot, arg in enumerate(positional):
                    if slot >= len(positional) - len(a.defaults):
                        out.append((qualified, callee, arg.arg, slot, False))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.append((qualified, callee, arg.arg, None, False))
                visit(child)
            else:
                visit(child, cls)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return out


def _calls(paths):
    """Per callee name, one set per call of the keywords and positional
    slots it passes, with ``ALL`` where it unpacks ``*args`` or ``**kwargs``."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name is None:
                continue
            passed = set(range(len(node.args)))
            passed.update(kw.arg for kw in node.keywords if kw.arg)
            unpacked = any(isinstance(a, ast.Starred) for a in node.args)
            if unpacked or any(kw.arg is None for kw in node.keywords):
                passed.add("ALL")
            calls.setdefault(name, []).append(passed)
    return calls


def test_defaults_are_passed_by_a_pipeline_caller():
    # a default that no pipeline call overrides is a constant in disguise:
    # it belongs beside the module's other constants
    calls = _calls(_pipeline_callers())
    unpassed = []
    for path in SOURCES:
        for qualified, callee, param, slot, _ in _defaulted_params(path):
            seen = set().union(*calls.get(callee, []))
            if not seen & {"ALL", param, slot}:
                unpassed.append(f"{qualified}({param})")
    assert not unpassed, "defaults no pipeline call passes: " + ", ".join(unpassed)


def test_field_defaults_apply_in_a_pipeline_call():
    # a dataclass field default that every pipeline construction overrides
    # never applies; a call that unpacks its arguments may leave it out
    calls = _calls(_pipeline_callers())
    dead = []
    for path in SOURCES:
        for qualified, callee, param, slot, field in _defaulted_params(path):
            made = calls.get(callee, [])
            if field and made and all({param, slot} & c and "ALL" not in c for c in made):
                dead.append(f"{qualified}({param})")
    assert not dead, "field defaults every pipeline call overrides: " + ", ".join(dead)
