"""The benchmark tracer (``bench/spans.py``) wraps pipeline functions by
replacing module globals and its count hooks read the wrapped calls'
arguments by parameter name.  These checks read its ``PATCHES`` table, so a
refactor that drops or renames a wrapped function or one of those parameters
fails here rather than in a traced benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import pytest

SPANS = Path(__file__).parent.parent / "bench" / "spans.py"


def _load_patches():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module.PATCHES


def _bound_names(hook):
    """The parameter names a count hook reads as ``args["name"]``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(hook)))
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    }


PATCHES = _load_patches()


@pytest.mark.parametrize(
    "module_name, attr, hook",
    [(m, a, hook) for m, a, _, hook in PATCHES],
    ids=[f"{m}.{a}" for m, a, _, _ in PATCHES],
)
def test_traced_name_resolves_with_bound_parameters(module_name, attr, hook):
    target = getattr(importlib.import_module(module_name), attr, None)
    assert callable(target), f"{module_name}.{attr} is not a callable global"
    if hook is not None:
        params = set(inspect.signature(target).parameters)
        missing = _bound_names(hook) - params
        assert not missing, f"{module_name}.{attr} lacks parameters {sorted(missing)}"


def test_hooks_bind_parameters():
    # the name scan above must see the hooks' reads, or it checks nothing
    bound = set().union(*(_bound_names(hook) for *_, hook in PATCHES if hook is not None))
    assert {"pair", "U", "X", "matching", "tensor_a", "tensor_b"} <= bound
