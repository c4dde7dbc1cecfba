"""The error contract: ``NcprobError`` is the library's one refusal type,
``NoConvergence`` and ``HullCollision`` its two outcome subclasses."""

import ast
import importlib
import inspect
import pathlib

import pytest

import ncprob

SRC = pathlib.Path(ncprob.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
RAISABLE = {"NcprobError", "NoConvergence", "HullCollision"}
# besides RAISABLE: argparse's refusal of a flag value
ALSO_RAISABLE = {"cli": {"argparse.ArgumentTypeError"}}


def raises(module):
    """(line, what) for every ``raise`` in ``module``'s source: the called
    name for ``raise Name(...)``, None for a bare re-raise, else the
    raised expression."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc
            what = (None if exc is None
                    else ast.unparse(exc.func) if isinstance(exc, ast.Call)
                    else ast.unparse(exc))
            yield node.lineno, what


def load(module):
    return importlib.import_module(
        "ncprob" if module == "__init__" else f"ncprob.{module}")


@pytest.mark.parametrize("module", MODULES)
def test_every_raise_names_a_library_class(module):
    allowed = RAISABLE | ALSO_RAISABLE.get(module, set()) | {None}
    bad = [(line, what) for line, what in raises(module)
           if what not in allowed]
    assert bad == []


def test_three_exception_classes():
    defined = {}
    for module in MODULES:
        mod = load(module)
        for name, obj in vars(mod).items():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == mod.__name__):
                defined[name] = obj
    assert set(defined) == RAISABLE
    assert defined["NcprobError"].__bases__ == (ValueError,)
    assert defined["NoConvergence"].__bases__ == (defined["NcprobError"],)
    assert defined["HullCollision"].__bases__ == (defined["NcprobError"],)
    for name in RAISABLE:
        assert getattr(ncprob, name) is defined[name]


DELETED = ("MeasureError", "TransformError", "NormalizationError",
           "MassError", "NotHerglotz", "AtomCollision", "TruncationError",
           "LoewnerError", "StepUnderflow", "DomainEscape", "BoundError",
           "GraphError", "MarkovError", "NotIrreducible", "NotConverged",
           "EnumerationTooLarge", "CapExceeded", "RandMatError")


@pytest.mark.parametrize("module", MODULES)
def test_no_alias_keeps_a_deleted_name(module):
    assert [name for name in DELETED if hasattr(load(module), name)] == []
