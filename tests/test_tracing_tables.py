"""The benchmark's traced entry points exist in the package.

``perfbench/tracing.py`` names each traced function by module and attribute
and each traced stepper method by name, and replaces them when a traced run
starts.  A renamed or deleted entry point fails there, in a benchmark run;
this reads the two tables without importing the benchmark and checks that
every entry resolves.
"""

import ast
import importlib
from pathlib import Path

import pytest

from slipflow.sim.stepper import ChannelStepper

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _table(name: str) -> tuple:
    """The literal value of the module-level assignment ``name`` in tracing.py."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{TRACING} assigns no {name}")


FUNCTIONS = _table("FUNCTIONS")
METHODS = _table("METHODS")


def test_tables_are_not_empty():
    assert FUNCTIONS and METHODS


@pytest.mark.parametrize("span,module,attr", FUNCTIONS, ids=[f"{m}.{a}" for _, m, a in FUNCTIONS])
def test_traced_function_resolves(span, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("span,method", METHODS, ids=[m for _, m in METHODS])
def test_traced_method_resolves(span, method):
    assert callable(getattr(ChannelStepper, method))
