"""The names the benchmark tracer wraps must exist in the package.

``benchmarks/tracer.py`` looks up each function of ``LAYERS`` in its
``lipem.<layer>`` module and each ``MODEL_METHODS`` entry on both
likelihood classes; a rename would otherwise only break a traced
benchmark run.  The file is read as text, not imported.
"""

import ast
import importlib
from pathlib import Path

from lipem.likelihood import GaussianMeanModel, SplineGlmModel

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def tracer_constant(name):
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


def test_every_traced_function_exists_in_its_layer():
    missing = [
        f"lipem.{layer}.{fname}"
        for layer, functions in tracer_constant("LAYERS").items()
        for fname in functions
        if not callable(getattr(importlib.import_module(f"lipem.{layer}"), fname, None))
    ]
    assert missing == []


def test_every_traced_method_is_defined_on_both_families():
    for cls in (GaussianMeanModel, SplineGlmModel):
        for method in tracer_constant("MODEL_METHODS"):
            assert method in cls.__dict__, f"{cls.__name__}.{method}"
