"""The benchmark tracer wraps hopflift functions by name; a name it lists
that the library no longer has would crash every traced run."""

import ast
import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "perfbench", "tracer.py")


def traced_names():
    """The TRACED tuple of perfbench/tracer.py, read from its source
    without importing it."""
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


@pytest.mark.skipif(not os.path.exists(TRACER),
                    reason="perfbench/ is absent")
def test_every_traced_name_resolves():
    import hopflift  # noqa: F401  (loads every submodule)
    names = traced_names()
    assert names
    for qual in names:
        modname, fname = qual.split(".")
        mod = importlib.import_module(f"hopflift.{modname}")
        assert callable(getattr(mod, fname, None)), qual
