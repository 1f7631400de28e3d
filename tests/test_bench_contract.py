"""The benchmark reaches hopflift by name: the tracer wraps the functions
it lists, and the worker and its inputs call the library through
``hl.<name>`` and ``from hopflift... import`` names.  A name that the
library no longer has would crash every benchmark run."""

import ast
import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "perfbench")
TRACER = os.path.join(PERFBENCH, "tracer.py")


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


def library_references(path):
    """(module, [attribute, ...]) for every attribute chain of ``path``
    rooted at ``hl`` (the worker's name for the package), for every name
    taken in by ``from hopflift... import``, and for the chains rooted at
    those names."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    roots = {"hl": ("hopflift", [])}
    refs = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "hopflift"):
            for alias in node.names:
                roots[alias.asname or alias.name] = (node.module, [alias.name])
                refs.append((node.module, [alias.name]))
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in roots:
            module, head = roots[node.id]
            refs.append((module, head + attrs))
    return refs


@pytest.mark.skipif(not os.path.isdir(PERFBENCH),
                    reason="perfbench/ is absent")
@pytest.mark.parametrize("script", ["worker.py", "inputs.py"])
def test_benchmark_library_calls_resolve(script):
    import hopflift  # noqa: F401  (loads every submodule)
    refs = library_references(os.path.join(PERFBENCH, script))
    assert refs
    for module, attrs in refs:
        obj = importlib.import_module(module)
        for name in attrs:
            assert hasattr(obj, name), ".".join([module] + attrs)
            obj = getattr(obj, name)


def test_cg_receives_csr(monkeypatch):
    # the benchmark's CG probe (worker._matrix_sizes) and span extras
    # (tracer.cg_extras) read the CSR arrays of every matrix handed to
    # conjugate_gradient; a solve on another operator form must change
    # the benchmark with it
    import scipy.sparse as sp
    from hopflift import solvers, testmaps
    from hopflift.fields import make_grid
    from hopflift.hodge import canonical_gauge
    from hopflift.lift import lift
    from hopflift.pullback import pullback_area_form
    seen = []
    orig = solvers.conjugate_gradient

    def probe(mat, *args):
        seen.append(mat)
        return orig(mat, *args)

    monkeypatch.setattr(solvers, "conjugate_gradient", probe)
    grid = make_grid(9)
    _, u, eta = testmaps.gen_lift_family(grid, 0.8, (1.0, 0.5, 0.0),
                                         (0.0, 1.0, 0.3))
    lift(u, eta)
    canonical_gauge(pullback_area_form(
        testmaps.gen_planar(grid, "gaussian-bump")))
    assert [m.shape[0] for m in seen] == [9 ** 3, 3 * 9 ** 3]
    for mat in seen:
        assert sp.issparse(mat) and mat.format == "csr"
        assert mat.data.size == mat.indices.size == mat.nnz
        assert mat.indptr.size == mat.shape[0] + 1
