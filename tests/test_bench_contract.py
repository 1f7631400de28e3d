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
