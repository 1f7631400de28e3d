"""The benchmark reaches hopflift by name: the tracer wraps the functions
it lists, and the worker and its inputs call the library through
``hl.<name>`` and ``from hopflift... import`` names.  A name that the
library no longer has would crash every benchmark run.  The benchmark's
own tests also pin how often one sweep pass calls the lift, the smoother
and CG; a library change that moves those counts fails them."""

import ast
import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "perfbench")
TRACER = os.path.join(PERFBENCH, "tracer.py")
BENCH_TESTS = os.path.join(PERFBENCH, "test_perfbench.py")


def module_constant(path, name):
    """The literal assigned to ``name`` at the top level of ``path``, read
    from its source without importing it."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} defines no {name}")


def traced_names():
    """The TRACED tuple of perfbench/tracer.py."""
    return module_constant(TRACER, "TRACED")


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
    those names.  After ``import hopflift.<module>``, a chain
    ``hopflift.<module>.<name>`` resolves in that module, imported first."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    roots = {"hl": ("hopflift", [])}
    submodules = set()
    refs = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "hopflift"):
            for alias in node.names:
                roots[alias.asname or alias.name] = (node.module, [alias.name])
                refs.append((node.module, [alias.name]))
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hopflift.") and not alias.asname:
                    roots["hopflift"] = ("hopflift", [])
                    submodules.add(alias.name)
                    refs.append((alias.name, []))
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in roots:
            module, chain = roots[node.id]
            chain = chain + attrs
            while chain and f"{module}.{chain[0]}" in submodules:
                module, chain = f"{module}.{chain[0]}", chain[1:]
            refs.append((module, chain))
    return refs


@pytest.mark.skipif(not os.path.isdir(PERFBENCH),
                    reason="perfbench/ is absent")
@pytest.mark.parametrize("script", ["worker.py", "inputs.py", "launch.py"])
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
    # conjugate_gradient: the shell of a normal matrix, its stencil
    # passed after it positionally, as this probe forwards no keywords;
    # a solve on another operator form must change the benchmark with it
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


def count_calls(monkeypatch, qual):
    """A list that grows by one per call of ``hopflift.<qual>``, counted
    through every module binding of the function, as the tracer wraps it."""
    import sys
    modname, fname = qual.split(".")
    orig = getattr(importlib.import_module(f"hopflift.{modname}"), fname)
    calls = []

    def counted(*args, **kwargs):
        calls.append(qual)
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "hopflift" or name.startswith("hopflift."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


#: the per-layer counters of the sweep workload's smoke pins, by function
SWEEP_COUNTERS = {"lift.calls": "lift.lift",
                  "solvers.cg_solves": "solvers.conjugate_gradient",
                  "approx.approximate_calls": "approx.approximate"}


@pytest.mark.skipif(not os.path.exists(BENCH_TESTS),
                    reason="perfbench/ is absent")
def test_sweep_pass_call_counts_match_benchmark_pins(monkeypatch):
    # one lift plus a 3-width sweep through the package names, as a
    # lift-sweep-n65 pass runs them, at n = 17 with widths whose windows
    # fit the cube
    import hopflift as hl
    pins = module_constant(BENCH_TESTS, "SMOKE_LAYERS")["lift-sweep-n65"]
    assert set(pins) == set(SWEEP_COUNTERS)
    calls = {key: count_calls(monkeypatch, qual)
             for key, qual in SWEEP_COUNTERS.items()}
    grid = hl.make_grid(17)
    _, u, eta = hl.testmaps.gen_lift_family(grid, 0.8, (1.0, 0.0, 0.0),
                                            (0.0, 1.0, 0.0))
    hl.lift(u, eta)
    hl.convergence_sweep(u, eta, [2 * grid.h, 1.5 * grid.h, grid.h])
    assert {key: len(c) for key, c in calls.items()} == pins


def test_lift_builds_both_sections_through_section_of_map(monkeypatch):
    # the tracer's hopf.section_s wraps section_of_map and stereo_section:
    # the lift's first section, whose gauge it measures, and the section
    # it rebuilds turned by the phase both go through those names
    from hopflift import testmaps
    from hopflift.fields import make_grid
    from hopflift.lift import lift
    calls = {qual: count_calls(monkeypatch, qual)
             for qual in ("hopf.section_of_map", "hopf.stereo_section")}
    grid = make_grid(9)
    _, u, eta = testmaps.gen_lift_family(grid, 0.8, (1.0, 0.5, 0.0),
                                         (0.0, 1.0, 0.3))
    lift(u, eta)
    assert {qual: len(c) for qual, c in calls.items()} == {
        "hopf.section_of_map": 2, "hopf.stereo_section": 2}
