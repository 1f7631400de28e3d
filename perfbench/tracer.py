"""Span recording around hopflift's module-level functions, and the
per-layer metrics computed from the spans of one pass.

The wrappers live here, not in the program: ``install`` replaces every
binding of a traced function in the loaded ``hopflift`` modules (the
``from .fields import curl`` copies included), so each call site looks
up the wrapper.  Spans are kept in memory; the caller writes them out.
"""

import functools
import itertools
import os
import sys
import threading
import time

#: traced functions, "<module>.<function>"; the module is the layer
TRACED = (
    "solvers.conjugate_gradient", "solvers.partial_matrices",
    "solvers.grad_matrix", "solvers.curl_matrix", "solvers.div_matrix",
    "solvers.boundary_normal_operator",
    "hodge.canonical_gauge",
    "lift.lift", "lift.verify_lift",
    "approx.approximate", "approx.convergence_sweep",
    "fields.component_partials", "fields.grad", "fields.curl", "fields.div",
    "fields.mollify", "fields.mollify_components",
    "hopf.gauge_of_lift", "hopf.section_of_map", "hopf.stereo_section",
    "pullback.pullback_area_form", "pullback.exactness_defect",
    "pullback.pointwise_identities", "pullback.sphere_flux",
    "fileio.read_h3f", "fileio.write_h3f",
)

ASSEMBLY = ("solvers.partial_matrices", "solvers.grad_matrix",
            "solvers.curl_matrix", "solvers.div_matrix",
            "solvers.boundary_normal_operator")
STENCILS = ("fields.component_partials", "fields.grad", "fields.curl",
            "fields.div")
CG = ("solvers.conjugate_gradient",)

#: CG vector traffic per iteration, in vector lengths: p.mp (2),
#: x += a p (3), r -= a mp (3), r.r (1), p = r + b p (3)
_CG_VECTOR_PASSES = 12


def cg_bytes_per_iter(mat):
    """Computed (not measured) bytes one CG iteration touches: the CSR
    arrays once, the matvec input and output, and the vector updates."""
    rows, cols = mat.shape
    idx = mat.indices.itemsize
    return (mat.nnz * (mat.data.itemsize + idx) + (rows + 1) * idx
            + 8 * (cols + rows) + 8 * _CG_VECTOR_PASSES * rows)


def cg_extras(args, kwargs, result):
    mat = args[0]
    return {"iters": int(result[1]), "unknowns": int(mat.shape[0]),
            "nnz": int(mat.nnz), "bytes_per_iter": cg_bytes_per_iter(mat)}


def _file_bytes(args, kwargs, result):
    path = args[0]
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


_EXTRAS = {
    "solvers.conjugate_gradient": cg_extras,
    "fileio.read_h3f": _file_bytes,
    "fileio.write_h3f": _file_bytes,
}


class Tracer:
    """Records spans while ``pass_id`` is set; calls outside a pass (input
    generation, warm-up) run the original function with no span.

    A span opened on a worker thread with nothing open on that thread
    takes the innermost span of the thread that began the pass as its
    parent: the sweep's pool threads run under convergence_sweep.
    """

    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = None
        self._lock = threading.Lock()

    def begin_pass(self, pass_id):
        self._main = threading.get_ident()
        self.pass_id = pass_id

    def end_pass(self):
        self.pass_id = None

    def _stack(self):
        return self._stacks.setdefault(threading.get_ident(), [])

    def wrap(self, name, fn):
        extras = _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pass_id = self.pass_id
            if pass_id is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            main = self._stacks.get(self._main) or [None]
            span = {"id": next(self._ids), "name": name, "pass": pass_id,
                    "parent": stack[-1] if stack else main[-1],
                    "start": time.perf_counter()}
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
                if extras is not None:
                    span.update(extras(args, kwargs, result))
                return result
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span["end"] = time.perf_counter()
                with self._lock:
                    self.spans.append(span)

        return traced


def install(tracer):
    """Wrap every function in TRACED, in every binding that refers to it."""
    import hopflift  # noqa: F401  (loads every submodule)
    mods = [m for k, m in sys.modules.items()
            if k == "hopflift" or k.startswith("hopflift.")]
    for qual in TRACED:
        modname, fname = qual.split(".")
        home = sys.modules[f"hopflift.{modname}"]
        orig = getattr(home, fname)
        wrapped = tracer.wrap(qual, orig)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics


class _Spans:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}

    def _ancestors(self, span):
        pid = span["parent"]
        while pid is not None and pid in self.by_id:
            yield self.by_id[pid]
            pid = self.by_id[pid]["parent"]

    def outermost(self, names):
        """Spans named in ``names`` with no ancestor also named there."""
        return [s for s in self.spans if s["name"] in names
                and not any(a["name"] in names for a in self._ancestors(s))]

    def busy(self, names):
        return sum(s["end"] - s["start"] for s in self.outermost(names))

    def count(self, names):
        return len(self.outermost(names))

    def self_time(self, names, excluded):
        """Time in ``names`` spans minus the part their ``excluded``
        descendants cover (descendants on two threads may overlap)."""
        total = 0.0
        for outer in self.outermost(names):
            inner = sorted(
                (s["start"], s["end"]) for s in self.spans
                if s["name"] in excluded
                and any(a is outer for a in self._ancestors(s)))
            covered, reach = 0.0, outer["start"]
            for start, end in inner:
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            total += outer["end"] - outer["start"] - covered
        return total


def raw_layer_totals(spans):
    """Additive totals of one process's spans for one pass."""
    sp = _Spans(spans)
    cg = sp.outermost(CG)
    files = {k: sp.outermost((f"fileio.{k}_h3f",)) for k in ("read", "write")}
    return {
        "solvers.cg_iters": sum(s.get("iters", 0) for s in cg),
        "solvers.cg_solves": len(cg),
        "solvers.cg_s": sp.busy(CG),
        "solvers.cg_unknowns": max(
            (s.get("unknowns", 0) for s in cg), default=0),
        "solvers.cg_nnz": max((s.get("nnz", 0) for s in cg), default=0),
        "solvers.cg_bytes_per_iter": max(
            (s.get("bytes_per_iter", 0) for s in cg), default=0),
        "solvers.assembly_s": sp.busy(ASSEMBLY),
        "hodge.gauge_s": sp.busy(("hodge.canonical_gauge",)),
        "hodge.self_s": sp.self_time(("hodge.canonical_gauge",), CG),
        "lift.calls": sp.count(("lift.lift",)),
        "lift.lift_s": sp.busy(("lift.lift",)),
        "lift.self_s": sp.self_time(("lift.lift",), CG),
        "lift.verify_s": sp.busy(("lift.verify_lift",)),
        "approx.approximate_calls": sp.count(("approx.approximate",)),
        "approx.approximate_s": sp.busy(("approx.approximate",)),
        "approx.self_s": sp.self_time(("approx.approximate",), ("lift.lift",)),
        "approx.sweep_s": sp.busy(("approx.convergence_sweep",)),
        "fields.mollify_s": sp.busy(("fields.mollify",
                                     "fields.mollify_components")),
        "fields.stencil_calls": sp.count(STENCILS),
        "fields.stencil_s": sp.busy(STENCILS),
        "hopf.gauge_of_lift_calls": sp.count(("hopf.gauge_of_lift",)),
        "hopf.gauge_of_lift_s": sp.busy(("hopf.gauge_of_lift",)),
        "hopf.section_s": sp.busy(("hopf.section_of_map",
                                   "hopf.stereo_section")),
        "pullback.area_form_s": sp.busy(("pullback.pullback_area_form",)),
        "pullback.exactness_s": sp.busy(("pullback.exactness_defect",)),
        "pullback.identities_s": sp.busy(("pullback.pointwise_identities",)),
        "pullback.flux_s": sp.busy(("pullback.sphere_flux",)),
        "fileio.read_s": sum(s["end"] - s["start"] for s in files["read"]),
        "fileio.write_s": sum(s["end"] - s["start"] for s in files["write"]),
        "fileio.bytes": sum(s.get("bytes", 0)
                            for k in files for s in files[k]),
    }


#: totals combined across the processes of one pass by max, not sum
_MAXED = ("solvers.cg_unknowns", "solvers.cg_nnz",
          "solvers.cg_bytes_per_iter")


def combine(totals):
    """Merge raw_layer_totals of several processes of one pass."""
    out = {}
    for t in totals:
        for k, v in t.items():
            old = out.get(k, 0)
            out[k] = max(old, v) if k in _MAXED else old + v
    iters = out.get("solvers.cg_iters", 0)
    out["solvers.cg_ms_per_iter"] = (
        1000.0 * out["solvers.cg_s"] / iters if iters else 0.0)
    return out
