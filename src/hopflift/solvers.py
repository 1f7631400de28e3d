"""Sparse finite-difference operators and the conjugate-gradient loop
shared by the gauge and phase solvers.

Both solvers minimize a weighted least-squares functional of a block
operator A whose blocks are signed partials: grad for the lift's phase,
curl and div for the gauge.  Their normal matrices A^T W A are assembled
straight into CSR arrays from the 1-d stencil (``_normal_tables``,
``_csr_from_tables``) and their right-hand sides A^T W v are slice-wise
adjoints (``block_adjoint``); both are bit-identical to the sparse
products of the Kronecker matrices they replace, storage order included.
No solver path builds those matrices: ``partial_matrices``,
``grad_matrix``, ``curl_matrix``, ``div_matrix`` and
``boundary_normal_operator`` remain, uncached, as references for the
tests and for the benchmark tracer's lookups by name.  Because the three
partials are Kronecker products over disjoint slots they commute
exactly, which makes curl@grad and div@curl vanish identically as sparse
matrices.  ``scipy.sparse`` is imported by the builders on first use,
so importing this module costs numpy only.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import SolverDiverged
from .fields import _node_weights, _trapezoid, face_trace

#: block operators as row blocks of (column block, sign, axis) entries,
#: each standing for sign times the partial along axis; the row blocks of
#: grad and curl are vector components, div has one
GRAD = (((0, 1.0, 0),), ((0, 1.0, 1),), ((0, 1.0, 2),))
CURL = (((1, -1.0, 2), (2, 1.0, 1)),
        ((0, 1.0, 2), (2, -1.0, 0)),
        ((0, -1.0, 1), (1, 1.0, 0)))
DIV = (((0, 1.0, 0), (1, 1.0, 1), (2, 1.0, 2)),)


def _d1_rows(n, h):
    """Rows of the 1-d differentiation matrix, each a list of (column,
    coefficient): central differences inside, second-order one-sided
    rows at both ends."""
    inv2h = 0.5 / h
    rows = [[(0, -3.0 * inv2h), (1, 4.0 * inv2h), (2, -1.0 * inv2h)]]
    rows += [[(i - 1, -inv2h), (i + 1, inv2h)] for i in range(1, n - 1)]
    rows.append([(n - 1, 3.0 * inv2h), (n - 2, -4.0 * inv2h),
                 (n - 3, 1.0 * inv2h)])
    return rows


def _column_runs(n, h):
    """The 1-d matrix by columns: [lo, hi, terms] for each run of
    consecutive columns i whose entries, as (source row - i, coefficient)
    in ascending source row, are the same list ``terms``."""
    cols = [[] for _ in range(n)]
    for r, row in enumerate(_d1_rows(n, h)):
        for i, coef in row:
            cols[i].append((r - i, coef))
    runs = []
    for i, terms in enumerate(cols):
        if runs and runs[-1][2] == terms:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1, terms])
    return runs


def partial_matrices(n):
    """(P1, P2, P3): flat-index partial-derivative operators on scalars."""
    import scipy.sparse as sp
    rows, cols, data = zip(*[
        (r, col, coef) for r, row in enumerate(_d1_rows(n, 2.0 / (n - 1)))
        for col, coef in row])
    d = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    eye = sp.identity(n, format="csr")
    p1 = sp.kron(sp.kron(d, eye), eye, format="csr")
    p2 = sp.kron(sp.kron(eye, d), eye, format="csr")
    p3 = sp.kron(sp.kron(eye, eye), d, format="csr")
    return p1, p2, p3


def grad_matrix(n):
    import scipy.sparse as sp
    p1, p2, p3 = partial_matrices(n)
    return sp.vstack([p1, p2, p3], format="csr")


def curl_matrix(n):
    import scipy.sparse as sp
    p1, p2, p3 = partial_matrices(n)
    return sp.bmat([[None, -p3, p2], [p3, None, -p1], [-p2, p1, None]],
                   format="csr")


def div_matrix(n):
    import scipy.sparse as sp
    p1, p2, p3 = partial_matrices(n)
    return sp.hstack([p1, p2, p3], format="csr")


def boundary_normal_operator(n):
    """(N, wb): rows of N pick the face-normal vector component at every
    node of each cube face; wb holds the matching 2-d trapezoid area
    weights.  Edge and corner nodes contribute once per adjacent face.
    Rows and weights are ``face_trace`` of the solver's component-blocked
    flat indices, so N @ v is ``face_trace`` of v, bit for bit."""
    import scipy.sparse as sp
    flat = np.moveaxis(np.arange(3 * n ** 3).reshape(3, n, n, n), 0, -1)
    cols, wb = face_trace(flat)
    m = cols.size
    op = sp.csr_matrix((np.ones(m), (np.arange(m), cols)), shape=(m, flat.size))
    return op, wb


def block_adjoint(blocks, values):
    """A^T (W v) for the block operator ``blocks`` and an (n,n,n,k) array
    v, one component per row block; W holds the node weights on each row
    block.  Returns a (m,n,n,n) array, one (n,n,n) block per column block,
    whose ravel is the solver's component-blocked vector.

    Applies the transposed 1-d stencil along each axis with slices.  A
    node adds its terms in ascending source row of A, one row block after
    another, as ``A.T @ (w * v)`` does, so the result is the same bit for
    bit.
    """
    n = values.shape[0]
    h = 2.0 / (n - 1)
    w = _node_weights(n)
    runs = _column_runs(n, h)
    out = np.zeros((1 + max(b for row in blocks for b, _, _ in row),
                    n, n, n))
    for k, row in enumerate(blocks):
        g = w * values[..., k]
        for b, sign, axis in row:
            o = np.moveaxis(out[b], axis, 0)
            gk = np.moveaxis(g, axis, 0)
            for lo, hi, terms in runs:
                for dr, coef in terms:
                    o[lo:hi] += (sign * coef) * gk[lo + dr:hi + dr]
    return out


# ---------------------------------------------------------------------------
# normal matrices
#
# A table is a 3-d array whose axes have length n or 1, standing for its
# values times the trapezoid factor c of the node index on every axis of
# length 1.  The factors are powers of two, so moving them in or out of a
# product or a sum is exact; entries that share factors are computed once
# per line or plane instead of once per node.


def _on_axes(t, axes):
    """A 1-d or 2-d array as a table with its axes on ``axes``."""
    shape = [1, 1, 1]
    for axis, m in zip(axes, t.shape):
        shape[axis] = m
    if len(axes) == 2 and axes[0] > axes[1]:
        t = t.T
    return t.reshape(shape)


def _widen(t, shape, c):
    for axis in range(3):
        if t.shape[axis] < shape[axis]:
            t = t * _on_axes(c, (axis,))
    return t


def _add(a, b, c):
    """a + b of two tables, None standing for zero."""
    if a is None or b is None:
        return b if a is None else a
    shape = np.broadcast_shapes(a.shape, b.shape)
    return _widen(a, shape, c) + _widen(b, shape, c)


def _stencil_terms(n):
    """The 1-d and 2-d pieces of P_a^T W P_b for the partials P_a, P_b
    along axes a, b, in the arithmetic of the sparse product.

    Returns (same, cross).  For a = b, same[o] is a (k, n) array whose row
    s holds at i the s-th term (d[r,i] h^3 c_r) d[r,i+o] in ascending
    source row r, 0 past the last.  For a != b each entry has one source
    row, and cross[(oa, ob)] is the (n, n) array of its term
    (d[i+oa,i] h^3 c_(i+oa)) d[k,k+ob] c_k at (i_a, k_b) = (i, k); only
    offsets with some term are kept.
    """
    h = 2.0 / (n - 1)
    h3 = h ** 3
    c = _trapezoid(n)
    d = np.zeros((n, n))
    terms = {}
    for r, row in enumerate(_d1_rows(n, h)):
        wr = h3 * c[r]
        for i, di in row:
            d[r, i] = di
            for ip, dip in row:
                per_node = terms.setdefault(ip - i, [[] for _ in range(n)])
                per_node[i].append((di * wr) * dip)
    same = {}
    for o, per_node in terms.items():
        same[o] = np.zeros((max(map(len, per_node)), n))
        for i, ts in enumerate(per_node):
            same[o][:len(ts), i] = ts

    node = np.arange(n)
    lefts, rights = {}, {}
    for o in range(-2, 3):
        j = np.clip(node + o, 0, n - 1)
        inside = node + o == j
        lefts[o] = np.where(inside, d[j, node] * (h3 * c[j]), 0.0)
        rights[o] = np.where(inside, d[node, j], 0.0)
    cross = {}
    for oa in range(-2, 3):
        for ob in range(-2, 3):
            t = np.multiply.outer(lefts[oa], rights[ob]) * c
            if t.any():
                cross[(oa, ob)] = t
    return same, cross


def _offset(*steps):
    """The node offset with the given (axis, step) pairs, 0 elsewhere."""
    o = [0, 0, 0]
    for axis, step in steps:
        o[axis] = step
    return tuple(o)


def _normal_tables(blocks, n):
    """A^T W A for the block operator ``blocks`` as tables: the entry in
    row (b, i) and column (b2, i + o) is the value at node i of
    ``tables[(b, b2, o)]``, for o a triple of node offsets.

    Every entry is the sparse product's one running sum of
    (A[r,i] w_r) A[r,j] in ascending source row r, row block after row
    block (``_stencil_terms`` has the terms).
    """
    c = _trapezoid(n)
    same, cross = _stencil_terms(n)
    tables = {}
    for row in blocks:
        for b, s, alpha in row:
            for b2, s2, beta in row:
                if alpha == beta:
                    parts = [(_offset((alpha, o)), t, (alpha,))
                             for o, ts in same.items() for t in ts]
                else:
                    parts = [(_offset((alpha, oa), (beta, ob)), t,
                              (alpha, beta))
                             for (oa, ob), t in cross.items()]
                for o, t, axes in parts:
                    key = (b, b2, o)
                    tables[key] = _add(tables.get(key),
                                       _on_axes(s * s2 * t, axes), c)
    return tables


def _csr_from_tables(tables, n, blocks):
    """The CSR matrix (blocks * n^3 square) of ``_normal_tables``-style
    tables.  Each row holds its entries in ascending column and stores
    only those that are not exactly 0.0, as scipy's sparse products and
    sums do."""
    import scipy.sparse as sp
    n3 = n ** 3
    c = _trapezoid(n)
    counts = np.zeros((blocks, n, n, n), dtype=np.int32)
    for (b, _, _), t in tables.items():
        counts[b] += t != 0.0
    nnz = int(counts.sum(dtype=np.int64))
    idx = np.int32 if max(nnz, blocks * n3) < 2 ** 31 else np.int64
    indptr = np.zeros(blocks * n3 + 1, dtype=idx)
    np.cumsum(counts.ravel(), dtype=idx, out=indptr[1:])
    del counts
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=idx)
    node = np.arange(n3, dtype=idx).reshape(n, n, n)
    for b in range(blocks):
        pos = indptr[b * n3:(b + 1) * n3].astype(np.int64).reshape(n, n, n)
        for key in sorted(k for k in tables if k[0] == b):
            _, b2, o = key
            t = tables[key]
            axes = [a for a in range(3) if t.shape[a] > 1]
            tt = t.reshape((n,) * len(axes))
            sel = tt != 0.0
            if sel.all():
                sel = Ellipsis  # views instead of index arrays
            vals = tt[sel]
            if len(axes) < 3:
                factor = c if len(axes) == 2 else np.multiply.outer(c, c)
                vals = vals.reshape((-1,) + (1,) * factor.ndim) * factor
            p_view = np.moveaxis(pos, axes, range(len(axes)))
            p = p_view[sel]
            data[p] = vals
            indices[p] = (np.moveaxis(node, axes, range(len(axes)))[sel]
                          + (b2 * n3 + (o[0] * n + o[1]) * n + o[2]))
            p_view[sel] += 1
    return sp.csr_matrix((data, indices, indptr), shape=(blocks * n3,) * 2)


def phase_normal_matrix(n):
    """G^T W G as CSR, with G = grad_matrix(n) and W the node weights on
    each of its three blocks; bit-identical to
    ``(G.T @ diags(w3) @ G).tocsr()``, storage order included."""
    return _csr_from_tables(_normal_tables(GRAD, n), n, 1)


def gauge_normal_matrix(n):
    """The gauge functional's normal matrix C^T W C + D^T w D +
    (10/h) N^T wb N as CSR, with C = curl_matrix(n), D = div_matrix(n),
    (N, wb) = boundary_normal_operator(n) and W, w the node weights.

    Bit-identical to the sum of the three sparse products, storage order
    included: 10/h scales the finished product, and each sum drops the
    entries that cancel to exactly 0.0, as the mixed-component terms of
    C^T W C and D^T w D do inside the cube.  N^T wb N is diagonal: the
    face area weight at every face node of the face-normal component.
    """
    h = 2.0 / (n - 1)
    c = _trapezoid(n)
    curl_t = _normal_tables(CURL, n)
    div_t = _normal_tables(DIV, n)
    tables = {key: _add(curl_t.get(key), div_t.get(key), c)
              for key in curl_t.keys() | div_t.keys()}
    del curl_t, div_t
    face = np.zeros(n)
    face[0] = face[-1] = (10.0 / h) * (h * h)
    for b in range(3):
        key = (b, b, (0, 0, 0))
        tables[key] = _add(tables[key], _on_axes(face, (b,)), c)
    return _csr_from_tables(tables, n, 3)


#: entries per partial sum; every dot product adds the chunk sums in
#: chunk order, so its bits do not depend on how chunks map to threads
CHUNK = 1 << 15


def max_workers():
    """Worker cap for the sweep and for CG: HOPFLIFT_THREADS, default all
    cores."""
    env = os.environ.get("HOPFLIFT_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(tasks):
    """Threads for `tasks` independent tasks: one per task at most, capped
    by HOPFLIFT_THREADS and the usable CPUs; at least one."""
    return max(1, min(max_workers(), _usable_cpus(), tasks))


def cg_workers(rows):
    """Threads for one CG solve on `rows` unknowns: ``worker_count`` of
    its chunks; one off the main thread, where the caller's own pool
    already fills the cores."""
    if threading.current_thread() is not threading.main_thread():
        return 1
    return worker_count(-(-rows // CHUNK))


def block_matvec(mat, p, out, a, e):
    """out[a:e] = (mat @ p)[a:e], by the routine and in the order that
    ``mat @ p`` uses, so the bits match; the GIL is released meanwhile.

    A public row slice ``mat[a:e]`` would not do: scipy copies any index
    or data slice smaller than half its base array, tens of MB per call
    on the gauge matrix.
    """
    from scipy.sparse import _sparsetools
    out[a:e] = 0.0
    _sparsetools.csr_matvec(e - a, mat.shape[1], mat.indptr[a:e + 1],
                            mat.indices, mat.data, p, out[a:e])


def _dot(u, v, part):
    """u.v as the sum, in chunk order, of einsum over chunks of CHUNK
    entries; einsum is numpy's own loop, so BLAS threads have no say."""
    for k, lo in enumerate(range(0, u.size, CHUNK)):
        part[k] = np.einsum("i,i->", u[lo:lo + CHUNK], v[lo:lo + CHUNK])
    return float(np.sum(part))


def conjugate_gradient(mat, b, rel_tol, max_iters):
    """Plain CG on a symmetric positive semi-definite CSR matrix.

    Starts from zero and stops when the residual (the functional's
    gradient, up to a factor 2) drops below rel_tol times its initial
    norm.  Returns (x, iterations, achieved_rel, converged).  Raises
    SolverDiverged before the first step when the right-hand side norm
    is not finite, and after 10 consecutive steps in which the quadratic
    functional fails to decrease, which for CG can only come from a
    non-positive curvature direction or numerical breakdown.

    Every dot product is the sum, in chunk order, of einsum over fixed
    chunks of CHUNK entries, so the result is bit-identical for any
    HOPFLIFT_THREADS and OPENBLAS_NUM_THREADS.  The chunks are split
    into contiguous blocks, one per worker (``cg_workers``; one when
    called off the main thread); the calling thread runs block 0 and a
    pool made for this solve runs the others.
    """
    rows = b.size
    x = np.zeros_like(b)
    r = b.copy()
    chunks = [(lo, min(lo + CHUNK, rows)) for lo in range(0, rows, CHUNK)]
    part = np.empty(len(chunks))
    norm0 = float(np.sqrt(_dot(r, r, part)))
    if not np.isfinite(norm0):
        raise SolverDiverged(
            "right-hand side norm is not finite; the data overflow the "
            "solver's arithmetic")
    if norm0 == 0.0:
        return x, 0, 0.0, True
    p = r.copy()
    mp = np.empty_like(b)
    workers = cg_workers(rows)
    edges = [w * len(chunks) // workers for w in range(workers + 1)]
    scratch = np.empty((workers, min(rows, CHUNK)))

    # one step per barrier; each works chunk by chunk on its block, so a
    # chunk is still in cache for the ops after the first
    def curvature_step(w):
        for k in range(edges[w], edges[w + 1]):
            lo, hi = chunks[k]
            block_matvec(mat, p, mp, lo, hi)
            part[k] = np.einsum("i,i->", p[lo:hi], mp[lo:hi])

    def update_step(w, alpha):
        for k in range(edges[w], edges[w + 1]):
            lo, hi = chunks[k]
            t, xk, rk = scratch[w, :hi - lo], x[lo:hi], r[lo:hi]
            xk += np.multiply(p[lo:hi], alpha, out=t)
            rk -= np.multiply(mp[lo:hi], alpha, out=t)
            part[k] = np.einsum("i,i->", rk, rk)

    def direction_step(w, beta):
        for k in range(edges[w], edges[w + 1]):
            lo, hi = chunks[k]
            pk = p[lo:hi]
            pk *= beta
            pk += r[lo:hi]

    pool = ThreadPoolExecutor(workers - 1) if workers > 1 else None

    def each_block(step, *args):
        futures = [pool.submit(step, w, *args) for w in range(1, workers)]
        try:
            step(0, *args)
        finally:
            for f in futures:
                f.result()

    try:
        rs = norm0 * norm0
        bad_steps = 0
        iters = 0
        while iters < max_iters:
            if np.sqrt(rs) <= rel_tol * norm0:
                return x, iters, float(np.sqrt(rs) / norm0), True
            each_block(curvature_step)
            curvature = float(np.sum(part))
            # the functional change per step is -alpha*rs/2, negative iff
            # curvature is positive
            if not np.isfinite(curvature) or curvature <= 0.0:
                bad_steps += 1
                if bad_steps >= 10:
                    raise SolverDiverged(
                        "quadratic functional increased for 10 consecutive "
                        "iterations")
                # restart the search direction from the gradient
                p[:] = r
                rs = _dot(r, r, part)
                iters += 1
                continue
            bad_steps = 0
            each_block(update_step, rs / curvature)
            rs_new = float(np.sum(part))
            each_block(direction_step, rs_new / rs)
            rs = rs_new
            iters += 1
        return x, iters, float(np.sqrt(rs) / norm0), False
    finally:
        if pool is not None:
            pool.shutdown()
