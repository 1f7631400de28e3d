"""Sparse finite-difference operators and the conjugate-gradient loop
shared by the gauge and phase solvers.

The 1-d differentiation matrix reproduces the grad/curl/div stencils to
rounding.  Because the three partials are Kronecker products over
disjoint slots they commute exactly, which makes curl@grad and div@curl
vanish identically as sparse matrices.  The phase solve of the lift uses
no Kronecker factors: its normal matrix is assembled straight into CSR
arrays from the 1-d stencil and its right-hand side is a slice-wise
adjoint, both bit-identical to the sparse products they replace.
``scipy.sparse`` is imported by the builders on first use, so importing
this module costs numpy only.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from .errors import SolverDiverged
from .fields import _node_weights


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


@lru_cache(maxsize=8)
def _d1(n, h):
    import scipy.sparse as sp
    entries = [(r, col, coef) for r, row in enumerate(_d1_rows(n, h))
               for col, coef in row]
    rows, cols, data = zip(*entries)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


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


@lru_cache(maxsize=8)
def partial_matrices(n):
    """(P1, P2, P3): flat-index partial-derivative operators on scalars."""
    import scipy.sparse as sp
    h = 2.0 / (n - 1)
    d = _d1(n, h)
    eye = sp.identity(n, format="csr")
    p1 = sp.kron(sp.kron(d, eye), eye, format="csr")
    p2 = sp.kron(sp.kron(eye, d), eye, format="csr")
    p3 = sp.kron(sp.kron(eye, eye), d, format="csr")
    return p1, p2, p3


@lru_cache(maxsize=8)
def grad_matrix(n):
    import scipy.sparse as sp
    p1, p2, p3 = partial_matrices(n)
    return sp.vstack([p1, p2, p3], format="csr")


@lru_cache(maxsize=8)
def curl_matrix(n):
    import scipy.sparse as sp
    p1, p2, p3 = partial_matrices(n)
    return sp.bmat([[None, -p3, p2], [p3, None, -p1], [-p2, p1, None]],
                   format="csr")


@lru_cache(maxsize=8)
def div_matrix(n):
    import scipy.sparse as sp
    p1, p2, p3 = partial_matrices(n)
    return sp.hstack([p1, p2, p3], format="csr")


def flat_weights(n):
    """Trapezoid node weights as a flat vector over the scalar index: a
    read-only view of ``fields._node_weights(n)``."""
    return _node_weights(n).ravel()


def grad_adjoint(values):
    """G^T (w3 * flat_vector(values)) for an (n,n,n,3) array, as an
    (n,n,n) array: G = grad_matrix(n), w3 the node weights on each of its
    three blocks.

    Applies the transposed 1-d stencil along each axis with slices.  A
    node adds its terms in ascending source row of G, one axis block after
    another, as ``G.T @ v`` does, so the result is the same bit for bit.
    """
    n = values.shape[0]
    h = 2.0 / (n - 1)
    w = _node_weights(n)
    out = np.zeros((n, n, n))
    for axis in range(3):
        o = np.moveaxis(out, axis, 0)
        g = np.moveaxis(w * values[..., axis], axis, 0)
        for lo, hi, terms in _column_runs(n, h):
            for dr, coef in terms:
                o[lo:hi] += coef * g[lo + dr:hi + dr]
    return out


def _phase_terms(n):
    """1-d pieces of G^T W G, in the arithmetic of its sparse product.

    Returns (offdiag, diag_terms, c): offdiag[o][i] is the 1-d entry
    (i, i + o) for o in -2, -1, 1, 2 (0 where there is none), the running
    sum over source rows r of (D[r,i] * h^3 c_r) * D[r,i+o]; diag_terms[s][i]
    is the s-th such term of entry (i, i) in ascending r (0 past the
    last); c holds the 1-d trapezoid factors.
    """
    h = 2.0 / (n - 1)
    h3 = h ** 3
    c = np.ones(n)
    c[0] = c[-1] = 0.5
    offdiag = {o: np.zeros(n) for o in (-2, -1, 1, 2)}
    terms = [[] for _ in range(n)]
    for r, row in enumerate(_d1_rows(n, h)):
        wr = h3 * c[r]
        for i, di in row:
            for ip, dip in row:
                t = (di * wr) * dip
                if ip == i:
                    terms[i].append(t)
                else:
                    offdiag[ip - i][i] += t
    diag_terms = np.zeros((max(map(len, terms)), n))
    for i, ts in enumerate(terms):
        diag_terms[:len(ts), i] = ts
    return offdiag, diag_terms, c


def phase_normal_matrix(n):
    """G^T W G as CSR, with G = grad_matrix(n) and W the node weights on
    each of its three blocks: h^3 (M(x)C(x)C + C(x)M(x)C + C(x)C(x)M) for
    the 1-d M = D^T C D, assembled straight into CSR arrays.

    Bit-identical to ``(G.T @ diags(w3) @ G).tocsr()``, storage order
    included: an entry off the diagonal couples nodes along one axis and
    is the 1-d entry times the other two trapezoid factors (powers of
    two, so exact); the diagonal keeps the product's one running sum,
    axis block after axis block.
    """
    import scipy.sparse as sp
    offdiag, diag_terms, c = _phase_terms(n)
    cc = np.multiply.outer(c, c)
    # diagonal: 1-d terms times the other axes' factors, added in order
    diag = np.zeros((n, n, n))
    for axis in range(3):
        shape = [1, 1, 1]
        shape[axis] = n
        scale = np.expand_dims(cc, axis)
        for t in diag_terms:
            diag += t.reshape(shape) * scale

    # a row's entries in ascending column: those below the diagonal along
    # axis 0, 1 and 2, the diagonal, those above it along axis 2, 1 and 0
    lower = [(axis, o) for axis in range(3) for o in (-2, -1)]
    slots = lower + [None] + [(axis, -o) for axis, o in reversed(lower)]
    per_axis = sum((offdiag[o] != 0.0).astype(np.int64)
                   for o in (-2, -1, 1, 2))
    counts = (1 + per_axis[:, None, None] + per_axis[None, :, None]
              + per_axis[None, None, :])
    nnz = int(counts.sum())
    idx = np.int32 if max(nnz, n ** 3) < 2 ** 31 else np.int64
    indptr = np.zeros(n ** 3 + 1, dtype=idx)
    np.cumsum(counts.ravel(), out=indptr[1:])
    del counts
    pos = indptr[:-1].astype(np.int64).reshape(n, n, n)
    node = np.arange(n ** 3, dtype=idx).reshape(n, n, n)
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=idx)
    for slot in slots:
        if slot is None:
            p = pos.ravel()
            data[p] = diag.ravel()
            indices[p] = node.ravel()
            pos += 1
            continue
        axis, o = slot
        sel = np.flatnonzero(offdiag[o])
        p = np.moveaxis(pos, axis, 0)[sel]
        data[p] = offdiag[o][sel][:, None, None] * cc
        indices[p] = np.moveaxis(node, axis, 0)[sel] + o * n ** (2 - axis)
        np.moveaxis(pos, axis, 0)[sel] += 1
    return sp.csr_matrix((data, indices, indptr), shape=(n ** 3, n ** 3))


@lru_cache(maxsize=8)
def boundary_normal_operator(n):
    """(N, wb): rows of N pick the face-normal vector component at every
    node of each cube face; wb holds the matching 2-d trapezoid area
    weights.  Edge and corner nodes contribute once per adjacent face."""
    import scipy.sparse as sp
    h = 2.0 / (n - 1)
    n3 = n ** 3
    idx = np.arange(n3).reshape(n, n, n)
    c = np.ones(n)
    c[0] = c[-1] = 0.5
    area = (h * h * c[:, None] * c[None, :]).ravel()
    cols, wts = [], []
    for axis, comp in ((0, 0), (1, 1), (2, 2)):
        for side in (0, -1):
            sl = [slice(None)] * 3
            sl[axis] = side
            cols.append(comp * n3 + idx[tuple(sl)].ravel())
            wts.append(area)
    cols = np.concatenate(cols)
    m = cols.size
    op = sp.csr_matrix((np.ones(m), (np.arange(m), cols)), shape=(m, 3 * n3))
    wb = np.concatenate(wts)
    wb.setflags(write=False)
    return op, wb


def flat_vector(values):
    """(n,n,n,3) field values -> component-blocked flat vector."""
    return np.concatenate([values[..., c].ravel() for c in range(3)])


def unflat_vector(vec, n):
    n3 = n ** 3
    return np.stack([vec[c * n3:(c + 1) * n3].reshape(n, n, n)
                     for c in range(3)], axis=-1)


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


def cg_workers(rows):
    """Threads for one CG solve on `rows` unknowns: one per chunk at most,
    capped by HOPFLIFT_THREADS and the usable CPUs; one off the main
    thread, where the caller's own pool already fills the cores."""
    if threading.current_thread() is not threading.main_thread():
        return 1
    chunks = -(-rows // CHUNK)
    return max(1, min(max_workers(), _usable_cpus(), chunks))


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
