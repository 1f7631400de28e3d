"""Sparse finite-difference operators and the conjugate-gradient loop
shared by the gauge and phase solvers.

Both solvers minimize a weighted least-squares functional of a block
operator A whose blocks are signed partials: grad for the lift's phase,
curl and div for the gauge.  There is one 1-d stencil, the field
operators' own: ``_d1`` is ``fields.stencil_partial`` of the identity.
The normal matrices A^T W A are built from it (``_normal_tables``,
``_csr_from_tables``) in two read-only parts.  At every node at least 3
from each face, every row is one 7-point stencil, offsets 0, +-2, +-2n
and +-2n^2 within its component block, kept as its offsets and values
(``Stencil``) and checked against the tables on every such row.  The
other rows, the shell, are CSR arrays of the full shape with the box
rows left empty; for n <= 6 there is no box, every row is shell and the
stencil has no offsets.  Both parts are bit-identical to the sparse
products of the Kronecker matrices they replace, storage order included.
CG has one operator path (``block_matvec``): chunk by chunk, into the
zeroed rows, scipy's compiled ``dia_matvec`` adds the stencil from one
table for the box planes, masked to 0.0 at their shell rows, and
``csr_matvec`` adds the shell through its own ``indptr``, so each row
adds its products in the full matrix's order.  The right-hand sides
A^T W v are slice-wise adjoints (``block_adjoint``).  No solver path
builds the Kronecker matrices: ``partial_matrices``, ``grad_matrix``,
``curl_matrix``, ``div_matrix`` and ``boundary_normal_operator``
remain, uncached, as references for the tests and for the benchmark
tracer's lookups by name.  Because the three partials are Kronecker
products over disjoint slots they commute exactly, which makes
curl@grad and div@curl vanish identically as sparse matrices.
``scipy.sparse`` is imported by the builders on first use, so importing
this module costs numpy only.
"""

from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .errors import SolverDiverged
from .fields import (_node_weights, _trapezoid, _whole_number, face_trace,
                     index_box, spacing, stencil_partial, worker_count)

#: block operators as row blocks of (column block, sign, axis) entries,
#: each standing for sign times the partial along axis; the row blocks of
#: grad and curl are vector components, div has one
GRAD = (((0, 1.0, 0),), ((0, 1.0, 1),), ((0, 1.0, 2),))
CURL = (((1, -1.0, 2), (2, 1.0, 1)),
        ((0, 1.0, 2), (2, -1.0, 0)),
        ((0, -1.0, 1), (1, 1.0, 0)))
DIV = (((0, 1.0, 0), (1, 1.0, 1), (2, 1.0, 2)),)


def _d1(n):
    """The dense 1-d differentiation matrix, the field stencil's own."""
    return stencil_partial(np.eye(n), spacing(n), 0)


def _column_runs(n):
    """The 1-d matrix by columns: [lo, hi, terms] for each run of
    consecutive columns i whose entries, as (source row - i, coefficient)
    in ascending source row, are the same list ``terms``."""
    d = _d1(n)
    runs = []
    for i in range(n):
        terms = [(r - i, d[r, i]) for r in np.flatnonzero(d[:, i])]
        if runs and runs[-1][2] == terms:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1, terms])
    return runs


def partial_matrices(n):
    """(P1, P2, P3): flat-index partial-derivative operators on scalars."""
    import scipy.sparse as sp
    d = sp.csr_matrix(_d1(n))
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
    w = _node_weights(n)
    runs = _column_runs(n)
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
    h3 = spacing(n) ** 3
    c = _trapezoid(n)
    d = _d1(n)
    terms = {}
    for r in range(n):
        wr = h3 * c[r]
        cols = np.flatnonzero(d[r])
        for i in cols:
            for ip in cols:
                per_node = terms.setdefault(ip - i, [[] for _ in range(n)])
                per_node[i].append((d[r, i] * wr) * d[r, ip])
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


#: nodes with an index closer than this to a face see the one-sided rows
#: of the 1-d stencil (they reach columns 0, 1, 2 and n-3, n-2, n-1), a
#: half trapezoid weight or the face penalty; every other row of a normal
#: matrix is one stencil (``_csr_from_tables`` checks that it is)
_SHELL = 3


class Stencil(NamedTuple):
    """The rows of a blocks * n^3 square normal matrix at the nodes of the
    box [_SHELL, n-1-_SHELL]^3, in every block: the row of node i holds
    ``values[k]`` in column i + ``offsets[k]``, the offsets ascending, and
    nothing else."""

    n: int
    blocks: int
    offsets: np.ndarray
    values: np.ndarray


def _at_nodes(t, at, c, flat):
    """The entries of table t at the nodes whose indices on the three axes
    are the arrays ``at``, gathered by one ``take`` at their flat index
    into t.  ``flat`` keeps that index per table shape, built on first
    use; with one long axis it is that axis's array of ``at``, so only
    tables with two long axes add an array."""
    index = flat.get(t.shape)
    if index is None:
        for i, m in zip(at, t.shape):
            if m > 1:
                index = i if index is None else index * m + i
        index = flat[t.shape] = 0 if index is None else index
    vals = t.take(index)
    for axis in range(3):
        if t.shape[axis] == 1:
            vals = vals * c[at[axis]]
    return vals


def _box_stencil(tables, n, blocks):
    """The ``Stencil`` of ``_normal_tables``-style tables, with no
    offsets when the box is empty (n <= 6).  Every table must be one value
    on the whole box (the trapezoid factors are 1 there), 0.0 unless its
    column block is its row block, and every block must see the same
    nonzero values."""
    if n <= 2 * _SHELL:
        return Stencil(n, blocks, np.zeros(0, dtype=np.int64), np.zeros(0))
    box = slice(_SHELL, n - _SHELL)
    rows = [{} for _ in range(blocks)]
    for (b, b2, o), t in tables.items():
        inner = t[tuple(box if m > 1 else slice(None) for m in t.shape)]
        value = inner.flat[0]
        if (inner != value).any() or (value != 0.0 and b2 != b):
            raise RuntimeError(
                f"normal matrix entry {(b, b2, o)} is not one stencil "
                "value inside the box")
        if value != 0.0:
            rows[b][(o[0] * n + o[1]) * n + o[2]] = value
    if any(row != rows[0] for row in rows[1:]):
        raise RuntimeError("the blocks of a normal matrix have different "
                           "stencils inside the box")
    offsets = sorted(rows[0])
    return Stencil(n, blocks, np.array(offsets, dtype=np.int64),
                   np.array([rows[0][o] for o in offsets]))


def _csr_from_tables(tables, n, blocks):
    """(shell, stencil): the normal matrix (blocks * n^3 square) of
    ``_normal_tables``-style tables, split at the stencil's box.

    The shell is a CSR matrix of the full shape that stores the rows of
    the nodes outside the box and leaves the box rows empty; the
    ``Stencil`` holds the box rows.  Each shell row holds its entries in
    ascending column and stores only those that are not exactly 0.0, as
    scipy's sparse products and sums do.  The box rows are never
    assembled.  All arrays of both parts are read-only.
    """
    import scipy.sparse as sp
    n3 = n ** 3
    c = _trapezoid(n)
    shell = ~index_box(n, _SHELL, n - _SHELL)
    counts = np.zeros((blocks, n, n, n), dtype=np.int32)
    for (b, _, _), t in tables.items():
        counts[b] += t != 0.0
    counts *= shell
    nnz = int(counts.sum(dtype=np.int64))
    idx = np.int32 if max(nnz, blocks * n3) < 2 ** 31 else np.int64
    indptr = np.zeros(blocks * n3 + 1, dtype=idx)
    np.cumsum(counts.ravel(), dtype=idx, out=indptr[1:])
    del counts
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=idx)
    node = np.flatnonzero(shell)
    at = np.unravel_index(node, shell.shape)
    flat = {shell.shape: node}
    del shell
    for b in range(blocks):
        pos = indptr[b * n3 + node].astype(np.int64)
        for key in sorted(k for k in tables if k[0] == b):
            _, b2, o = key
            vals = _at_nodes(tables[key], at, c, flat)
            sel = np.flatnonzero(vals != 0.0)
            p = pos[sel]
            data[p] = vals[sel]
            indices[p] = node[sel] + (b2 * n3 + (o[0] * n + o[1]) * n + o[2])
            pos[sel] += 1
    shell_csr = sp.csr_matrix((data, indices, indptr),
                              shape=(blocks * n3,) * 2)
    stencil = _box_stencil(tables, n, blocks)
    for arr in (shell_csr.data, shell_csr.indices, shell_csr.indptr,
                stencil.offsets, stencil.values):
        arr.setflags(write=False)
    return shell_csr, stencil


def phase_normal_matrix(n):
    """G^T W G as (shell, stencil) (``_csr_from_tables``), with
    G = grad_matrix(n) and W the node weights on each of its three
    blocks.  The shell's rows are those of
    ``(G.T @ diags(w3) @ G).tocsr()`` outside the box, bit for bit and
    in storage order, and every row inside the box is the stencil."""
    return _csr_from_tables(_normal_tables(GRAD, n), n, 1)


def gauge_normal_matrix(n):
    """The gauge functional's normal matrix C^T W C + D^T w D +
    (10/h) N^T wb N as (shell, stencil) (``_csr_from_tables``), with
    C = curl_matrix(n), D = div_matrix(n),
    (N, wb) = boundary_normal_operator(n) and W, w the node weights.

    Bit-identical to the sum of the three sparse products, storage order
    included, outside the box; inside it, every row of each component
    block is the stencil.  10/h scales the finished product, and each
    sum drops the entries that cancel to exactly 0.0, as the
    mixed-component terms of C^T W C and D^T w D do inside the cube.
    N^T wb N is diagonal: the face area weight at every face node of the
    face-normal component.
    """
    h = spacing(n)
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


class _Split:
    """A ``Stencil`` laid out for scipy's ``dia_matvec``, with a plan for
    each row range (a, e) of ``chunks``; read-only.

    A box plane is the n^2 rows of one block at an x1 index inside the
    box.  ``table`` serves every box plane: it is (k, n^2 + 2m) for the
    margin m = max |offset|, and its column o + m + r holds the value at
    offset o for plane row r when r is a box row and 0.0 when r is a
    shell row, so a shell row gets only 0.0 * p terms.  ``pieces[k]``
    lists (lo, hi, q) for chunk k = ``chunks[k]``: each run of rows lo to
    hi-1 that it shares with a box plane, lo being that plane's row q.
    When n <= 6 there is no box plane and the stencil has no offsets.
    """

    def __init__(self, stencil, chunks):
        n, n2 = stencil.n, stencil.n ** 2
        m = self.margin = int(np.abs(stencil.offsets).max(initial=0))
        self.offsets = stencil.offsets + m
        # which rows of a box plane are box rows, read off the middle
        # x1-plane (none when n <= 6)
        inner = index_box(n, _SHELL, n - _SHELL)[n // 2].ravel()
        self.table = np.zeros((stencil.offsets.size, n2 + 2 * m))
        for row, o, value in zip(self.table, self.offsets, stencil.values):
            row[o:o + n2][inner] = value
        planes = [b * n ** 3 + i * n2 for b in range(stencil.blocks)
                  for i in range(_SHELL, n - _SHELL)]
        self.chunks = tuple(chunks)
        self.pieces = tuple(
            tuple((max(a, s), min(e, s + n2), max(a, s) - s)
                  for s in planes if s < e and a < s + n2)
            for a, e in chunks)
        for arr in (self.offsets, self.table):
            arr.setflags(write=False)


def block_matvec(mat, p, out, k, split):
    """out[a:e] = (A @ p)[a:e] for chunk k = [a, e) of the ``_Split``
    ``split``, with A the shell ``mat`` plus the split's stencil rows.
    Every row adds its products in ascending column from +0.0, as
    ``A @ p`` does on the full CSR matrix, so the bits match for finite
    p (a non-finite p makes CG's curvature non-finite either way); the
    GIL is released meanwhile.

    The chunk is zeroed.  Scipy's ``dia_matvec`` adds the stencil to
    each piece of a box plane, with its offsets shifted by m + q; its
    shell rows get 0.0 * p and stay +0.0.  Then ``csr_matvec`` adds the
    shell to every row of the chunk through the shell's own full-shape
    ``indptr[a:e+1]``, where the box rows are empty.  A public row slice
    ``mat[a:e]`` would not do: scipy copies any index or data slice
    smaller than half its base array, tens of MB per call on the gauge
    matrix.
    """
    from scipy.sparse import _sparsetools
    a, e = split.chunks[k]
    out[a:e] = 0.0
    m = split.margin
    for lo, hi, q in split.pieces[k]:
        _sparsetools.dia_matvec(
            hi - lo, hi - lo + 2 * m + q, split.offsets.size,
            split.table.shape[1], split.offsets + q, split.table,
            p[lo - m - q:hi + m], out[lo:hi])
    _sparsetools.csr_matvec(e - a, mat.shape[1], mat.indptr[a:e + 1],
                            mat.indices, mat.data, p, out[a:e])


def _dot(u, v, part):
    """u.v as the sum, in chunk order, of einsum over chunks of CHUNK
    entries; einsum is numpy's own loop, so BLAS threads have no say."""
    for k, lo in enumerate(range(0, u.size, CHUNK)):
        part[k] = np.einsum("i,i->", u[lo:lo + CHUNK], v[lo:lo + CHUNK])
    return float(np.sum(part))


#: the default CG stop: the residual at most this times the right-hand side
DEFAULT_REL_TOL = 1e-8


def solve_budget(n, max_iters, rel_tol):
    """(max_iters, rel_tol) of a CG solve on n^3 nodes; None picks 20 n.
    ValueError unless max_iters is a whole number > 0 and 0 < rel_tol < 1."""
    max_iters = 20 * n if max_iters is None else _whole_number(max_iters)
    if max_iters is None or max_iters <= 0 or not 0.0 < rel_tol < 1.0:
        raise ValueError("bad solver configuration")
    return max_iters, rel_tol


def conjugate_gradient(mat, b, rel_tol, max_iters, stencil):
    """Plain CG on a symmetric positive semi-definite matrix A, given as
    a normal matrix's two parts (``_csr_from_tables``): the shell ``mat``,
    a scipy CSR matrix of A's shape, and the ``Stencil`` of its empty box
    rows, which has no offsets when n <= 6 and every row is shell.  Each
    product with A has the bits of the full CSR matrix's
    (``block_matvec``).

    Starts from zero and steps until the residual (the functional's
    gradient, up to a factor 2) is at most rel_tol times its initial
    norm.  A solve that meets that test within max_iters steps, the last
    step included, converges; one that has taken max_iters steps without
    meeting it does not.  A NaN residual never meets it.  The residual is
    kept in b's own buffer, so b is overwritten and ends as the last
    residual.  Returns (x, iterations, achieved_rel, converged).

    A search direction of non-positive or non-finite curvature p.Ap
    would not decrease the quadratic functional: the direction restarts
    from the gradient, which takes no step.  SolverDiverged is raised
    when the curvature along the gradient itself fails, and before the
    first step when the right-hand side norm is not finite.

    Every dot product is the sum, in chunk order, of einsum over fixed
    chunks of CHUNK entries, so the result is bit-identical for any
    HOPFLIFT_THREADS and OPENBLAS_NUM_THREADS.  The chunks are split
    into contiguous blocks, one per worker (``worker_count`` of the
    chunks, whatever thread calls); the calling thread runs block 0 and a
    pool made for this solve runs the others.
    """
    rows = b.size
    x = np.zeros_like(b)
    r = b
    chunks = [(lo, min(lo + CHUNK, rows)) for lo in range(0, rows, CHUNK)]
    part = np.empty(len(chunks))
    norm0 = float(np.sqrt(_dot(r, r, part)))
    if not np.isfinite(norm0):
        raise SolverDiverged(
            "right-hand side norm is not finite; the data overflow the "
            "solver's arithmetic")
    p = r.copy()
    mp = np.empty_like(b)
    split = _Split(stencil, chunks)
    workers = worker_count(len(chunks))
    edges = [w * len(chunks) // workers for w in range(workers + 1)]
    scratch = np.empty((workers, min(rows, CHUNK)))

    # one step per barrier; each works chunk by chunk on its block, so a
    # chunk is still in cache for the ops after the first
    def curvature_step(w):
        for k in range(edges[w], edges[w + 1]):
            lo, hi = chunks[k]
            block_matvec(mat, p, mp, k, split)
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
        iters = 0
        along_gradient = True  # p is r
        while not np.sqrt(rs) <= rel_tol * norm0:
            if iters >= max_iters:
                return x, iters, float(np.sqrt(rs) / norm0), False
            each_block(curvature_step)
            curvature = float(np.sum(part))
            # the functional change per step is -alpha*rs/2, negative iff
            # curvature is positive
            if not (np.isfinite(curvature) and curvature > 0.0):
                if along_gradient:
                    raise SolverDiverged(
                        f"curvature {curvature:.3e} along the gradient at "
                        f"iteration {iters}; the operator is not positive "
                        "definite there or the arithmetic broke down")
                p[:] = r
                along_gradient = True
                continue
            each_block(update_step, rs / curvature)
            rs_new = float(np.sum(part))
            each_block(direction_step, rs_new / rs)
            rs, along_gradient = rs_new, False
            iters += 1
    finally:
        if pool is not None:
            pool.shutdown()
    return x, iters, float(np.sqrt(rs) / norm0) if norm0 else 0.0, True
