"""Sparse finite-difference operators and the conjugate-gradient loop
shared by the gauge and phase solvers.

The 1-d differentiation matrix reproduces the grad/curl/div stencils
bit-for-bit, so quantities assembled here agree with the field operators
to rounding.  Because the three partials are Kronecker products over
disjoint slots they commute exactly, which makes curl@grad and div@curl
vanish identically as sparse matrices.  ``scipy.sparse`` is imported by
the builders on first use, so importing this module costs numpy only.
"""

from functools import lru_cache

import numpy as np

from .errors import SolverDiverged


@lru_cache(maxsize=8)
def _d1(n, h):
    import scipy.sparse as sp
    rows, cols, data = [], [], []
    inv2h = 0.5 / h
    for i in range(1, n - 1):
        rows += [i, i]
        cols += [i - 1, i + 1]
        data += [-inv2h, inv2h]
    rows += [0, 0, 0]
    cols += [0, 1, 2]
    data += [-3.0 * inv2h, 4.0 * inv2h, -1.0 * inv2h]
    rows += [n - 1, n - 1, n - 1]
    cols += [n - 1, n - 2, n - 3]
    data += [3.0 * inv2h, -4.0 * inv2h, 1.0 * inv2h]
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


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


@lru_cache(maxsize=8)
def flat_weights(n):
    """Trapezoid node weights as a flat vector over the scalar index."""
    h = 2.0 / (n - 1)
    c = np.ones(n)
    c[0] = c[-1] = 0.5
    w = h ** 3 * (c[:, None, None] * c[None, :, None] * c[None, None, :])
    w = w.ravel()
    w.setflags(write=False)
    return w


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


def conjugate_gradient(mat, b, rel_tol, max_iters):
    """Plain CG on a symmetric positive semi-definite sparse matrix.

    Starts from zero and stops when the residual (the functional's
    gradient, up to a factor 2) drops below rel_tol times its initial
    norm.  Returns (x, iterations, achieved_rel, converged).  Raises
    SolverDiverged after 10 consecutive steps in which the quadratic
    functional fails to decrease, which for CG can only come from a
    non-positive curvature direction or numerical breakdown.
    """
    x = np.zeros_like(b)
    r = b.copy()
    norm0 = float(np.linalg.norm(r))
    if norm0 == 0.0:
        return x, 0, 0.0, True
    p = r.copy()
    rs = norm0 * norm0
    bad_steps = 0
    iters = 0
    while iters < max_iters:
        if np.sqrt(rs) <= rel_tol * norm0:
            return x, iters, float(np.sqrt(rs) / norm0), True
        mp = mat @ p
        curvature = float(p @ mp)
        # the functional change per step is -alpha*rs/2, negative iff
        # curvature is positive
        if not np.isfinite(curvature) or curvature <= 0.0:
            bad_steps += 1
            if bad_steps >= 10:
                raise SolverDiverged(
                    "quadratic functional increased for 10 consecutive "
                    "iterations")
            # restart the search direction from the gradient
            p = r.copy()
            rs = float(r @ r)
            iters += 1
            continue
        bad_steps = 0
        alpha = rs / curvature
        x += alpha * p
        r -= alpha * mp
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
        iters += 1
    return x, iters, float(np.sqrt(rs) / norm0), False
