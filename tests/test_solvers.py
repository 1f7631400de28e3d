import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from hopflift import fields, solvers
from hopflift.errors import SolverDiverged
from hopflift.fields import (ScalarField, VecField, _node_weights, curl, div,
                             face_trace, grad, make_grid, stencil_partial)
from hopflift.solvers import (CURL, GRAD, Stencil, block_adjoint,
                              boundary_normal_operator, conjugate_gradient,
                              curl_matrix, div_matrix, gauge_normal_matrix,
                              grad_matrix, partial_matrices,
                              phase_normal_matrix)


# the Kronecker matrices act on flat vectors: a scalar field raveled, a
# vector field one raveled component after another


def flat_weights(n):
    """Trapezoid node weights as a flat vector over the scalar index."""
    return _node_weights(n).ravel()


def flat_vector(values):
    """(n,n,n,3) field values -> component-blocked flat vector."""
    return np.concatenate([values[..., c].ravel() for c in range(3)])


def unflat_vector(vec, n):
    n3 = n ** 3
    return np.stack([vec[c * n3:(c + 1) * n3].reshape(n, n, n)
                     for c in range(3)], axis=-1)


def box_rows(n, blocks):
    """Bool over the rows of a blocks * n^3 normal matrix: True at the
    nodes with every index in [3, n-4], whose rows are one stencil."""
    i = np.arange(n)
    inside = (i >= 3) & (i <= n - 4)
    node = (inside[:, None, None] & inside[None, :, None]
            & inside[None, None, :])
    return np.tile(node.ravel(), blocks)


def assert_split_is(shell, stencil, ref, blocks):
    """(shell, stencil) is the CSR matrix ref: the shell holds ref's rows
    outside the box in storage order, with the same index dtype, and no
    entry in a box row; every box row of ref is the stencil exactly."""
    n = round((ref.shape[0] // blocks) ** (1 / 3))
    box = box_rows(n, blocks)
    counts = np.diff(ref.indptr)
    keep = np.repeat(~box, counts)
    want_indptr = np.concatenate([[0], np.cumsum(np.where(box, 0, counts))])
    assert shell.shape == ref.shape
    assert shell.indptr.dtype == shell.indices.dtype == ref.indices.dtype
    assert np.array_equal(shell.indptr, want_indptr)
    assert np.array_equal(shell.indices, ref.indices[keep])
    assert shell.data.tobytes() == ref.data[keep].tobytes()
    assert (stencil.n, stencil.blocks) == (n, blocks)
    if not box.any():
        # n <= 6: every row is shell, and the stencil has no offsets
        assert stencil.offsets.size == stencil.values.size == 0
        return
    rows = np.flatnonzero(box)
    k = stencil.offsets.size
    assert np.all(counts[rows] == k)
    at = ref.indptr[rows][:, None] + np.arange(k)
    assert np.array_equal(ref.indices[at] - rows[:, None],
                          np.broadcast_to(stencil.offsets, at.shape))
    assert ref.data[at].tobytes() == np.broadcast_to(
        stencil.values, at.shape).tobytes()


def phase_reference(n):
    """G^T W G from the Kronecker gradient."""
    gm = grad_matrix(n)
    w = flat_weights(n)
    w3 = np.concatenate([w, w, w])
    return (gm.T @ sp.diags(w3) @ gm).tocsr()


class TestOperatorMatrices:
    def test_match_field_operators(self):
        # the sparse stencils must agree with the field operators to
        # rounding, or solver residuals and reports drift apart
        n = 13
        grid = make_grid(n)
        rng = np.random.default_rng(0)
        f = rng.normal(size=(n, n, n))
        gm = grad_matrix(n)
        ref = grad(ScalarField(grid, f)).values
        assert np.abs(unflat_vector(gm @ f.ravel(), n) - ref).max() < 1e-12

        a = rng.normal(size=(n, n, n, 3))
        cm = curl_matrix(n)
        ref_c = curl(VecField(grid, 1, a)).values
        got = unflat_vector(cm @ flat_vector(a), n)
        assert np.abs(got - ref_c).max() < 1e-11

        dm = div_matrix(n)
        ref_d = div(VecField(grid, 2, a)).values
        assert np.abs((dm @ flat_vector(a)).reshape(n, n, n) - ref_d).max() < 1e-11

    def test_flat_weights_are_the_node_weights(self):
        # the formula flat_weights used before it shared fields'
        # node weights; every factor but h^3 is 1 or 1/2, so the
        # product order cannot move a bit
        for n in (3, 9, 33, 65):
            h = 2.0 / (n - 1)
            c = np.ones(n)
            c[0] = c[-1] = 0.5
            ref = h ** 3 * (c[:, None, None] * c[None, :, None]
                            * c[None, None, :])
            w = flat_weights(n)
            assert np.array_equal(w, ref.ravel())
            assert not w.flags.writeable

    def test_one_stencil(self):
        # the solver layer's 1-d matrix is the field stencil's, byte for
        # byte: a separate copy of its coefficients rounded the face rows
        # 1 ulp apart at n = 50, 76, 78, 94, 99, 100, 104, 106 and 108,
        # the n below 129 where the two disagreed
        d1 = {n: stencil_partial(np.eye(n), 2.0 / (n - 1), 0)
              for n in range(3, 129)}
        # the Kronecker factors cost seconds past n = 64; above it, the n
        # where the copies disagreed
        for n in [*range(3, 65), 76, 78, 94, 99, 100, 104, 106, 108]:
            # P3 = I (x) I (x) D: its first n rows are D
            p3 = partial_matrices(n)[2][:n, :n]
            assert p3.nnz == np.count_nonzero(d1[n])
            assert p3.toarray().tobytes() == d1[n].tobytes(), n
        # the adjoint's columns, at every n
        for n, d in d1.items():
            runs = np.zeros((n, n))
            for lo, hi, terms in solvers._column_runs(n):
                i = np.arange(lo, hi)
                for dr, coef in terms:
                    runs[i + dr, i] = coef
            assert runs.tobytes() == d.tobytes(), n

    def test_exact_sequences_vanish_structurally(self):
        n = 9
        cg_prod = curl_matrix(n) @ grad_matrix(n)
        dc_prod = div_matrix(n) @ curl_matrix(n)
        assert cg_prod.nnz == 0 or abs(cg_prod).max() == 0.0
        assert dc_prod.nnz == 0 or abs(dc_prod).max() == 0.0

    def test_boundary_operator_counts(self):
        n = 7
        op, wb = boundary_normal_operator(n)
        assert op.shape == (6 * n * n, 3 * n ** 3)
        # per-face trapezoid weights integrate to the face area 4
        assert wb[:n * n].sum() == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_boundary_operator_is_the_face_trace(self, n):
        # N @ v picks face_trace's entries in its order, bit for bit,
        # with its weights
        v = np.random.default_rng(n).normal(size=(n, n, n, 3))
        trace, area = face_trace(v)
        op, wb = boundary_normal_operator(n)
        assert np.array_equal(op @ flat_vector(v), trace)
        assert np.array_equal(wb, area)


class TestPhaseOperator:
    """The lift's normal equations, built without Kronecker factors, must
    be the sparse product they replace: same CSR arrays in storage order
    and the same right-hand side bits, so CG runs the same steps."""

    @pytest.mark.parametrize("n", [3, 4, 9, 17, 33, 49, 65])
    def test_matrix_is_the_product(self, n):
        assert_split_is(*phase_normal_matrix(n), phase_reference(n), 1)

    @pytest.mark.parametrize("n", [3, 9, 33, 49, 50])
    def test_adjoint_is_the_transpose(self, n):
        gm = grad_matrix(n)
        w = flat_weights(n)
        w3 = np.concatenate([w, w, w])
        v = np.random.default_rng(n).normal(size=(n, n, n, 3))
        ref = gm.T @ (w3 * flat_vector(v))
        assert np.array_equal(block_adjoint(GRAD, v).ravel(), ref)


class TestGaugeOperator:
    """The gauge's normal equations, built without Kronecker factors, must
    be the sparse expression they replace, zero-dropping sums included."""

    @staticmethod
    def reference(n, div_penalty, boundary_penalty):
        cm, dm = curl_matrix(n), div_matrix(n)
        nm, wb = boundary_normal_operator(n)
        w = flat_weights(n)
        w3 = sp.diags(np.concatenate([w, w, w]))
        return (cm.T @ w3 @ cm
                + div_penalty * (dm.T @ sp.diags(w) @ dm)
                + boundary_penalty * (nm.T @ sp.diags(wb) @ nm)).tocsr()

    @pytest.mark.parametrize("n", [3, 4, 5, 9, 17, 33, 49, 65])
    def test_matrix_is_the_expression(self, n):
        # the gauge functional's penalties: 1 on div, 10/h on the faces
        ref = self.reference(n, 1.0, 10.0 / make_grid(n).h)
        assert_split_is(*gauge_normal_matrix(n), ref, 3)
        if n == 17:
            # the cancelled mixed-component entries are not stored
            assert ref.nnz == 178857

    @pytest.mark.parametrize("n", [3, 9, 33, 49, 50])
    def test_adjoint_is_the_transpose(self, n):
        w = flat_weights(n)
        w3 = np.concatenate([w, w, w])
        v = np.random.default_rng(n).normal(size=(n, n, n, 3))
        ref = curl_matrix(n).T @ (w3 * flat_vector(v))
        assert np.array_equal(block_adjoint(CURL, v).ravel(), ref)


@pytest.mark.parametrize("build, cap_mib", [(gauge_normal_matrix, 36),
                                            (phase_normal_matrix, 10)])
def test_operator_storage_at_n65(build, cap_mib):
    # the shell and the stencil; the full CSR matrices were 82 and 24 MiB
    mat, stencil = build(65)
    arrays = (mat.data, mat.indices, mat.indptr, stencil.offsets,
              stencil.values)
    assert sum(a.nbytes for a in arrays) <= cap_mib * 2 ** 20


def all_shell(n):
    """The empty ``Stencil`` of an n <= 6 grid's one-block normal matrix,
    whose n^3 rows are all shell: any CSR matrix of that shape with it is
    a CG operator."""
    return Stencil(n, 1, np.zeros(0, dtype=np.int64), np.zeros(0))


class TestConjugateGradient:
    """CG on all-shell operators: n^3 = 27 or 125 rows, every one CSR."""

    def test_solves_spd_system(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(27, 27))
        mat = sp.csr_matrix(m @ m.T + 27 * np.eye(27))
        x_true = rng.normal(size=27)
        b = mat @ x_true
        x, iters, rel, converged = conjugate_gradient(mat, b, 1e-12, 500,
                                                      all_shell(3))
        assert converged
        assert np.abs(x - x_true).max() < 1e-8

    def test_zero_rhs_short_circuits(self):
        mat = sp.identity(27, format="csr")
        x, iters, rel, converged = conjugate_gradient(
            mat, np.zeros(27), 1e-8, 10, all_shell(3))
        assert converged and iters == 0 and np.all(x == 0.0)

    def test_budget_exhaustion_reports_nonconvergence(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(125, 125))
        mat = sp.csr_matrix(m @ m.T + 1e-3 * np.eye(125))
        b = rng.normal(size=125)
        x, iters, rel, converged = conjugate_gradient(mat, b, 1e-14, 3,
                                                      all_shell(5))
        assert not converged and iters == 3

    def test_tolerance_met_on_last_allowed_step_converges(self):
        # a budget of exactly the unbounded solve's step count converges
        # with its bits; one step less does not
        rng = np.random.default_rng(5)
        m = rng.normal(size=(125, 125))
        mat = sp.csr_matrix(m @ m.T + 125 * np.eye(125))
        b = rng.normal(size=125)
        x0, k, rel0, converged = conjugate_gradient(mat, b.copy(), 1e-10,
                                                    1000, all_shell(5))
        assert converged and 1 < k < 1000
        x, iters, rel, converged = conjugate_gradient(mat, b.copy(), 1e-10,
                                                      k, all_shell(5))
        assert converged and iters == k and rel == rel0
        assert x.tobytes() == x0.tobytes()
        x, iters, rel, converged = conjugate_gradient(mat, b.copy(), 1e-10,
                                                      k - 1, all_shell(5))
        assert not converged and iters == k - 1 and rel > 1e-10

    @pytest.mark.parametrize("bad", [1e300, np.inf, np.nan])
    def test_non_finite_rhs_norm_diverges_before_iterating(self, bad):
        # |b| overflows: the stopping test inf <= inf must not report
        # convergence at iteration 0 with x = 0
        mat = sp.identity(27, format="csr")
        b = np.full(27, bad)
        with pytest.raises(SolverDiverged, match="not finite"):
            conjugate_gradient(mat, b, 1e-8, 10, all_shell(3))

    def test_restart_from_the_gradient_takes_no_step(self, monkeypatch):
        # on diag(1, -0.01, 1, ...) with b = e0 + e1 the gradient has
        # positive curvature but the second direction does not: it
        # restarts from the gradient, which costs a product with A and
        # no step, so two steps take three products
        d = np.ones(27)
        d[1] = -0.01
        b = np.zeros(27)
        b[:2] = 1.0
        products = []
        matvec = solvers.block_matvec
        monkeypatch.setattr(solvers, "block_matvec",
                            lambda *a: products.append(a[3]) or matvec(*a))
        x, iters, rel, converged = conjugate_gradient(
            sp.diags(d).tocsr(), b, 1e-12, 2, all_shell(3))
        assert not converged and iters == 2 and len(products) == 3

    def test_indefinite_matrix_diverges(self):
        mat = sp.diags([-1.0] * 27).tocsr()
        b = np.ones(27)
        with pytest.raises(SolverDiverged):
            conjugate_gradient(mat, b, 1e-12, 100, all_shell(3))


def split_matvec(mat, stencil, p, edges):
    """The split operator times p, by ``block_matvec`` over the chunks
    between ``edges``."""
    chunks = list(zip(edges[:-1], edges[1:]))
    split = solvers._Split(stencil, chunks)
    out = np.full(p.size, np.nan)
    for k in range(len(chunks)):
        solvers.block_matvec(mat, p, out, k, split)
    return out


@pytest.fixture(scope="module")
def gauge_system():
    # the n=33 gauge operator, shell and stencil: 107811 rows, 4 chunks
    # of CHUNK rows
    from hopflift.hodge import _normal_matrix
    n = 33
    mat, stencil = _normal_matrix(n)
    x = np.random.default_rng(3).normal(size=mat.shape[0])
    return mat, stencil, split_matvec(mat, stencil, x, [0, x.size])


def test_worker_count(monkeypatch):
    # min(HOPFLIFT_THREADS, usable CPUs, tasks), at least one
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 3)
    monkeypatch.setenv("HOPFLIFT_THREADS", "4")
    assert [solvers.worker_count(t) for t in (0, 1, 2, 3, 5)] == \
        [1, 1, 2, 3, 3]
    monkeypatch.setenv("HOPFLIFT_THREADS", "2")
    assert solvers.worker_count(5) == 2
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 1)
    assert solvers.worker_count(5) == 1


def test_solve_budget_is_a_whole_number():
    # a whole-number float is taken as an int; a fraction is refused
    # (max_iters=0.5 took one CG step and raised NotConverged)
    assert solvers.solve_budget(9, None, 1e-8) == (180, 1e-8)
    budget = solvers.solve_budget(9, np.float64(5.0), 1e-8)[0]
    assert type(budget) is int and budget == 5
    for bad in (0.5, 2.5, float("inf"), float("nan"), "5"):
        with pytest.raises(ValueError, match="bad solver configuration"):
            solvers.solve_budget(9, bad, 1e-8)


def _solve_with_workers(monkeypatch, workers, *args):
    # CG takes worker_count of its chunks on any thread: the calling
    # thread and a pool of the others
    from concurrent.futures import ThreadPoolExecutor
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 4)
    monkeypatch.setenv("HOPFLIFT_THREADS", str(workers))
    pools = []

    def pool(size):
        pools.append(size)
        return ThreadPoolExecutor(size)

    monkeypatch.setattr(solvers, "ThreadPoolExecutor", pool)
    result = conjugate_gradient(*args)
    assert pools == ([workers - 1] if workers > 1 else [])
    return result


class TestConjugateGradientKernel:
    def test_block_matvec_matches_matmul(self):
        # guards the private scipy routine behind the shell rows,
        # csr_matvec, on an all-shell operator of any sparsity pattern
        rng = np.random.default_rng(4)
        mat = sp.random(125, 125, density=0.05, format="csr",
                        random_state=rng)
        wide = mat.copy()
        wide.indices = wide.indices.astype(np.int64)
        wide.indptr = wide.indptr.astype(np.int64)
        p = rng.normal(size=125)
        for m in (mat, wide):
            for edges in ([0, 125], [0, 37, 125], [0, 1, 62, 124, 125]):
                out = split_matvec(m, all_shell(5), p, edges)
                assert np.array_equal(out, mat @ p)

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 9, 17, 33])
    @pytest.mark.parametrize("kind", ["phase", "gauge"])
    def test_split_matvec_matches_matmul(self, n, kind):
        # guards the private scipy routine behind the stencil rows,
        # dia_matvec: the bits of ref @ p for any chunk edges and index
        # width, on a p with runs of signed zeros (rows whose products
        # are all zeros sum to +0.0) and products that round
        if kind == "phase":
            mat, stencil = phase_normal_matrix(n)
            ref = phase_reference(n)
        else:
            mat, stencil = gauge_normal_matrix(n)
            ref = TestGaugeOperator.reference(n, 1.0, 10.0 / make_grid(n).h)
        rows = mat.shape[0]
        p = np.random.default_rng(n).normal(size=rows) / 3.0
        p[:rows // 3] = np.where(np.arange(rows // 3) % 2, -0.0, 0.0)
        p[rows // 3::5] = -0.0
        want = (ref @ p).tobytes()
        wide = mat.copy()
        wide.indices = wide.indices.astype(np.int64)
        wide.indptr = wide.indptr.astype(np.int64)
        for m in (mat, wide):
            for edges in ([0, rows], list(range(rows + 1))):
                assert split_matvec(m, stencil, p, edges).tobytes() == want

    def test_chunk_product_allocates_no_row_buffer(self, gauge_system):
        # each chunk's product works in its slice of out: no shell buffer
        # and no index array, whose size would grow with the chunk
        import tracemalloc
        mat, stencil, b = gauge_system
        chunks = [(lo, min(lo + solvers.CHUNK, b.size))
                  for lo in range(0, b.size, solvers.CHUNK)]
        split = solvers._Split(stencil, chunks)
        out = np.empty_like(b)
        for k in range(len(chunks)):
            tracemalloc.start()
            try:
                solvers.block_matvec(mat, b, out, k, split)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4096, (k, peak)

    def test_same_bits_for_any_worker_count(self, gauge_system, monkeypatch):
        mat, stencil, b = gauge_system
        assert stencil.offsets.size == 7
        assert -(-b.size // solvers.CHUNK) >= 3
        # up to three workers with frequent thread switches: a lost or
        # crossed block update would change the bits; each solve takes
        # its own b, which it overwrites with the residual
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = [_solve_with_workers(monkeypatch, w, mat, b.copy(),
                                           1e-8, 660, stencil)
                       for w in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        x0, *rest0 = results[0]
        assert rest0[2]
        for x, *rest in results[1:]:
            assert np.array_equal(x, x0) and rest == rest0

        # a solve off the main thread, on three workers, keeps the bits
        out = {}

        def solve():
            out["result"] = _solve_with_workers(monkeypatch, 3, mat, b.copy(),
                                                1e-8, 660, stencil)

        thread = threading.Thread(target=solve)
        thread.start()
        thread.join(timeout=300)
        assert not thread.is_alive()
        x, *rest = out["result"]
        assert np.array_equal(x, x0) and rest == rest0

    def test_budget_exhaustion_on_split_system(self, gauge_system,
                                               monkeypatch):
        mat, stencil, b = gauge_system
        x, iters, rel, converged = _solve_with_workers(
            monkeypatch, 3, mat, b.copy(), 1e-14, 5, stencil)
        assert not converged and iters == 5

    def test_indefinite_split_system_diverges(self, gauge_system,
                                              monkeypatch):
        # the negated gauge operator, shell and stencil both: negative
        # definite, so every step meets non-positive curvature
        mat, stencil, b = gauge_system
        neg = sp.csr_matrix((-mat.data, mat.indices, mat.indptr),
                            shape=mat.shape)
        neg_stencil = stencil._replace(values=-stencil.values)
        with pytest.raises(SolverDiverged):
            _solve_with_workers(monkeypatch, 3, neg, np.ones(b.size), 1e-12,
                                100, neg_stencil)
