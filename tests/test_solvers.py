import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from hopflift import solvers
from hopflift.errors import SolverDiverged
from hopflift.fields import (ScalarField, VecField, _node_weights, curl, div,
                             grad, make_grid)
from hopflift.solvers import (CURL, GRAD, block_adjoint,
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


def assert_same_csr(mat, ref):
    assert mat.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(mat, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@pytest.fixture(scope="module", autouse=True)
def drop_kronecker_caches():
    # the reference matrices at n=65 hold hundreds of MB
    yield
    for fn in (partial_matrices, grad_matrix, curl_matrix, div_matrix,
               boundary_normal_operator):
        fn.cache_clear()


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


class TestPhaseOperator:
    """The lift's normal equations, built without Kronecker factors, must
    be the sparse product they replace: same CSR arrays in storage order
    and the same right-hand side bits, so CG runs the same steps."""

    @pytest.mark.parametrize("n", [3, 4, 9, 17, 33, 49, 65])
    def test_matrix_is_the_product(self, n):
        gm = grad_matrix(n)
        w = flat_weights(n)
        w3 = np.concatenate([w, w, w])
        ref = (gm.T @ sp.diags(w3) @ gm).tocsr()
        assert_same_csr(phase_normal_matrix(n), ref)

    @pytest.mark.parametrize("n", [3, 9, 33, 49])
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
        bnd = 10.0 * (n - 1) / 2.0
        ref = self.reference(n, 1.0, bnd)
        assert_same_csr(gauge_normal_matrix(n, 1.0, bnd), ref)
        if n == 17:
            # the cancelled mixed-component entries are not stored
            assert ref.nnz == 178857

    @pytest.mark.parametrize("n", [4, 9, 17, 33])
    @pytest.mark.parametrize("penalties", [(2.5, 3.0), (1.0, 0.7),
                                           (0.3, 100.0)])
    def test_matrix_for_other_penalties(self, n, penalties):
        assert_same_csr(gauge_normal_matrix(n, *penalties),
                        self.reference(n, *penalties))

    @pytest.mark.parametrize("n", [3, 9, 33, 49])
    def test_adjoint_is_the_transpose(self, n):
        w = flat_weights(n)
        w3 = np.concatenate([w, w, w])
        v = np.random.default_rng(n).normal(size=(n, n, n, 3))
        ref = curl_matrix(n).T @ (w3 * flat_vector(v))
        assert np.array_equal(block_adjoint(CURL, v).ravel(), ref)


class TestConjugateGradient:
    def test_solves_spd_system(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(40, 40))
        mat = sp.csr_matrix(m @ m.T + 40 * np.eye(40))
        x_true = rng.normal(size=40)
        b = mat @ x_true
        x, iters, rel, converged = conjugate_gradient(mat, b, 1e-12, 500)
        assert converged
        assert np.abs(x - x_true).max() < 1e-8

    def test_zero_rhs_short_circuits(self):
        mat = sp.identity(5, format="csr")
        x, iters, rel, converged = conjugate_gradient(mat, np.zeros(5), 1e-8, 10)
        assert converged and iters == 0 and np.all(x == 0.0)

    def test_budget_exhaustion_reports_nonconvergence(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(60, 60))
        mat = sp.csr_matrix(m @ m.T + 1e-3 * np.eye(60))
        b = rng.normal(size=60)
        x, iters, rel, converged = conjugate_gradient(mat, b, 1e-14, 3)
        assert not converged and iters == 3

    @pytest.mark.parametrize("bad", [1e300, np.inf, np.nan])
    def test_non_finite_rhs_norm_diverges_before_iterating(self, bad):
        # |b| overflows: the stopping test inf <= inf must not report
        # convergence at iteration 0 with x = 0
        mat = sp.identity(6, format="csr")
        b = np.full(6, bad)
        with pytest.raises(SolverDiverged, match="not finite"):
            conjugate_gradient(mat, b, 1e-8, 10)

    def test_indefinite_matrix_diverges(self):
        mat = sp.diags([-1.0] * 20).tocsr()
        b = np.ones(20)
        with pytest.raises(SolverDiverged):
            conjugate_gradient(mat, b, 1e-12, 100)


@pytest.fixture(scope="module")
def gauge_system():
    # the n=33 gauge normal matrix: 107811 rows, 4 chunks of CHUNK rows
    from hopflift.hodge import _normal_matrix
    n = 33
    mat = _normal_matrix(n)
    b = mat @ np.random.default_rng(3).normal(size=mat.shape[0])
    return mat, b


def test_worker_count(monkeypatch):
    # min(HOPFLIFT_THREADS, usable CPUs, tasks), at least one
    monkeypatch.setattr(solvers, "_usable_cpus", lambda: 3)
    monkeypatch.setenv("HOPFLIFT_THREADS", "4")
    assert [solvers.worker_count(t) for t in (0, 1, 2, 3, 5)] == \
        [1, 1, 2, 3, 3]
    monkeypatch.setenv("HOPFLIFT_THREADS", "2")
    assert solvers.worker_count(5) == 2
    monkeypatch.setattr(solvers, "_usable_cpus", lambda: 1)
    assert solvers.worker_count(5) == 1


def _solve_with_workers(monkeypatch, workers, *args):
    monkeypatch.setattr(solvers, "_usable_cpus", lambda: 4)
    monkeypatch.setenv("HOPFLIFT_THREADS", str(workers))
    assert solvers.cg_workers(args[1].size) == workers
    return conjugate_gradient(*args)


class TestConjugateGradientKernel:
    def test_block_matvec_matches_matmul(self):
        # guards the private scipy routine behind block_matvec
        rng = np.random.default_rng(4)
        mat = sp.random(500, 300, density=0.05, format="csr", random_state=rng)
        wide = mat.copy()
        wide.indices = wide.indices.astype(np.int64)
        wide.indptr = wide.indptr.astype(np.int64)
        p = rng.normal(size=300)
        for m in (mat, wide):
            for edges in ([0, 500], [0, 137, 500], [0, 1, 250, 499, 500]):
                out = np.full(500, np.nan)
                for a, e in zip(edges[:-1], edges[1:]):
                    solvers.block_matvec(m, p, out, a, e)
                assert np.array_equal(out, mat @ p)

    def test_same_bits_for_any_worker_count(self, gauge_system, monkeypatch):
        mat, b = gauge_system
        assert -(-b.size // solvers.CHUNK) >= 3
        # up to three workers with frequent thread switches: a lost or
        # crossed block update would change the bits
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = [_solve_with_workers(monkeypatch, w, mat, b, 1e-8, 660)
                       for w in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        x0, *rest0 = results[0]
        assert rest0[2]
        for x, *rest in results[1:]:
            assert np.array_equal(x, x0) and rest == rest0

        # off the main thread the solve takes one worker and the same bits
        out = {}

        def solve():
            out["workers"] = solvers.cg_workers(b.size)
            out["result"] = conjugate_gradient(mat, b, 1e-8, 660)

        thread = threading.Thread(target=solve)
        thread.start()
        thread.join(timeout=300)
        assert not thread.is_alive()
        x, *rest = out["result"]
        assert out["workers"] == 1
        assert np.array_equal(x, x0) and rest == rest0

    def test_budget_exhaustion_on_split_system(self, gauge_system,
                                               monkeypatch):
        mat, b = gauge_system
        x, iters, rel, converged = _solve_with_workers(
            monkeypatch, 3, mat, b, 1e-14, 5)
        assert not converged and iters == 5

    def test_indefinite_split_system_diverges(self, monkeypatch):
        rows = 3 * solvers.CHUNK
        mat = sp.diags(np.full(rows, -1.0)).tocsr()
        with pytest.raises(SolverDiverged):
            _solve_with_workers(monkeypatch, 3, mat, np.ones(rows), 1e-12,
                                100)
