"""Canonical gauge solve: the divergence-free, tangential representative
of a 1-form with prescribed exterior derivative.

Given a degree-2 field G, the solver minimizes

    ||curl a - G||^2 + ||div a||^2 + (10/h) ||a . n||^2 on the cube faces

by conjugate gradients on the normal equations, all norms trapezoid-
weighted.  On a simply connected domain the penalties pin the minimizer
uniquely; the defining property is weak, orthogonality to every gradient,
which is what the report measures.  It takes each pairing with a gradient
by parts, <a, grad psi> = psi . (G^T W a), and contracts that one axis at
a time against the separable trial functions; each ||grad psi||^2 is a
sum of products of 1-d weighted sums.  No trial psi or gradient is
formed, and only the normal matrix is kept between calls, in two parts
(``solvers.gauge_normal_matrix``): the rows within 3 nodes of a face as
CSR arrays, and the one 7-point stencil that every other row is.
Pointwise normals are ambiguous on cube edges, so the penalty is applied
facewise and the weak form is the test that matters.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotConverged
from .fields import (VecField, _trapezoid, curl, div, face_trace, l1_norm,
                     l2_norm, lp_norm, stencil_partial)
from . import solvers

#: weighted L^2 norm of a G that ``canonical_gauge`` takes for noise: an
#: absolute floor, far above the 1e-16 rounding of a unit map's pullback
_NOISE_FLOOR = 1e-12

#: trial count of the test gradients, and their seeds in the two checks
_TRIALS, _WEAK_SEED, _MINIMALITY_SEED = 20, 2024, 7


@dataclass
class GaugeSolveConfig:
    """Stopping parameters; max_iters None picks 20n."""

    max_iters: int = None
    rel_tol: float = 1e-8

    def resolved(self, grid):
        return solvers.solve_budget(grid.n, self.max_iters, self.rel_tol)


@dataclass
class GaugeReport:
    curl_residual_rel: float
    div_norm: float
    normal_trace_norm: float
    weak_trace_defect: float
    iterations: int
    l32_l1_ratio: float

    def to_dict(self):
        return dict(self.__dict__)


@lru_cache(maxsize=2)
def _normal_matrix(n):
    """``solvers.gauge_normal_matrix(n)``, (shell, stencil), cached per
    n; its arrays are read-only as built."""
    return solvers.gauge_normal_matrix(n)


def _trial_draws(trials, seed):
    """The parameters of ``random_test_functions(grid, trials, seed)``,
    drawn in its order (ramp, then per wave k, phase, amplitude): arrays
    lin (trials, 3), k (trials, 4, 3), phase (trials, 4), amp (trials, 4)."""
    rng = np.random.default_rng(seed)
    lin = np.empty((trials, 3))
    k = np.empty((trials, 4, 3))
    phase = np.empty((trials, 4))
    amp = np.empty((trials, 4))
    for t in range(trials):
        lin[t] = rng.normal(size=3)
        for w in range(4):
            k[t, w] = rng.uniform(-4.0, 4.0, 3)
            phase[t, w] = rng.uniform(0.0, 2.0 * np.pi)
            amp[t, w] = rng.normal()
    return lin, k, phase, amp


def random_test_functions(grid, trials, seed):
    """Smooth scalar test functions: a linear ramp plus a few cosine
    plane waves with full 3-vector frequencies."""
    x1, x2, x3 = grid.coords()
    out = []
    for lin, k, phase, amp in zip(*_trial_draws(trials, seed)):
        psi = lin[0] * x1 + lin[1] * x2 + lin[2] * x3
        for kw, pw, aw in zip(k, phase, amp):
            psi = psi + aw * np.cos(kw[0] * x1 + kw[1] * x2 + kw[2] * x3 + pw)
        out.append(psi)
    return out


def _separable_pairings(s, x, draws):
    """psi . s for each trial psi of ``draws``, with s an (n,n,n) array
    and x the node coordinates of one axis, contracted one axis at a
    time.

    A ramp is a sum of 1-d terms, and a wave is
    cos(k . x + phase) = Re e^{i phase} prod_d e^{i k_d x_d}.  The x3
    axis goes first, as one real einsum of s with the [cos | sin]
    columns of every wave and the ramp's x and 1 columns; the x2 and x1
    axes follow as small complex contractions.  numpy's own einsum loops
    do the work, so the bits do not depend on BLAS threads.
    """
    lin, k, phase, amp = draws
    trials, waves = amp.shape
    kw = k.reshape(-1, 3)
    m = kw.shape[0]
    arg = np.multiply.outer(x, kw[:, 2])
    cols = np.concatenate(
        [np.cos(arg), np.sin(arg), x[:, None], np.ones((x.size, 1))], axis=1)
    t = np.einsum("ijk,km->ijm", s, cols)
    along3 = t[..., :m] + 1j * t[..., m:2 * m]
    along2 = np.einsum("ijm,jm->im", along3,
                       np.exp(1j * np.multiply.outer(x, kw[:, 1])))
    along1 = np.einsum("im,im->m", along2,
                       np.exp(1j * np.multiply.outer(x, kw[:, 0])))
    wave = (np.exp(1j * phase.ravel()) * along1).real * amp.ravel()
    # the ramp pairs to lin . (sum x1 s, sum x2 s, sum x3 s)
    ones = t[..., 2 * m + 1]
    ramp = np.einsum("tc,c->t", lin, [
        np.einsum("i,i->", x, ones.sum(axis=1)),
        np.einsum("j,j->", x, ones.sum(axis=0)), t[..., 2 * m].sum()])
    return ramp + wave.reshape(trials, waves).sum(axis=1)


def _gradient_norms(x, draws):
    """||grad psi||^2 of each trial psi of ``draws``, trapezoid-weighted,
    in closed form from the node coordinates x of one axis.

    psi is a sum of terms Re prod_d f_d(x_d), one per ramp component and
    one per wave, so its stencil partial d_j psi is too, with D f_j in
    place of f_j.  As (Re z)^2 = Re(z z + z conj(z)) / 2 and the weights
    are a product of 1-d trapezoid factors, the weighted sum of
    (d_j psi)^2 is a sum over pairs of terms of products of three 1-d
    weighted sums, taken in numpy's own einsum loops.
    """
    lin, k, phase, amp = draws
    trials, waves = amp.shape
    n = x.size
    h = 2.0 / (n - 1)
    # f[t, d, s]: factor along axis d of term s (ramp x1, x2, x3, waves)
    f = np.ones((trials, 3, 3 + waves, n), complex)
    f[:, range(3), range(3)] = lin[..., None] * x
    f[:, :, 3:] = np.moveaxis(np.exp(1j * np.multiply.outer(k, x)), 2, 1)
    f[:, 0, 3:] *= (amp * np.exp(1j * phase))[..., None]
    df = stencil_partial(f, h, 3, out=np.empty(f.shape, complex))
    # terms[t, j, d, s]: factor along axis d of term s of d_j psi
    terms = np.where(np.eye(3, dtype=bool)[:, :, None, None],
                     df[:, :, None], f[:, None])
    c = _trapezoid(n)
    same = np.einsum("tjdsi,tjdui,i->tjdsu", terms, terms, c)
    cross = np.einsum("tjdsi,tjdui,i->tjdsu", terms, terms.conj(), c)
    pairs = same.prod(axis=2) + cross.prod(axis=2)
    return 0.5 * h ** 3 * pairs.real.sum(axis=(1, 2, 3))


def _gradient_pairings(a: VecField, seed):
    """Arrays of <a, grad psi> and ||grad psi||^2 over the trial psi of
    ``_trial_draws(_TRIALS, seed)``, neither psi nor its gradient formed.

    The pairing is taken by parts: the trapezoid-weighted sum of
    a . grad psi is psi . (G^T W a), with G the discrete gradient, so one
    adjoint serves every trial; ``_separable_pairings`` takes each psi .
    (G^T W a) and ``_gradient_norms`` each ||grad psi||^2.
    """
    draws = _trial_draws(_TRIALS, seed)
    x = a.grid.axis()
    s = solvers.block_adjoint(solvers.GRAD, a.values)[0]
    return _separable_pairings(s, x, draws), _gradient_norms(x, draws)


def _weak_trace_defect(a: VecField):
    """Max over the ``_TRIALS`` test gradients of the relative L^2
    pairing with a, each taken by parts (``_gradient_pairings``)."""
    na = l2_norm(a)
    if na == 0.0:
        return 0.0
    pairing, ng_sq = _gradient_pairings(a, _WEAK_SEED)
    ng = np.sqrt(np.maximum(ng_sq, 0.0))
    return float(np.max(np.abs(pairing) / (na * ng)))


def canonical_gauge(g_form: VecField, cfg: GaugeSolveConfig = None):
    """Solve for the canonical representative a with curl a ~ G.

    Returns (a, GaugeReport).  The solver runs regardless of whether G is
    actually in the range of curl and reports the attainable residual;
    NotConverged (carrying the partial result) is raised when the
    iteration budget runs out first.  A G whose weighted L^2 norm is at
    most ``_NOISE_FLOOR`` gets the zero field without a solve, reported
    with 0 iterations and a relative curl residual of 1 (0 when G = 0).
    """
    if g_form.degree != 2:
        raise ValueError("canonical_gauge expects a degree-2 field")
    cfg = cfg or GaugeSolveConfig()
    grid = g_form.grid
    max_iters, rel_tol = cfg.resolved(grid)
    n = grid.n
    with np.errstate(over="ignore"):  # inf, for the solver to refuse
        g_norm = l2_norm(g_form)
    if g_norm <= _NOISE_FLOOR:
        a = VecField(grid, 1, np.zeros(g_form.values.shape))
        return a, _gauge_report(a, g_form, 0, g_norm)

    mat, stencil = _normal_matrix(n)
    rhs = solvers.block_adjoint(solvers.CURL, g_form.values).ravel()
    x, iters, achieved, converged = solvers.conjugate_gradient(
        mat, rhs, rel_tol, max_iters, stencil)
    del rhs
    a = VecField(grid, 1, np.moveaxis(x.reshape(3, n, n, n), 0, -1).copy())
    del x
    report = _gauge_report(a, g_form, iters, g_norm)
    if not converged:
        raise NotConverged(
            f"gauge solve stopped at {iters} iterations with relative "
            f"gradient {achieved:.3e}", result=(a, report))
    return a, report


def _gauge_report(a, g_form, iters, g_norm):
    resid = curl(a)
    resid.values -= g_form.values
    curl_rel = l2_norm(resid)
    del resid
    curl_rel = curl_rel / g_norm if g_norm > 0.0 else curl_rel
    div_norm = l2_norm(div(a))
    # a face quadrature, not a field norm
    trace, area = face_trace(a.values)
    t = trace * area
    t *= trace
    normal_norm = float(np.sqrt(t.sum()))
    ratio = 0.0
    g_l1 = l1_norm(g_form, region="ball")
    if g_l1 > 0.0:
        ratio = lp_norm(a, 1.5, region="ball") / g_l1
    return GaugeReport(
        curl_residual_rel=curl_rel,
        div_norm=div_norm,
        normal_trace_norm=normal_norm,
        weak_trace_defect=_weak_trace_defect(a),
        iterations=iters,
        l32_l1_ratio=ratio,
    )


def gauge_minimality_check(a: VecField):
    """Best norm reduction ||a|| - min_c ||a + c grad psi|| over random
    smooth trial directions psi (``_TRIALS`` of ``_MINIMALITY_SEED``),
    the scale c minimized in closed form.

    At most solver tolerance exactly when a is L^2-orthogonal to
    gradients (the weak form of the canonical conditions); any leftover
    gradient component shows up as a positive reduction.  The pairings
    with grad psi are taken by parts (``_gradient_pairings``).
    """
    na = l2_norm(a)
    if na == 0.0:
        return 0.0
    pairing, ng_sq = _gradient_pairings(a, _MINIMALITY_SEED)
    keep = ng_sq != 0.0
    best_sq = np.maximum(na * na - pairing[keep] ** 2 / ng_sq[keep], 0.0)
    return float(np.max(na - np.sqrt(best_sq), initial=-np.inf))
