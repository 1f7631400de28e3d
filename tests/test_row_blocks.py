"""The row-blocked field derivatives against the whole-grid forms they
replaced, bit for bit, and the memory the blocks save.

Each ``whole_*`` function is the consumer as it was written on whole
component planes or whole partials arrays.  The grid sizes take in
grids smaller than a block and last blocks of 1, 2 and 3 rows."""

import numpy as np
import pytest

from hopflift import testmaps
from hopflift import fields
from hopflift.fields import (LiftField, ScalarField, SphereMapField,
                             VecField, component_partials, curl, div,
                             energy_density, grad, l2_norm, make_grid,
                             mollify_components, node_blocks,
                             stencil_partial)
from hopflift.hopf import gauge_of_lift, hopf, section_of_map, stereo_section
from hopflift.lift import default_pole_candidates
from hopflift.pullback import pointwise_identities, pullback_area_form

SIZES = [3, 4, 5, 9, 10, 11, 17, 33]


def component_planes(values):
    """Contiguous (n,n,n) copies of the components of a (n,n,n,c) array."""
    return [np.ascontiguousarray(values[..., c])
            for c in range(values.shape[-1])]


def whole_partials(v, h):
    """(n,n,n,3,c) partials of a (n,n,n,c) array from np.gradient."""
    return np.stack([np.stack(np.gradient(p, h, edge_order=2), axis=-1)
                     for p in component_planes(v)], axis=-1)


def whole_curl(a, h):
    p = component_planes(a)
    out = np.empty(a.shape)
    for c, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.subtract(stencil_partial(p[k], h, j), stencil_partial(p[j], h, k),
                    out=out[..., c])
    return out


def whole_div(a, h):
    out = np.zeros(a.shape[:-1])
    for c, plane in enumerate(component_planes(a)):
        out += stencil_partial(plane, h, c)
    return out


def whole_gauge_of_lift(v, h):
    x1, x2, x3, x4 = component_planes(v)
    neg_x2 = -x2
    out = np.empty(v.shape[:-1] + (3,))
    d = np.empty(x1.shape)
    for j in range(3):
        acc = neg_x2 * stencil_partial(x1, h, j, out=d)
        acc += x1 * stencil_partial(x2, h, j, out=d)
        acc -= x4 * stencil_partial(x3, h, j, out=d)
        acc += x3 * stencil_partial(x4, h, j, out=d)
        np.multiply(2.0, acc, out=out[..., j])
    return out


def whole_area_form(uv, h):
    d = whole_partials(uv, h)
    g = [d[..., j, :] for j in range(3)]
    out = np.empty(uv.shape)
    x = np.empty(uv.shape)
    tmp = np.empty(uv.shape[:-1])
    for k, (a, b) in ((2, (0, 1)), (1, (2, 0)), (0, (1, 2))):
        ga, gb = g[a], g[b]
        for c, (p, q) in enumerate(((1, 2), (2, 0), (0, 1))):
            np.multiply(ga[..., p], gb[..., q], out=x[..., c])
            x[..., c] -= np.multiply(ga[..., q], gb[..., p], out=tmp)
        out[..., k] = np.einsum("...c,...c->...", uv, x)
    return out


def whole_energy_density(v, h):
    d = whole_partials(v[..., None] if v.ndim == 3 else v, h)
    return np.einsum("...jc,...jc->...", d, d)


def whole_section(pts, pole):
    pole = np.asarray(pole, dtype=np.float64)
    pole = pole / np.linalg.norm(pole)
    dots = pts @ pole
    P1, P2, P3 = pole
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    t = np.empty(pts.shape[:-1] + (4,))
    np.subtract(1.0, dots, out=t[..., 0])
    t[..., 1] = P1 * y - P2 * x
    t[..., 2] = P1 * z - P3 * x
    t[..., 3] = P2 * z - P3 * y
    t /= np.linalg.norm(t, axis=-1, keepdims=True)
    a, b, c = 1.0 - P3, P1, P2
    nr = np.sqrt(a * a + b * b + c * c)
    a, b, c = (a / nr, b / nr, c / nr) if nr > 1e-6 else (0.0, 1.0, 0.0)
    r_left = np.array([[a, 0.0, b, c], [0.0, a, c, -b],
                       [-b, -c, a, 0.0], [-c, b, 0.0, a]])
    return np.einsum("ij,...j->...i", r_left, t)


def whole_hopf(q):
    x1, x2, x3, x4 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    u = np.stack([
        2.0 * (x1 * x3 + x2 * x4),
        2.0 * (x1 * x4 - x2 * x3),
        x1 * x1 + x2 * x2 - x3 * x3 - x4 * x4,
    ], axis=-1)
    un = np.sqrt(np.einsum("...c,...c->...", u, u))
    drift = np.abs(un - 1.0)
    if drift.max() > 1e-14:
        u = np.where(drift[..., None] > 1e-14, u / un[..., None], u)
    return u


def whole_phase_rotate(values, phase):
    c, s = np.cos(phase), np.sin(phase)
    for re, im in ((0, 1), (2, 3)):
        v_re, v_im = values[..., re], values[..., im]
        t = v_re * s
        v_re *= c
        v_re -= v_im * s
        v_im *= c
        v_im += t
    return values


def random_unit(n, c, seed):
    v = np.random.default_rng(seed).normal(size=(n, n, n, c))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.mark.parametrize("n", SIZES)
def test_blocked_consumers_match_whole_grid(n):
    grid = make_grid(n)
    h = grid.h
    q = random_unit(n, 4, n)
    s = random_unit(n, 3, n + 1)
    a = np.random.default_rng(n + 2).normal(size=(n, n, n, 3))
    assert np.array_equal(curl(VecField(grid, 1, a)).values, whole_curl(a, h))
    assert np.array_equal(div(VecField(grid, 2, a)).values, whole_div(a, h))
    assert np.array_equal(gauge_of_lift(LiftField(grid, q)).values,
                          whole_gauge_of_lift(q, h))
    assert np.array_equal(pullback_area_form(SphereMapField(grid, s)).values,
                          whole_area_form(s, h))
    for v in (a[..., 0], s, q):
        assert np.array_equal(energy_density(v, h),
                              whole_energy_density(v, h))
    for v in (a, s, q):
        assert np.array_equal(component_partials(v, h), whole_partials(v, h))
    assert np.array_equal(grad(ScalarField(grid, a[..., 0])).values,
                          whole_partials(a[..., :1], h)[..., 0])


@pytest.mark.parametrize("n", [3, 4, 5, 9, 17, 33])
def test_curl_of_channel_slice_matches_contiguous(n):
    # approximate takes the curl of the remainder's channels of a
    # 7-channel array, a strided view
    grid = make_grid(n)
    wide = np.random.default_rng(n + 3).normal(size=(n, n, n, 7))
    got = curl(VecField(grid, 1, wide[..., 4:]))
    want = curl(VecField(grid, 1, np.ascontiguousarray(wide[..., 4:])))
    assert np.array_equal(got.values, want.values)
    assert l2_norm(got) == l2_norm(want)


def test_curl_and_its_norm_refuse_what_a_field_refuses():
    grid = make_grid(9)
    with pytest.raises(ValueError, match="degree-1"):
        curl(VecField(grid, 2, np.zeros((9, 9, 9, 3))))
    # a curl that overflows is not a field; a finite curl whose squares
    # overflow has an infinite norm
    big = np.zeros((9, 9, 9, 3))
    big[4, 4, 4, 2] = 1e308
    big[4, 5, 4, 2] = -1e308
    a = VecField(grid, 1, big)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            curl(a)
        a = VecField(grid, 1, big * 1e-108)
        assert l2_norm(curl(a)) == np.inf


@pytest.mark.parametrize("n", [1, 5, 33])
def test_hopf_matches_stacked_form(n):
    q = random_unit(n, 4, 7 * n)
    # within the input tolerance, but |h(q)| = |q|^2 drifts past 1e-14,
    # so the output is renormalized
    drifted = q * (1.0 + 1e-11 * np.random.default_rng(n).normal(
        size=q.shape[:-1] + (1,)))
    assert np.abs(np.einsum("...c,...c->...", drifted, drifted)
                  - 1.0).max() > 1e-13
    wide = np.concatenate([q, q], axis=-1)
    for vals in (q, drifted, wide[..., 2:6], q[0, 0, 0], drifted[0, 0, 0]):
        got, want = hopf(vals), whole_hopf(vals)
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("count", [0, 1, fields.NODE_BLOCK - 1,
                                   fields.NODE_BLOCK, fields.NODE_BLOCK + 1,
                                   2 * fields.NODE_BLOCK + 1])
def test_node_blocks_tile_in_near_equal_blocks(count):
    # the blocks tile [0, count) in order, as few as NODE_BLOCK allows
    blocks = node_blocks(count)
    edges = [0] + [hi for _, hi in blocks]
    assert blocks == list(zip(edges, edges[1:])) and edges[-1] == count
    assert len(blocks) == -(-count // fields.NODE_BLOCK)
    sizes = [hi - lo for lo, hi in blocks]
    assert all(0 < s <= fields.NODE_BLOCK for s in sizes)
    assert max(sizes, default=0) - min(sizes, default=0) <= 1


def test_hopf_blocks_past_one_block():
    # one more point than three full blocks: four near-equal blocks
    q = random_unit(41, 4, 11).reshape(-1, 4)[:3 * fields.NODE_BLOCK + 1]
    assert np.array_equal(hopf(q), whole_hopf(q))


#: the poles e3 and -e3, where the section's left factor degenerates to j
#: and to 1, and three others
SECTION_POLES = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
                 *default_pole_candidates()[:3]]


@pytest.mark.parametrize("pole", SECTION_POLES)
@pytest.mark.parametrize("n", SIZES)
def test_section_matches_whole_grid(n, pole):
    grid = make_grid(n)
    u = random_unit(n, 3, 5 * n)
    pole_dir = np.asarray(pole) / np.linalg.norm(pole)
    # keep every node clear of the pole's cut
    near = u @ pole_dir > 0.5
    u[near] -= 2.0 * (u[near] @ pole_dir)[:, None] * pole_dir
    got = section_of_map(SphereMapField(grid, u), pole).values
    assert np.array_equal(got, whole_section(u, pole))
    # the section turned in its blocks, against turning the whole section
    phase = np.random.default_rng(n).uniform(-4.0, 4.0, size=(n, n, n))
    got = section_of_map(SphereMapField(grid, u), pole, phase).values
    assert np.array_equal(got, whole_phase_rotate(whole_section(u, pole),
                                                  phase))


def test_section_blocks_past_one_block():
    # one more point than three full blocks, in the (..., 3) form
    pts = random_unit(41, 3, 9).reshape(-1, 3)[:3 * fields.NODE_BLOCK + 1]
    pts[pts[:, 2] > 0.5, 2] *= -1.0
    assert np.array_equal(stereo_section(pts, (0.0, 0.0, 1.0)),
                          whole_section(pts, (0.0, 0.0, 1.0)))
    # 41^3 nodes take five near-equal blocks
    grid = make_grid(41)
    u = random_unit(41, 3, 10)
    u[u[..., 2] > 0.5, 2] *= -1.0
    phase = np.random.default_rng(41).uniform(-4.0, 4.0, size=(41, 41, 41))
    got = section_of_map(SphereMapField(grid, u), (0.0, 0.0, 1.0),
                         phase).values
    assert np.array_equal(got, whole_phase_rotate(
        whole_section(u, (0.0, 0.0, 1.0)), phase))


def test_blocked_consumers_hold_one_block(alloc_peak):
    # beyond its output, each consumer holds one block's partials: a few
    # (BLOCK_ROWS, n, n) planes per component instead of whole planes.
    # Measured at n = 33 (whole-grid forms in brackets): gauge_of_lift
    # 2.24 (8.0), curl 1.27 with the six partials it uses (5.7; 1.63 with
    # all nine), div 0.90 with three (4.7), pullback_area_form 2.38
    # (15.0), energy_density of a lift 0.92 (1.16), section_of_map 5.57
    # (7.0) and pointwise_identities 6.54 (22.2) n^3 doubles.  A 7-channel
    # mollify_components at 4h holds one channel's pruned transforms and
    # one x3-frequency slab of the kernel's spectrum: 7.00 (10.74 with the
    # kernel's whole padded spectrum)
    grid = make_grid(33)
    uhat, u, eta = testmaps.gen_lift_family(grid, 0.8, (1, 0.5, 0),
                                            (0, 1, 0.3))
    channels = np.concatenate([uhat.values, eta.values], axis=-1)
    bounds = [
        (lambda: gauge_of_lift(uhat), 2.5),
        (lambda: curl(eta), 1.4),
        (lambda: div(eta), 1.0),
        (lambda: pullback_area_form(u), 2.6),
        (lambda: energy_density(uhat.values, grid.h), 1.0),
        (lambda: section_of_map(u, (0.0, 0.0, -1.0)), 6.0),
        (lambda: pointwise_identities(u), 7.2),
        (lambda: mollify_components(grid, channels, 4 * grid.h), 7.7),
    ]
    for fn, bound in bounds:
        assert alloc_peak(fn, beyond_result=True) <= bound


def test_whole_partials_hold_one_block(alloc_peak):
    # grad and component_partials stack each row block into their result:
    # the peak is the result and one block, not whole component planes
    # and a second, stacked copy of the partials.  Measured at n = 33,
    # outputs included (whole-plane forms in brackets): grad 3.90 (6.00)
    # and component_partials of a lift 14.00 (24.01) n^3 doubles
    grid = make_grid(33)
    uhat, u, _ = testmaps.gen_lift_family(grid, 0.8, (1, 0.5, 0),
                                          (0, 1, 0.3))
    f = ScalarField(grid, u.values[..., 2].copy())
    assert alloc_peak(lambda: grad(f)) <= 4.3
    assert alloc_peak(lambda: component_partials(uhat.values, grid.h)) <= 15.4
