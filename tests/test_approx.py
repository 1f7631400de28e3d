import re

import numpy as np
import pytest

from hopflift.approx import approximate, convergence_sweep, write_sweep_csv
from hopflift.errors import ProjectionDegenerate, WidthTooSmall
from hopflift.fields import VecField, make_grid
from hopflift import approx, fields, solvers, testmaps


def family(grid, a=(1, 0, 0), b=(0, 2, 0)):
    """|a| != |b| so the two complex components attenuate differently
    under smoothing; equal frequencies make the projected map exactly
    reproduce the input and the sweep distances floor at rounding."""
    return testmaps.gen_lift_family(grid, np.pi / 4, a, b)


class TestApproximate:
    def test_constant_data_is_fixed(self):
        grid = make_grid(17)
        u = testmaps.gen_constant(grid, (0, 0, 1))
        eta = VecField(grid, 1, np.zeros((17, 17, 17, 3)))
        u_eps, eta_eps, rep = approximate(u, eta, 2.0 * grid.h)
        assert np.abs(u_eps.values - u.values).max() <= 1e-12
        assert np.abs(eta_eps.values).max() <= 1e-12
        assert rep.constraint_residual <= 1e-10
        assert rep.dist_u_w12 <= 1e-10
        assert rep.dist_eta_l2 <= 1e-10

    def test_family_constraint_by_construction(self):
        grid = make_grid(33)
        _, u0, eta0 = family(grid)
        for eps in (4 * grid.h, 2 * grid.h):
            u_eps, eta_eps, rep = approximate(u0, eta0, eps)
            assert rep.constraint_residual <= 50.0 * grid.h ** 2
            assert rep.min_modulus >= 0.5
            # outputs are genuine unit fields
            norms = np.linalg.norm(u_eps.values, axis=-1)
            assert np.abs(norms - 1.0).max() <= 1e-14

    def test_high_frequency_modulus_collapse(self):
        grid = make_grid(33)
        _, u0, eta0 = family(grid, a=(8, 0, 0), b=(8, 0, 0))
        with pytest.raises(ProjectionDegenerate):
            approximate(u0, eta0, 0.25)

    def test_window_exceeding_domain_rejected(self):
        grid = make_grid(33)
        _, u0, eta0 = family(grid)
        with pytest.raises(ProjectionDegenerate):
            approximate(u0, eta0, 0.5)

    def test_width_below_spacing(self):
        grid = make_grid(17)
        _, u0, eta0 = family(grid)
        with pytest.raises(WidthTooSmall):
            approximate(u0, eta0, grid.h / 2.0)

    @pytest.mark.parametrize("eps, message", [
        (0.0625, "eps=0.0625 below grid spacing h=0.125"),
        (float("nan"), "eps=nan is not a finite width"),
    ], ids=["below-spacing", "nan"])
    def test_width_refused_before_lift(self, monkeypatch, eps, message):
        # the mollifier's width checks run before any lift work
        grid = make_grid(17)
        _, u0, eta0 = family(grid)

        def no_lift(*args):
            raise AssertionError("lift reached")

        monkeypatch.setattr(approx, "lift", no_lift)
        with pytest.raises(WidthTooSmall, match=re.escape(message)):
            approximate(u0, eta0, eps)

    def test_outputs_share_no_memory(self, monkeypatch):
        # the lift and remainder are smoothed in place in one channel
        # array; the returned fields must not be views of it or of the
        # inputs
        seen = []

        def recording(grid, values, eps, out=None):
            seen.append((values, out))
            return fields.mollify_components(grid, values, eps, out=out)

        monkeypatch.setattr(approx, "mollify_components", recording)
        grid = make_grid(17)
        _, u0, eta0 = family(grid)
        u_eps, eta_eps, _ = approximate(u0, eta0, 2.0 * grid.h)
        [(channels, out)] = seen
        assert out is channels and channels.shape == (17, 17, 17, 7)
        assert not np.shares_memory(u_eps.values, eta_eps.values)
        for got in (u_eps.values, eta_eps.values):
            for other in (channels, u0.values, eta0.values):
                assert not np.shares_memory(got, other)


class TestApproxMemory:
    """tracemalloc peaks at n = 33 on the skew lift family, in n^3
    doubles, outputs included.  The lift and the remainder are smoothed
    in place in one 7-channel array, and each convolution is freed once
    its channel is written, so beyond the lift's own peak only the
    channels, one channel's pruned transforms and one x3-frequency slab
    of the kernel's spectrum stay alive.  Each bound is the measured peak
    plus 10 %."""

    @pytest.fixture(scope="class")
    def data(self):
        grid = make_grid(33)
        _, u, eta = testmaps.gen_lift_family(grid, 0.8, (1, 0.5, 0),
                                             (0, 1, 0.3))
        return grid, u, eta

    @pytest.mark.parametrize("width, bound", [(4, 19.1), (2, 19.0)])
    def test_approximate_peak(self, data, alloc_peak, width, bound):
        # measured 17.33 (4h) and 17.27 (2h): at both widths the lift's
        # own peak is the call's.  4h read 18.8 with the kernel's whole
        # padded spectrum, 26.6 with one whole padded FFT per channel,
        # and 39.6 and 30.9 before the smoothing step went in place; 2h
        # read 19.6 while the lift held its section through the phase
        # solve
        grid, u, eta = data
        assert alloc_peak(lambda: approximate(u, eta, width * grid.h)) <= bound

    def test_serial_sweep_peak(self, data, alloc_peak, monkeypatch):
        # a finished width keeps only its report, so the serial sweep
        # peaks at the lift's own peak: measured 17.30, 18.7 with the
        # kernel's whole padded spectrum, 26.6 with whole padded FFTs and
        # 42.9 before
        monkeypatch.setenv("HOPFLIFT_THREADS", "1")
        grid, u, eta = data
        h = grid.h
        assert alloc_peak(lambda: convergence_sweep(
            u, eta, [4 * h, 3 * h, 2 * h])) <= 19.1


class TestSweep:
    def test_distances_strictly_decreasing(self):
        # octave-spaced widths: per-node smoothing error falls like eps^2
        # while the smoothed region grows as eps shrinks, so finer
        # spacings can lose monotonicity to the region-growth term
        grid = make_grid(65)
        _, u0, eta0 = family(grid)
        h = grid.h
        reports = convergence_sweep(u0, eta0, [8 * h, 4 * h, 2 * h])
        du = [r.dist_u_w12 for r in reports]
        deta = [r.dist_eta_l2 for r in reports]
        assert du[0] > du[1] > du[2]
        assert deta[0] > deta[1] > deta[2]

    def test_rows_and_csv(self, tmp_path):
        grid = make_grid(17)
        _, u0, eta0 = family(grid)
        h = grid.h
        reports = convergence_sweep(u0, eta0, [2.5 * h, 2 * h])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(reports, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "eps,dist_u_w12,dist_eta_l2,constraint_residual"
        assert len(lines) == 3
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 2.5 * h

    def test_non_decreasing_list_rejected(self):
        grid = make_grid(17)
        _, u0, eta0 = family(grid)
        with pytest.raises(ValueError):
            convergence_sweep(u0, eta0, [2 * grid.h, 4 * grid.h])

    @pytest.mark.parametrize("last", [np.nan, np.inf])
    def test_non_finite_width_rejected_before_any_work(self, monkeypatch,
                                                       last):
        # NaN compares false both ways, so it must fail the decreasing
        # check, not reach approximate after the first width's lift
        calls = []
        monkeypatch.setattr(approx, "approximate",
                            lambda *args: calls.append(args))
        grid = make_grid(17)
        _, u0, eta0 = family(grid)
        with pytest.raises(ValueError, match="strictly decreasing"):
            convergence_sweep(u0, eta0, [2.5 * grid.h, last])
        assert calls == []

    def test_width_error_propagates(self):
        grid = make_grid(17)
        _, u0, eta0 = family(grid)
        with pytest.raises(WidthTooSmall):
            convergence_sweep(u0, eta0, [grid.h / 2.0])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_first_failing_width_raises(self, monkeypatch, threads):
        # the widest width fails after its lift, the narrowest before
        # any work; the error of the first in input order is raised
        monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("HOPFLIFT_THREADS", threads)
        grid = make_grid(17)
        _, u0, eta0 = family(grid)
        with pytest.raises(ProjectionDegenerate):
            convergence_sweep(u0, eta0, [0.5, 2 * grid.h, grid.h / 2.0])

    def test_thread_cap_respects_env(self, monkeypatch):
        monkeypatch.setattr(solvers, "_usable_cpus", lambda: 4)
        monkeypatch.setenv("HOPFLIFT_THREADS", "2")
        assert solvers.worker_count(5) == 2
        # a cap that is not an integer is ignored
        monkeypatch.setenv("HOPFLIFT_THREADS", "not-a-number")
        assert solvers.worker_count(5) == 4

    def test_no_pool_on_one_usable_cpu(self, monkeypatch):
        # HOPFLIFT_THREADS asks for 4 threads, but one CPU is usable: the
        # widths run in order on this thread, CG starts no thread and the
        # FFTs get one worker
        import threading
        import scipy.fft
        monkeypatch.setattr(solvers, "_usable_cpus", lambda: 1)
        monkeypatch.setenv("HOPFLIFT_THREADS", "4")

        def no_thread(*args, **kwargs):
            raise AssertionError("the sweep started a thread")

        ffts = []

        def one_worker(name, fft):
            def call(*args, **kwargs):
                assert kwargs["workers"] == 1
                ffts.append(name)
                return fft(*args, **kwargs)
            return call

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        for name in ("rfft", "fft", "ifft", "irfft"):
            monkeypatch.setattr(scipy.fft, name,
                                one_worker(name, getattr(scipy.fft, name)))
        grid = make_grid(17)
        _, u0, eta0 = family(grid)
        widths = [2.5 * grid.h, 2.25 * grid.h, 2 * grid.h]
        reports = convergence_sweep(u0, eta0, widths)
        assert [r.eps for r in reports] == widths
        # three kernels and 21 channels, each with one real transform
        assert ffts.count("rfft") == 24

    def test_widths_run_in_order_on_the_calling_thread(self, monkeypatch):
        # with two usable CPUs the threads go to CG and the FFTs inside
        # each width, not to the widths: one width's state at a time
        import threading
        monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("HOPFLIFT_THREADS", "2")
        calls = []

        def recording(u, eta, eps, cfg=None):
            calls.append((threading.current_thread(), eps))
            return approximate(u, eta, eps, cfg)

        monkeypatch.setattr(approx, "approximate", recording)
        grid = make_grid(17)
        _, u0, eta0 = family(grid)
        widths = [2.5 * grid.h, 2.25 * grid.h, 2 * grid.h]
        convergence_sweep(u0, eta0, widths)
        assert calls == [(threading.current_thread(), e) for e in widths]

    def test_result_independent_of_workers(self, monkeypatch):
        grid = make_grid(25)
        _, u0, eta0 = family(grid)
        h = grid.h
        monkeypatch.setenv("HOPFLIFT_THREADS", "1")
        serial = convergence_sweep(u0, eta0, [2.5 * h, 2 * h])
        monkeypatch.setenv("HOPFLIFT_THREADS", "4")
        threaded = convergence_sweep(u0, eta0, [2.5 * h, 2 * h])
        for a, b in zip(serial, threaded):
            assert a.row() == b.row()
