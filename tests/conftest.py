import os
import sys
import tracemalloc

import numpy as np
import pytest

import hopflift


@pytest.fixture
def child_env():
    """A builder of environments for child Pythons: ``os.environ`` with
    the given overrides and this source tree first on PYTHONPATH, so that
    ``python -m hopflift`` imports the code under test."""
    src = os.path.dirname(os.path.dirname(hopflift.__file__))

    def build(**overrides):
        env = dict(os.environ, **overrides)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return env
    return build


@pytest.fixture
def alloc_peak():
    """A measurer of allocation peaks: ``alloc_peak(fn, n)`` clears the
    caches of the hopflift modules, runs fn() under tracemalloc and
    returns the peak in n^3 doubles, fn's result included, or less the
    bytes of the result's values when ``beyond_result`` is set.  The
    scipy modules a call imports on first use are imported beforehand,
    so their import is not counted."""
    import scipy.sparse  # noqa: F401
    from scipy import fft  # noqa: F401
    from scipy.sparse import _sparsetools  # noqa: F401

    def measure(fn, n=33, beyond_result=False):
        for name, mod in list(sys.modules.items()):
            if name == "hopflift" or name.startswith("hopflift."):
                for f in vars(mod).values():
                    if hasattr(f, "cache_clear"):
                        f.cache_clear()
        tracemalloc.start()
        try:
            out = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = getattr(out, "values", out)
        if beyond_result and isinstance(own, np.ndarray):
            peak -= own.nbytes
        return peak / (8 * n ** 3)
    return measure
