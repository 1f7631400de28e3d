import os

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
