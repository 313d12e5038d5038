import os

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_antisymmetric(rng, n, scale=1.0):
    m = scale * rng.standard_normal((n, n))
    return m - m.T


def random_gauge(rng, n, scale=1.0):
    return scale * rng.standard_normal((n, n))


def random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def fail_in_forked_children(monkeypatch):
    """Make the trajectory writers' batch stacking raise in every process forked from this one."""
    parent, stack = os.getpid(), np.column_stack

    def column_stack(columns):
        if os.getpid() != parent:
            raise RuntimeError("formatting failed in a forked child")
        return stack(columns)

    monkeypatch.setattr(np, "column_stack", column_stack)


def assert_no_child_left():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
