"""Shared fixtures for the tests that run the CLI in a child process."""

import os
import subprocess
import sys

import pytest

import fbsdekit
from fbsdekit import brownian

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directory holding the imported ``fbsdekit``; put first on the child's
# PYTHONPATH so the child runs the same code as the test process, whatever
# directory pytest was started from.
PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(fbsdekit.__file__)))

# ``fbsdekit`` sets these to 1, overriding inherited values; the children
# still start without them, so that each sees only what it is given.
# ``inherit`` puts some back.
THREAD_CAP_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env(threads, inherit=None):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_CAP_VARS}
    env.update(inherit or {})
    env.pop("FBSDE_THREADS", None)
    if threads is not None:
        env["FBSDE_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (PACKAGE_PARENT, os.environ.get("PYTHONPATH")))
    )
    return env


@pytest.fixture
def run_child():
    """Run ``python ARGS`` from the repo root with ``FBSDE_THREADS=threads``
    (unset where ``threads`` is ``None``) and the extra variables in
    ``inherit``."""

    def run(args, threads, inherit=None):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True,
            env=child_env(threads, inherit), cwd=REPO_ROOT, check=True,
        )

    return run


@pytest.fixture
def forked_walks(monkeypatch):
    """Every Brownian walk forks a draw producer, whatever its size, the
    core count and ``FBSDE_THREADS``; returns the list of producer pids."""
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    monkeypatch.setattr(brownian, "_FORK_NORMALS", 0)
    monkeypatch.setattr(brownian, "_producer_allowed", lambda: True)
    return pids


def assert_no_child():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
