"""Smoke test: every numbered demo script runs to completion."""

import glob
import os

import pytest

from conftest import REPO_ROOT

DEMOS = sorted(glob.glob(os.path.join(REPO_ROOT, "demos", "0*.py")))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_exits_cleanly(run_child, demo):
    assert run_child([demo], "1").returncode == 0
