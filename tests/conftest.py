"""Checks that apply to every test."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def no_stray_children():
    """Fail a test that leaves a child process behind, running or unreaped.

    Forked scan workers are reaped by the scan on every path, and
    subprocesses by whoever starts them.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind "
                f"({f'pid {pid}, now reaped' if pid else 'still running'})")
