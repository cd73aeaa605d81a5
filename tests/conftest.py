"""Shared fixtures."""

import os

import pytest

import qwitness


@pytest.fixture
def subprocess_env():
    """Environment for child interpreters that import the same
    ``qwitness`` package as this test run, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qwitness.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
