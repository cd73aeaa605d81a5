"""Shared fixtures."""

import os

import pytest
from test_manifest import fingerprint, write_inputs

import qwitness


@pytest.fixture(scope="session")
def golden_inputs(tmp_path_factory):
    """Every input file the golden manifest names, written once: each
    token's path."""
    return write_inputs(tmp_path_factory.mktemp("inputs"))


@pytest.fixture(scope="session")
def kernel_family(golden_inputs):
    """The OpenBLAS kernel family whose manifest column this run checks:
    "avx512" (SkylakeX, Cooperlake) or "avx2" (Haswell, Zen)."""
    family, digest = fingerprint(golden_inputs)
    if family is None:
        pytest.fail(f"no manifest column for the BLAS kernels with "
                    f"fingerprint {digest}")
    return family


@pytest.fixture
def subprocess_env():
    """Environment for child interpreters that import the same
    ``qwitness`` package as this test run, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qwitness.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
