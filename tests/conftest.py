"""Shared fixtures."""

import contextlib
import hashlib
import io
import os

import pytest

import qwitness
from qwitness.cli import main

# numpy's OpenBLAS picks its kernels for the running CPU (and
# OPENBLAS_CORETYPE overrides the pick); the AVX-512 and the AVX2
# kernels round some floats differently, so the golden digests keep one
# set for each. A family is told by the stdout digest of one golden
# scan, `scan --kind pure-mixed --trials 30 --seed 0`
_KERNEL_FAMILIES = {
    "624895a2ed151302f4028cc3826af3a848863d967e8b57d3c8651eb5e33bd31d": "avx512",
    "64061e6063ff7d8548613187204107102f8d313e85de2eaec92d698c9daecb91": "avx2",
}


@pytest.fixture(scope="session")
def kernel_family():
    """The OpenBLAS kernel family whose golden digests this run checks:
    "avx512" (SkylakeX, Cooperlake) or "avx2" (Haswell, Zen)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        main(["scan", "--kind", "pure-mixed", "--trials", "30", "--seed", "0"])
    fingerprint = hashlib.sha256(out.getvalue().encode()).hexdigest()
    if fingerprint not in _KERNEL_FAMILIES:
        pytest.fail(f"no golden digest set for the BLAS kernels with "
                    f"fingerprint {fingerprint}")
    return _KERNEL_FAMILIES[fingerprint]


@pytest.fixture
def subprocess_env():
    """Environment for child interpreters that import the same
    ``qwitness`` package as this test run, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qwitness.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
