"""``import lingeo`` holds numpy's OpenBLAS pool to one thread, and keeps
a thread count the user chose."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_import(env):
    """Thread count and OPENBLAS_NUM_THREADS of a new interpreter after
    ``import lingeo``."""
    code = ("import os, lingeo\n"
            "threads = [l for l in open('/proc/self/status')"
            " if l.startswith('Threads:')]\n"
            "print(threads[0].split()[1], os.environ['OPENBLAS_NUM_THREADS'])")
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"} | env
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + env.get("PYTHONPATH", "").split(os.pathsep))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    return int(out[0]), out[1]


@pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                    reason="reads the thread count from Linux's /proc")
def test_import_starts_no_blas_pool():
    # lingeo never calls BLAS, so numpy's OpenBLAS pool is held to one thread
    assert _fresh_import({}) == (1, "1")
    # a value the user set is kept
    assert _fresh_import({"OPENBLAS_NUM_THREADS": "3"})[1] == "3"
