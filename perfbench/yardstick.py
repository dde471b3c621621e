"""The yardstick: a fixed kernel that gauges the host's speed.

    python3 perfbench/yardstick.py python|numpy

Prints the wall seconds of each call as a JSON list.  Other tenants of a
shared host slow every process here by up to 2x, in phases of seconds to
tens of minutes, and they slow interpreted Python more than numpy's
memory-bound loops.  So there are two kernels, one per kind of work: a
workload is normalised by the kind that dominates its op.  Neither uses
lingeo and their inputs are fixed, so only the host can move them.  They
run in a process of their own, so that their arrays never count towards
the peak RSS of an op forked after them.
"""

import json
import sys
import time

import numpy as np

# seconds per call at the reference host speed
REFERENCE_S = {"python": 0.1, "numpy": 0.2}


def python_kernel():
    """Integer arithmetic and dict stores, as in the search's DFS."""
    s, d = 0, {}
    for i in range(400_000):
        s += i * i % 7
        d[i & 4095] = s


def numpy_kernel(idx=None, table=None):
    """Gathers, add, mod and sort over 2M int64, as in the line census."""
    for _ in range(5):
        x = (table[idx] + table[idx[::-1]]) % 4093
        x.sort()


if __name__ == "__main__":
    kind = sys.argv[1]
    if kind == "python":
        call, calls = python_kernel, 5
    else:
        rng = np.random.default_rng(20121003)
        args = rng.integers(0, 4096, 2_000_000), rng.integers(0, 4096, 4096)
        call, calls = (lambda: numpy_kernel(*args)), 2
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    print(json.dumps(times))
