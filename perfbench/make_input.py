"""Set-up step of one benchmark run, timed from outside as one process.

    python3 perfbench/make_input.py <workload> <seed> <input-dir>

Imports lingeo from the checkout's ``src``, builds the field, the geometry
and the seeded input set, and writes the input file(s) into <input-dir>.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

if __name__ == "__main__":
    from workloads import WORKLOADS

    name, seed, inp = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    inp.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name].make_input(seed, inp)
