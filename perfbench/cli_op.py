"""One benchmark op: ``lingeo.cli.main(argv)`` in a fresh process.

    python3 perfbench/cli_op.py <lingeo arguments...>

Exits with the CLI's own code; an exception escaping the CLI exits 70, so
it cannot pass for a verdict (verify exits 1 on a failed check).
"""

import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

if __name__ == "__main__":
    from lingeo import cli

    try:
        rc = cli.main(sys.argv[1:])
    except Exception:
        traceback.print_exc()
        rc = 70
    sys.exit(rc)
