"""Run one workload of the planch benchmark and print its metrics.

    python3 bench/run.py --workload limit-d3 --seed 1 --seconds 20 --trace 0

Workloads: limit-d3, limit-sweep, exact-identity, forms-exact.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics, and a
trace file is written under bench/out/.  See bench/README.md.

The workload runs in a child process started here, so that its set-up time
counts from the start of a fresh interpreter.  The child is held to one
thread of numerical work.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

ONE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def main() -> int:
    worker = Path(__file__).resolve().parent / "worker.py"
    env = dict(os.environ, **ONE_THREAD)
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(worker), *sys.argv[1:],
           "--spawned-at", repr(spawned_at)]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
