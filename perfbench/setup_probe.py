"""Set-up time of one workload in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Times the import of pointcell plus building the workload's inputs (the point
cloud and its kd-tree, and the mesh where the task takes one) and prints the
seconds on its last line.  run.py starts it several times per run.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

workload, seed = sys.argv[1], int(sys.argv[2])
t0 = time.perf_counter()
import pointcell  # noqa: E402,F401  (the import is what is timed)
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[workload](seed).setup()
print(time.perf_counter() - t0)
