"""Time one fresh-process workload set-up and print it in seconds.

Usage: python3 bench/setup_probe.py WORKLOAD SEED OUT_DIR, with ``src`` on
PYTHONPATH.  The interval matches the one bench/run.py measures in its own
process: importing the workloads module (numpy, scipy, ``mafh``,
``mafh.cli``) and constructing the workload's config and codes.
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (the import is what is timed)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - t0)
