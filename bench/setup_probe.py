"""Time one workload set-up in a fresh process.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the process's CPU seconds from its start to the end of set-up,
children included. run.py starts this with PYTHONPATH and the BLAS thread
settings already set, so that every sample includes the same imports as a
run's own set-up.
"""

import sys
import time
from pathlib import Path

import workloads
from clock import cpu_seconds

workloads.setup(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(cpu_seconds(time.process_time))
