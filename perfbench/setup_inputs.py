"""One timed set-up: interpreter start, ``import schreierlab``, inputs.

    python3 perfbench/setup_inputs.py WORKLOAD SEED DIRECTORY

``run.py`` starts this before the first job and after each job, and
reports the fastest wall time as ``setup_s``; it expects ``src`` on
``PYTHONPATH``.
"""

import sys
from pathlib import Path

from workloads import build_inputs

if __name__ == "__main__":
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    build_inputs(workload, seed, directory)
