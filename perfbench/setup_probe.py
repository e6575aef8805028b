"""Time one workload's set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <scratch-dir>

Set-up is importing negoteam, building or loading the workload's config and
warming the kernels up: what a user pays before the first session starts.
"""
from time import perf_counter

START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup(Path(sys.argv[2]))
print(perf_counter() - START)
