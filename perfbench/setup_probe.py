"""Fresh-interpreter set-up of one workload, timed by ``run.py``.

Imports ``repro``, traces the workload's circuits, constructs every
``OptimizationProblem`` (range analysis included), then prints ``ready``.
The parent measures from process start to that line.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402 - needs the source path first

workloads.setup(sys.argv[1])
print("ready", flush=True)
