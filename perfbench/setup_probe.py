"""Set up one workload in a fresh interpreter, report its cost, tear down on EOF.

    python3 perfbench/setup_probe.py WORKLOAD WORK_DIR SEED

Prints "ready CPU SLICE..." once the first op could be issued: the CPU
seconds this process and its children have used since the process started,
then the CPU seconds of each calibration slice (proc.calibrate) run while
setting up and right after. The inputs in WORK_DIR must already be
prepared; the caller puts the checkout's src/ on PYTHONPATH.
"""

import sys
from pathlib import Path

import proc

sampler = proc.MidOpSampler(0.05)
with sampler:
    from workloads import WORKLOADS

    name, work, seed = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    workload = WORKLOADS[name](work, seed, {})
    cpu = proc.cpu_seconds(proc.child_pids()) - sum(sampler.samples)
speed = [*sampler.samples, proc.calibrate(), proc.calibrate()]
print("ready", repr(cpu), *map(repr, speed), flush=True)
sys.stdin.read()
workload.close()
