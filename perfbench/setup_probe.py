"""Set-up time of one fresh process: import momext, then one warm-up instance.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED (run.py starts it).
Prints the seconds spent importing the program and running the first
instance of round 0 (drawing that instance's inputs is not counted), then
the median time of the reference kernel in `calibrate.py` right after.
"""

import time

_start = time.perf_counter()

import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402  (pins BLAS threads before numpy loads)

run.load_program()
import_s = time.perf_counter() - _start

import calibrate  # noqa: E402
import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
workdir = os.path.join(run.ROOT, ".perfbench_out", f"probe-{os.getpid()}")
os.makedirs(workdir)
try:
    wl = workloads.create(name, run.ROOT, workdir)
    inst = wl.make_round(seed, 0)[0]
    start = time.perf_counter()
    wl.execute(inst)
    setup_s = import_s + time.perf_counter() - start
    kernel_s = statistics.median(calibrate.kernel_seconds() for _ in range(41))
    print(setup_s, kernel_s)
finally:
    shutil.rmtree(workdir, ignore_errors=True)
