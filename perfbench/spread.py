"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload cli_demos --seeds 1 2 3 4 5

Runs run.py once per seed, one run at a time, and prints each metric's
median and its interquartile distance as a share of the median, the figure
BENCHMARK.json's bounds are set against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import metrics
import stats

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    bounds = {name: bound for name, _, _, bound in metrics.END_TO_END}
    values = {}
    failed = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--trace", "0"],
            cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            raise SystemExit(f"seed {seed} failed:\n{proc.stderr[-2000:]}")
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        failed.append(f"{result['failed']}/{result['attempted']}")
        for line in lines:
            if line.startswith("metric "):
                _, name, value, _ = line.split()
                values.setdefault(name, []).append(float(value))
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
              + f" failed={failed[-1]} correct={result['correct']}", flush=True)
    for name, vals in values.items():
        if len(vals) < 2 or statistics.median(vals) == 0:
            continue
        spread = stats.quartile_spread(vals)
        bound = bounds.get(name)
        share = f" bound {bound} ({spread / bound:.2f} of it)" if bound else ""
        print(f"{args.workload} {name}: median {statistics.median(vals):.6g} "
              f"spread {spread:.4f}{share}")


if __name__ == "__main__":
    main()
