"""momext benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_demos --seed 1 --trace 0
    python3 perfbench/run.py            # every benchmark workload, one process each
    python3 perfbench/run.py --workload pop_ball --trace 1   # by hand only, as is expsum_roundtrip
    python3 perfbench/run.py --list     # metric tables and what each should move

One process, closed loop, one instance at a time, BLAS pinned to one
thread. Input generation and oracle checks are never timed. A run measures
for the `run_seconds` of BENCHMARK.json, in wall time, and reports times
scaled to a reference host speed (calibrate.py). With `--trace 0` the run
reports the end-to-end metrics; with `--trace 1` it runs a fixed number
of rounds untraced, replays the same instances under the span tracer,
requires bit-identical results, and reports the per-layer metrics. The
last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import os

# before numpy loads: one BLAS thread, also in the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import hashlib
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import calibrate
import metrics
import spans
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]  # timed seconds of one run
WORKLOAD_NAMES = ["measure_roundtrip", "cli_demos"]  # as in BENCHMARK.json
BY_HAND = ["pop_ball", "expsum_roundtrip"]  # not benchmark workloads: their oracles miss now and then
DEV_SEED = 1
HELDOUT_SEED = 20261017  # kept out of tuning; verify later claims on it too
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


def load_program():
    """Import momext from this checkout's src/ and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "momext", "__init__.py")):
        raise SystemExit(f"perfbench: no momext sources under {SRC}")
    sys.path.insert(0, SRC)
    import momext
    import momext.cli  # noqa: F401  (not imported by the package itself)

    if not os.path.abspath(momext.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported momext from {momext.__file__}, not {SRC}")


@dataclass
class Outcome:
    ident: str
    label: str
    seconds: float
    kernel_s: float  # the reference kernel, run right after the instance
    reason: str | None  # None when the oracle accepted the output
    hard: bool  # a failure that makes the whole run incorrect
    fingerprint: object


def run_instances(wl, seed, rounds=None, budget_s=float("inf"), tracer=None):
    """Whole rounds until `rounds` are done or the timed seconds reach the budget.

    Returns the outcomes and the timed seconds.
    """
    from momext.errors import MomextError

    outcomes = []
    timed = 0.0
    for round_no in itertools.count():
        if timed >= budget_s or (rounds is not None and round_no >= rounds):
            break
        for inst in wl.make_round(seed, round_no):
            gc.collect()
            if tracer is not None:
                tracer.instance = inst.ident
            start = time.perf_counter()
            try:
                out = wl.execute(inst)
                reason, hard = None, False
            except MomextError as exc:  # a documented refusal: a failed instance
                out, reason, hard = None, f"raised {type(exc).__name__}: {exc}", False
            except Exception as exc:  # a crash: recorded, and the run is incorrect
                out, reason, hard = None, f"crashed {type(exc).__name__}: {exc}", True
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.instance = None
            kernel_s = calibrate.kernel_seconds()
            if reason is None:
                try:
                    reason = wl.check(inst, out)
                except Exception as exc:
                    reason = f"output unreadable by the oracle: {type(exc).__name__}: {exc}"
                    hard = True
            hard = hard or (reason is not None and wl.exact)
            fp = wl.fingerprint(out) if out is not None else reason
            outcomes.append(Outcome(inst.ident, inst.label, elapsed, kernel_s, reason, hard, fp))
            timed += elapsed
    return outcomes, timed


def setup_seconds(name, seed):
    """Median over fresh processes of `import momext` plus one warm-up instance.

    Returns (scaled to the reference speed, wall) seconds.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    values, walls = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, probe, name, str(seed)], cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        wall, kernel_s = map(float, proc.stdout.split()[-2:])
        walls.append(wall)
        values.append(wall * calibrate.REF_S / kernel_s)
    return statistics.median(values), statistics.median(walls)


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "momext")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            h.update(fname.encode())
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_record(name, args, outcomes, tail_pct):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    samples = {}
    for o in outcomes:
        samples[o.label] = samples.get(o.label, 0) + 1
    return {
        "workload": name, "seed": args.seed, "heldout_seed": HELDOUT_SEED,
        "seconds": RUN_SECONDS, "trace": args.trace,
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "samples": samples, "tail_percentile": tail_pct,
        "load": "one process, closed loop, one instance at a time",
    }


def run_workload(name, args):
    import workloads  # imports momext, so only after load_program()

    wl_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(wl_dir, exist_ok=True)
    workdir = os.path.join(wl_dir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.create(name, ROOT, workdir)
        warm = wl.make_round(args.seed, 0)[0]
        wl.execute(warm)  # untimed: first-call costs belong to setup_s
        if args.trace:
            return trace_run(name, wl, args, wl_dir)
        return timed_run(name, wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _failures(outcomes):
    """Print the failed instances; return (failed count, run still correct)."""
    failed = [o for o in outcomes if o.reason is not None]
    for o in failed[:20]:
        print(f"fail {o.ident} {o.label}{' (hard)' if o.hard else ''}: {o.reason}")
    return len(failed), not any(o.hard for o in failed)


def round_median(outcomes, times):
    """Median over rounds of the mean instance time in a round.

    Every round holds one instance of each class, so unlike the median of
    all instances this does not sit on the edge between two classes.
    """
    rounds = {}
    for o, t in zip(outcomes, times):
        rounds.setdefault(o.ident.split(".")[0], []).append(t)
    return statistics.median(statistics.fmean(ts) for ts in rounds.values())


def timed_run(name, wl, args):
    outcomes, timed = run_instances(wl, args.seed, budget_s=RUN_SECONDS)
    factors = calibrate.factors([o.kernel_s for o in outcomes])
    times = [o.seconds * f for o, f in zip(outcomes, factors)]
    tail_s, tail_pct, n = stats.tail(times)
    failed, correct = _failures(outcomes)
    setup_s, setup_wall = setup_seconds(name, args.seed)
    wall = [o.seconds for o in outcomes]
    values = {
        "setup_s": setup_s,
        "instance_s_p50": round_median(outcomes, times),
        "instance_s_tail": tail_s,
        "instances_per_s": n / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"fail_frac": failed / n, "tail_percentile": tail_pct, "samples": n,
             "speed_factor": statistics.median(factors), "setup_s_wall": setup_wall,
             "instance_s_p50_wall": round_median(outcomes, wall),
             "instance_s_tail_wall": stats.tail(wall)[0], "instances_per_s_wall": n / timed}
    record = run_record(name, args, outcomes, tail_pct)
    print("record " + json.dumps(record, sort_keys=True))
    units = {m[0]: m[1] for m in metrics.END_TO_END + metrics.END_TO_END_EXTRA}
    for key, value in {**values, **extra}.items():
        print(f"metric {key} {value!r} {units[key]}")
    return {"correct": correct, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def trace_run(name, wl, args, out_dir):
    # a fixed number of rounds, so counts repeat exactly; the time cap only
    # guards the run's 180 s limit against a much slower program
    plain, _ = run_instances(wl, args.seed, rounds=wl.trace_rounds, budget_s=3 * RUN_SECONDS)
    rounds = len({o.ident.split(".")[0] for o in plain})
    tracer = spans.Tracer()
    with tracer:
        traced, _ = run_instances(wl, args.seed, rounds=rounds, tracer=tracer)
    identical = [(o.reason, o.fingerprint) for o in plain] == [
        (o.reason, o.fingerprint) for o in traced]
    if not identical:
        print("fail traced results differ from the untraced run")
    failed, correct = _failures(traced)
    overhead = (statistics.median([o.seconds for o in traced])
                / statistics.median([o.seconds for o in plain]) - 1.0)
    values = metrics.layer_values(tracer.spans, tracer.counts, overhead)
    tracer.dump(os.path.join(out_dir, f"spans-{name}-seed{args.seed}.jsonl"))
    record = run_record(name, args, traced, None)
    record["trace_rounds"] = rounds
    print("record " + json.dumps(record, sort_keys=True))
    units = {m[0]: m[1] for m in metrics.PER_LAYER}
    for key, value in values.items():
        print(f"metric {key} {value!r} {units[key]}")
    return {"correct": identical and correct, "attempted": len(traced), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def run_all(args):
    """Every workload in its own process; print one row per workload."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 60)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} failed:\n{proc.stderr[-2000:]}")
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        shown = {}
        for line in lines[:-1]:
            if line.startswith("metric "):
                _, key, value, unit = line.split()
                shown[key] = (value, unit)
            elif line.startswith("fail "):
                print(f"{name}: {line}")
        rows[name] = result
        print(f"== {name} (seed {args.seed}, {RUN_SECONDS} s, trace {args.trace})")
        for key, (value, unit) in shown.items():
            print(f"  {key:48s} {float(value):>14.6g} {unit}")
    return {"correct": all(r["correct"] for r in rows.values()),
            "attempted": sum(r["attempted"] for r in rows.values()),
            "failed": sum(r["failed"] for r in rows.values()),
            "metrics": {f"{w}.{k}": v for w, r in rows.items() for k, v in r["metrics"].items()}}


def print_tables():
    print("end-to-end: name unit better bound")
    for row in metrics.END_TO_END:
        print("  " + " ".join(map(str, row)))
    print("per-layer: name unit better | should move | on workload")
    for name, unit, better, moves, on in metrics.PER_LAYER:
        print(f"  {name} {unit} {better} | {moves} | {on}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + BY_HAND, default=None,
                        help="one workload (default: every benchmark workload, each in its own process)")
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    # The run length is BENCHMARK.json's run_seconds; the flag is accepted so
    # that the standard command line works, and must repeat that value.
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"must be run_seconds of BENCHMARK.json ({RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print the metric tables")
    args = parser.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds must be {RUN_SECONDS}, the run_seconds of BENCHMARK.json")
    if args.list:
        print_tables()
        return 0
    load_program()
    result = run_workload(args.workload, args) if args.workload else run_all(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
