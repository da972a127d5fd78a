"""Print one exact fingerprint line per extraction and interpolation, for bit-for-bit comparison.

Runs rounds 0-199 of the benchmark's measure_roundtrip draw (conjugate-mode
extraction of random atomic measures) and of the by-hand expsum_roundtrip
draw (Takagi-based interpolation of random exponential sums), at seeds 1 and
7: 2,400 instances. Each line holds the label and either the class name of
the error the instance raised or the SHA-256 of the hex floats of its atoms
and weights (of its terms' weights and frequencies, for expsum). A
conjugate-mode extraction's line then gives its certification and its ranks
of M_0 .. M_d, so a flipped certification or rank decision shows too. The
sibling of `tools/solver_fingerprints.py`: these digests change with the
last bit of any atom, weight or frequency.

Usage, from the root of a checkout:

    python3 tools/extraction_fingerprints.py > fingerprints.txt

On one machine with one BLAS/LAPACK build, an empty `diff` of two
checkouts' outputs shows that these extractions are bit-identical.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set: the summation
order, and with it the last bits, can change with the thread count, so
two checkouts compared on hosts with different core counts would differ
for no reason in the code. An explicit setting wins, as in

    OPENBLAS_NUM_THREADS=2 python3 tools/extraction_fingerprints.py > fingerprints_2.txt
"""

from __future__ import annotations

import hashlib
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from momext.errors import MomextError  # noqa: E402
from momext.extraction import CONJUGATE, extract_measure  # noqa: E402

import workloads  # noqa: E402  (read only: the two draws and their float lists)

SEEDS = (1, 7)
ROUNDS = 200


def digest(workload, out):
    """SHA-256 of the workload's exact hex text of every float in out."""
    return hashlib.sha256(workload.fingerprint(out).encode()).hexdigest()


def line(workload, inst):
    """The instance's digest, or the class name of the error it raised.

    measure_roundtrip runs its workload's extraction, as `execute` does,
    to keep the report that `execute` drops.
    """
    try:
        if isinstance(workload, workloads.MeasureRoundTrip):
            measure, report = extract_measure(inst.data["seq"], dk=1, mode=CONJUGATE,
                                              seed=inst.data["seed"])
            ranks = " ".join(map(str, report.ranks))
            return f"{digest(workload, measure)} {report.certification} ranks {ranks}"
        return digest(workload, workload.execute(inst))
    except MomextError as exc:
        return type(exc).__name__


def instances():
    """(label, workload, instance) for every instance, in output order."""
    for workload in (workloads.MeasureRoundTrip(), workloads.ExpSumRoundTrip()):
        for seed in SEEDS:
            for round_no in range(ROUNDS):
                for inst in workload.make_round(seed, round_no):
                    yield f"{workload.name} seed {seed} {inst.ident} {inst.label}", workload, inst


def main():
    for label, workload, inst in instances():
        print(f"{label}: {line(workload, inst)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
