"""Print one exact fingerprint line per SDP solve, for bit-for-bit comparison.

Solves every demo problem at relaxation orders 3 and 4, plain and with the
joint-hyponormality block enforced, then rounds 0-9 of the benchmark's pop_ball
draw at seed 1 (three instances a round). Each line holds the label, the
solver status, the iteration count and the SHA-256 of the hex floats of
`variables`, `history` and `steps`. The reports of `tools/demo_reports.py`
print 12 digits; these digests change with the last bit of any iterate.

Usage, from the root of a checkout:

    python3 tools/solver_fingerprints.py > fingerprints.txt

On one machine with one BLAS/LAPACK build, an empty `diff` of two
checkouts' outputs shows that these solves are bit-identical.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set: the summation
order, and with it the last bits, can change with the thread count, so
two checkouts compared on hosts with different core counts would differ
for no reason in the code. An explicit setting wins, as in

    OPENBLAS_NUM_THREADS=2 python3 tools/solver_fingerprints.py > fingerprints_2.txt
"""

from __future__ import annotations

import hashlib
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from momext import hierarchy, sdp  # noqa: E402

import workloads  # noqa: E402  (read only: the pop_ball draw)

DEMOS = ["ellipse", "ellipse_reduced", "torus", "triangle"]
POP_BALL_SEED = 1
POP_BALL_ROUNDS = 10


def fingerprint(solution):
    """Status, iterations and one digest of every float the solve returned."""
    floats = list(solution.variables)
    floats += [v for entry in solution.history for v in entry]
    floats += [v for entry in solution.steps for v in entry]
    text = " ".join(float(v).hex() for v in floats)
    return f"{solution.status} {solution.iterations} {hashlib.sha256(text.encode()).hexdigest()}"


def solves():
    """(label, problem, order, enforce) for every solve, in output order."""
    for name in DEMOS:
        problem = hierarchy.parse_problem(os.path.join(ROOT, "demo", f"{name}.pop"))
        for order in (3, 4):
            for enforce in (False, True):
                label = f"{name} d{order}" + (" enforced" if enforce else "")
                yield label, problem, order, enforce
    pop_ball = workloads.PopBall()
    for round_no in range(POP_BALL_ROUNDS):
        for inst in pop_ball.make_round(POP_BALL_SEED, round_no):
            label = f"pop_ball seed {POP_BALL_SEED} {inst.ident} {inst.label}"
            yield label, inst.data["problem"], inst.data["d"], True


def main():
    for label, problem, order, enforce in solves():
        relaxation, _ = hierarchy.assemble_relaxation(
            problem, order, enforce_hyponormality=enforce)
        solution = sdp.solve(hierarchy.realify(relaxation))
        print(f"{label}: {fingerprint(solution)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
