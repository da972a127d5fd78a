"""Print the structured CLI reports of every demo, for byte-for-byte comparison.

Runs, in one process, every demo `solve` (plus the enforced triangle),
`check --gap 1` and `check --gap 3` of the roots-of-unity sequence, its
`extract --gap 3`, `extract --order 4` (an order above the file's, which
exits with the first missing moment) and `extract --order 0` (which has
no shifts), `export-sdpa` of the torus, the ellipse, the enforced reduced
ellipse and the enforced triangle, `sample`, `interpolate --model` and
`signal` of Example 7, `check` and `extract` of its order-2 sample grid
(Hankel data), plus `interpolate` without `--sample` and without any
input (both exit as a bad command line), all but `export-sdpa` and `signal`
with `--format structured --seed 0`.
Each report is preceded by its command line and followed by its exit code
and anything written to stderr. The last report is the exit-code table
that `momext --help` ends with.

Usage, from the root of a checkout:

    python3 tools/demo_reports.py > reports.txt
    python3 tools/demo_reports.py --compare before.txt after.txt

Two checkouts of the program give the same output exactly when every one
of these reports is unchanged, so one `diff` of two such files compares
them. That holds on one machine with one BLAS/LAPACK build: eigensolvers
of different builds differ in the last digits. `--compare` tells such
changes from real ones. It requires the same lines with the same keys,
statuses, exit codes and counts (every token that is not a number, and
every integer), and lets the other numbers differ by up to 1e-9 absolute.
It prints each line that breaks this and exits 1 if there is one.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set, so that two
checkouts compared on hosts with different core counts see the same
summation order. An explicit setting wins.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from momext import cli  # noqa: E402

COMMON = ["--format", "structured", "--seed", "0"]
PLAIN = {"export-sdpa", "signal"}  # commands that print no report and take no COMMON
NUMBER_TOL = 1e-9
INTEGER = re.compile(r"[+-]?\d+")
MOMSEQ = "demo/roots_of_unity.momseq"
EXPSUM = "demo/example7.expsum"
GRID = "demo/example7_grid.momseq"  # `momext sample` of EXPSUM at order 2

COMMANDS = [
    ["solve", "demo/ellipse.pop", "--order", "3"],
    ["solve", "demo/ellipse_reduced.pop", "--order", "2"],
    ["solve", "demo/ellipse_reduced.pop", "--order", "2", "--enforce-hypo"],
    ["solve", "demo/torus.pop", "--order", "3"],
    ["solve", "demo/torus.pop", "--order", "4"],
    ["solve", "demo/triangle.pop", "--order", "3"],
    ["solve", "demo/triangle.pop", "--order", "3", "--enforce-hypo"],
    ["check", MOMSEQ, "--gap", "1"],
    ["check", MOMSEQ, "--gap", "3"],
    ["extract", MOMSEQ, "--gap", "3"],
    ["extract", MOMSEQ, "--order", "4"],
    ["extract", MOMSEQ, "--order", "0"],
    ["export-sdpa", "demo/torus.pop", "--order", "3"],
    ["export-sdpa", "demo/ellipse.pop", "--order", "3"],
    ["export-sdpa", "demo/ellipse_reduced.pop", "--order", "2", "--enforce-hypo"],
    ["export-sdpa", "demo/triangle.pop", "--order", "3", "--enforce-hypo"],
    ["sample", EXPSUM, "--order", "2"],
    ["check", GRID],
    ["extract", GRID],
    ["interpolate", "--model", EXPSUM, "--sample", "2"],
    ["interpolate", "--model", EXPSUM],
    ["interpolate"],
    ["signal", EXPSUM, "--range", "0:3:4", "--range", "0:3:4"],
]


def _number(token):
    """The token as a complex number (reports write 1.5-2e-11i), or None."""
    try:
        return complex(token[:-1] + "j") if token.endswith("i") else complex(float(token))
    except ValueError:
        return None


def _tokens_match(a, b):
    if a == b:
        return True
    x, y = _number(a), _number(b)
    if x is None or y is None or (INTEGER.fullmatch(a) and INTEGER.fullmatch(b)):
        return False
    return abs(x - y) <= NUMBER_TOL


def compare(path_a, path_b):
    """Print the lines of two report files that differ beyond round-off; exit status."""
    with open(path_a) as fa, open(path_b) as fb:
        lines_a, lines_b = fa.read().splitlines(), fb.read().splitlines()
    if len(lines_a) != len(lines_b):
        print(f"{len(lines_a)} lines against {len(lines_b)}")
        return 1
    moved = bad = 0
    for no, (a, b) in enumerate(zip(lines_a, lines_b), 1):
        if a == b:
            continue
        ta, tb = a.split(), b.split()
        if len(ta) == len(tb) and all(map(_tokens_match, ta, tb)):
            moved += 1
        else:
            bad += 1
            print(f"line {no}:\n< {a}\n> {b}")
    print(f"{len(lines_a)} lines: {moved} differ within {NUMBER_TOL:g}, {bad} beyond it")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="Print or compare the demo reports.")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two saved outputs instead of printing")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    os.chdir(ROOT)
    for argv in COMMANDS:
        if argv[0] not in PLAIN:
            argv = argv + COMMON
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        sys.stdout.write(f"=== momext {' '.join(argv)}\n")
        sys.stdout.write(out.getvalue())
        sys.stdout.write(f"--- exit {code}\n")
        if err.getvalue():
            sys.stdout.write(f"--- stderr\n{err.getvalue()}")
    sys.stdout.write(f"=== momext --help\n{cli.EXIT_HELP}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
