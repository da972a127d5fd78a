"""Print the structured CLI reports of every demo, for byte-for-byte comparison.

Runs, in one process, every demo `solve` (plus the enforced triangle),
`check --gap 1` and `check --gap 3` and `extract` of the roots-of-unity
sequence, and `export-sdpa` of the torus, the ellipse, the enforced reduced
ellipse and the enforced triangle, all with `--format structured --seed 0`.
Each report is preceded by its command line and followed by its exit code
and anything written to stderr.

Usage, from the root of a checkout:

    python3 tools/demo_reports.py > reports.txt

Two checkouts of the program give the same output exactly when every one
of these reports is unchanged, so one `diff` of two such files compares them.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from momext import cli  # noqa: E402

COMMON = ["--format", "structured", "--seed", "0"]
MOMSEQ = "demo/roots_of_unity.momseq"

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
    ["export-sdpa", "demo/torus.pop", "--order", "3"],
    ["export-sdpa", "demo/ellipse.pop", "--order", "3"],
    ["export-sdpa", "demo/ellipse_reduced.pop", "--order", "2", "--enforce-hypo"],
    ["export-sdpa", "demo/triangle.pop", "--order", "3", "--enforce-hypo"],
]


def main():
    os.chdir(ROOT)
    for argv in COMMANDS:
        argv = argv + COMMON
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        sys.stdout.write(f"=== momext {' '.join(argv)}\n")
        sys.stdout.write(out.getvalue())
        sys.stdout.write(f"--- exit {code}\n")
        if err.getvalue():
            sys.stdout.write(f"--- stderr\n{err.getvalue()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
