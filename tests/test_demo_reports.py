import importlib.util
import os

import pytest

PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "demo_reports.py")
spec = importlib.util.spec_from_file_location("demo_reports", PATH)
demo_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(demo_reports)

BEFORE = """=== momext solve demo/torus.pop --order 3 --format structured --seed 0
solver.status optimal
solver.iterations 23
extraction.ranks 1 2 2 2
extraction.reconstruction_residual 7.92133691974e-10
measure.atom 1.01930741942-1.04326279854e-11i 0.502057562811+0i
--- exit 0
"""


def compare(tmp_path, after):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(BEFORE)
    b.write_text(after)
    return demo_reports.compare(str(a), str(b))


class TestCompare:
    def test_identical(self, tmp_path):
        assert compare(tmp_path, BEFORE) == 0

    def test_round_off_in_reals_and_complexes_passes(self, tmp_path):
        after = (BEFORE.replace("7.92133691974e-10", "7.92137022643e-10")
                 .replace("-1.04326279854e-11i", "-1.04315401429e-11i"))
        assert compare(tmp_path, after) == 0

    @pytest.mark.parametrize("old, new", [
        ("7.92133691974e-10", "7.92133691974e-08"),  # a number beyond 1e-9
        ("0.502057562811+0i", "0.502057562811+2e-9i"),
        ("optimal", "max_iter"),  # a status
        ("1 2 2 2", "1 2 3 2"),  # a count
        ("iterations 23", "iterations 24"),
        ("exit 0", "exit 7"),  # an exit code
        ("extraction.ranks", "extraction.rank"),  # a key
        ("1 2 2 2", "1 2 2"),  # a token fewer
    ])
    def test_real_changes_fail(self, tmp_path, old, new):
        assert compare(tmp_path, BEFORE.replace(old, new)) == 1

    def test_missing_line_fails(self, tmp_path):
        assert compare(tmp_path, BEFORE.replace("solver.status optimal\n", "")) == 1
