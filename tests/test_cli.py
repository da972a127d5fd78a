import io
import os
from contextlib import redirect_stdout

import numpy as np

from momext.cli import main
from momext.extraction import read_measure
from momext.interp import read_model, write_model
from momext.moment import read_sequence, write_sequence

import paperdata as pd

DEMO = os.path.join(os.path.dirname(__file__), "..", "demo")


def demo(name):
    return os.path.join(DEMO, name)


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def write_fixture(tmp_path, seq, name):
    path = str(tmp_path / name)
    write_sequence(seq, path)
    return path


class TestExtractCommand:
    def test_example3_success(self, tmp_path):
        seq_path = write_fixture(tmp_path, pd.ex3_seq(), "ex3.momseq")
        out = str(tmp_path / "ex3.measure")
        code, text = run(["extract", seq_path, "--gap", "2",
                          "--tol-preset", "printed", "--out", out,
                          "--format", "structured"])
        assert code == 0
        measure = read_measure(out)
        assert len(measure.atoms) == 2
        rows = dict(line.split(" ", 1) for line in text.strip().splitlines())
        assert rows["extraction.certification"] == "certified"

    def test_example1_shift_inconsistent_exit(self, tmp_path, capsys):
        seq_path = write_fixture(tmp_path, pd.ex1_seq(), "ex1.momseq")
        code, text = run(["extract", seq_path])
        assert code == 7
        assert "shift_residual" not in text  # failed before the family existed
        assert "ShiftInconsistent" in text

    def test_example2_not_hyponormal_exit(self, tmp_path):
        seq_path = write_fixture(tmp_path, pd.ex2_seq(), "ex2.momseq")
        code, text = run(["extract", seq_path, "--tol-preset", "printed"])
        assert code == 9
        line = next(l for l in text.splitlines() if "operator_hypo_min_eig" in l)
        value = float(line.split()[-1])
        assert abs(value - pd.EX2_OPERATOR_MIN_EIG) < 1e-2

    def test_reports_byte_identical(self, tmp_path):
        seq_path = write_fixture(tmp_path, pd.ex3_seq(), "ex3.momseq")
        args = ["extract", seq_path, "--gap", "2", "--tol-preset", "printed",
                "--format", "structured", "--seed", "5"]
        _, first = run(args)
        _, second = run(args)
        assert first == second


class TestCheckCommand:
    def test_example5(self, tmp_path):
        seq_path = write_fixture(tmp_path, pd.ex5_seq(3), "ex5.momseq")
        code, text = run(["check", seq_path, "--format", "structured"])
        assert code == 0
        rows = dict(line.split(" ", 1) for line in text.strip().splitlines())
        assert rows["structure.toeplitz"] == "True"
        assert rows["structure.hermitian"] == "True"
        assert rows["structure.hankel"] == "False"
        assert rows["ranks"] == "1 2 2 2"
        assert rows["flat_step1"] == "True"

    def test_example6(self, tmp_path):
        seq_path = write_fixture(tmp_path, pd.ex6_seq(), "ex6.momseq")
        code, text = run(["check", seq_path, "--tol-preset", "printed",
                          "--format", "structured"])
        rows = dict(line.split(" ", 1) for line in text.strip().splitlines())
        assert rows["structure.hankel"] == "True"
        assert rows["ranks"] == "1 3 3"

    def test_example2_data_block(self, tmp_path):
        seq_path = write_fixture(tmp_path, pd.ex2_seq(), "ex2.momseq")
        code, text = run(["check", seq_path, "--format", "structured"])
        rows = dict(line.split(" ", 1) for line in text.strip().splitlines())
        assert abs(float(rows["data_hypo_min_eig"]) - pd.EX2_DATA_MIN_EIG) < 1e-2

    def test_never_modifies_input(self, tmp_path):
        seq_path = write_fixture(tmp_path, pd.ex5_seq(3), "ex5.momseq")
        before = open(seq_path).read()
        run(["check", seq_path])
        assert open(seq_path).read() == before


class TestSolveCommand:
    def test_example4_enforced(self, tmp_path):
        out = str(tmp_path / "m.measure")
        code, text = run(["solve", demo("ellipse_reduced.pop"), "--order", "2",
                          "--enforce-hypo", "--out", out, "--format", "structured"])
        assert code == 0
        rows = dict(line.split(" ", 1) for line in text.strip().splitlines())
        assert abs(float(rows["solver.primal_objective"]) - 0.428175) < 5e-3
        measure = read_measure(out)
        assert len(measure.atoms) == 1
        assert abs(measure.atoms[0][0] - pd.EX4_ATOM[0]) < 5e-3
        assert abs(measure.atoms[0][1] - pd.EX4_ATOM[1]) < 5e-3

    def test_example4_plain_fails_hyponormality(self, tmp_path):
        code, text = run(["solve", demo("ellipse_reduced.pop"), "--order", "2",
                          "--format", "structured"])
        assert code == 9
        rows = dict(line.split(" ", 1) for line in text.strip().splitlines())
        assert abs(float(rows["solver.primal_objective"]) - 0.155089) < 5e-3
        assert rows["error"] == "NotHyponormal"

    def test_order_too_small_exit(self):
        code, _ = run(["solve", demo("ellipse.pop"), "--order", "1"])
        assert code == 5

    def test_example6_solution(self, tmp_path):
        out = str(tmp_path / "m.measure")
        code, text = run(["solve", demo("triangle.pop"), "--order", "3",
                          "--out", out, "--format", "structured"])
        assert code == 0
        rows = dict(line.split(" ", 1) for line in text.strip().splitlines())
        assert abs(float(rows["solver.primal_objective"]) - (-2.0)) < 5e-3
        measure = read_measure(out)
        got = {tuple(np.round(np.real(a), 2)) for a in measure.atoms}
        assert got == {(1.0, 2.0), (2.0, 2.0), (2.0, 3.0)}

    def test_stalled_solves_still_extract(self):
        # these relaxations stall short of the residual target; the moments
        # of the last iterate still yield the minimizers
        for name, atoms, flags in (("ellipse.pop", 2, []), ("torus.pop", 2, []),
                                   ("triangle.pop", 3, []),
                                   ("triangle.pop", 3, ["--enforce-hypo"])):
            code, text = run(["solve", demo(name), "--order", "3", "--format", "structured",
                              *flags])
            rows = dict(line.split(" ", 1) for line in text.strip().splitlines())
            assert code == 0, name
            assert rows["solver.status"] == "stalled", name
            assert int(rows["solver.iterations"]) < 60, name
            assert int(rows["extraction.atom_count"]) == atoms, name

    def test_no_matrix_decomposed_twice(self, monkeypatch):
        # the feasibility report ranks M_3 with the eigenvalues the
        # extraction computed
        from momext import linalg

        seen = []
        original = linalg.hermitian_eig

        def recording(a, *args, **kwargs):
            seen.append(np.asarray(a).tobytes())
            return original(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "hermitian_eig", recording)
        code, text = run(["solve", demo("triangle.pop"), "--order", "3",
                          "--format", "structured"])
        assert code == 0 and "expected_zeros=2" in text
        assert len(seen) == len(set(seen))


class TestInterpolationCommands:
    def test_sample_then_interpolate_round_trip(self, tmp_path):
        model_path = str(tmp_path / "truth.expsum")
        write_model(pd.ex7_model().canonical(), model_path)
        samples_path = str(tmp_path / "grid.momseq")
        code, _ = run(["sample", model_path, "--order", "2", "--out", samples_path])
        assert code == 0
        rec_path = str(tmp_path / "rec.expsum")
        code, text = run(["interpolate", samples_path, "--out", rec_path,
                          "--format", "structured"])
        assert code == 0
        rows = dict(line.split(" ", 1) for line in text.strip().splitlines()
                    if " " in line and not line.startswith("model.term "))
        assert float(rows["resampling_residual"]) <= 1e-6
        rec = read_model(rec_path)
        truth = pd.ex7_model().canonical()
        for a, b in zip(rec.terms, truth.terms):
            assert abs(a.weight - b.weight) < 1e-6
            assert max(abs(x - y) for x, y in zip(a.frequencies, b.frequencies)) < 1e-6

    def test_interpolate_from_model_flag(self, tmp_path):
        model_path = str(tmp_path / "truth.expsum")
        write_model(pd.ex7_model().canonical(), model_path)
        code, text = run(["interpolate", "--model", model_path, "--sample", "2",
                          "--format", "structured"])
        assert code == 0
        assert "model.terms 2" in text

    def test_round_trip_canonical_file_identity(self, tmp_path):
        model_path = str(tmp_path / "truth.expsum")
        write_model(pd.ex7_model().canonical(), model_path)
        samples_path = str(tmp_path / "grid.momseq")
        run(["sample", model_path, "--order", "2", "--out", samples_path])
        rec_path = str(tmp_path / "rec.expsum")
        run(["interpolate", samples_path, "--out", rec_path])
        rec2_path = str(tmp_path / "rec2.expsum")
        samples2 = str(tmp_path / "grid2.momseq")
        run(["sample", rec_path, "--order", "2", "--out", samples2])
        run(["interpolate", samples2, "--out", rec2_path])
        # second pass is a fixed point of the canonical form up to float print
        first = open(rec_path).read()
        second = open(rec2_path).read()
        t1 = read_model(first)
        t2 = read_model(second)
        for a, b in zip(t1.terms, t2.terms):
            assert abs(a.weight - b.weight) < 1e-9

    def test_signal_table(self, tmp_path):
        model_path = str(tmp_path / "truth.expsum")
        write_model(pd.ex7_model().canonical(), model_path)
        out = str(tmp_path / "sig.csv")
        code, _ = run(["signal", model_path, "--range", "0:9:10",
                       "--range", "0:9:10", "--part", "real", "--out", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "z1,z2,real"
        assert len(lines) == 101
        assert all(np.isfinite(float(line.split(",")[-1])) for line in lines[1:])


class TestSdpaCommands:
    def test_export_and_import(self, tmp_path):
        dats = str(tmp_path / "torus.dat-s")
        code, _ = run(["export-sdpa", demo("torus.pop"), "--order", "3",
                       "--out", dats])
        assert code == 0
        header = open(dats).read().splitlines()
        assert header[0].startswith('"')

        # produce a solution with the internal solver and import it back
        from momext.hierarchy import assemble_relaxation, parse_problem, realify
        from momext.sdp import solve

        problem = parse_problem(demo("torus.pop"))
        sdp, rmap = assemble_relaxation(problem, 3)
        sol = solve(realify(sdp))
        sol_path = str(tmp_path / "y.txt")
        with open(sol_path, "w") as fh:
            fh.write(" ".join(format(v, ".17g") for v in sol.variables))
        seq_path = str(tmp_path / "sol.momseq")
        code, _ = run(["import-solution", demo("torus.pop"), sol_path,
                       "--order", "3", "--out", seq_path])
        assert code == 0
        seq = read_sequence(seq_path)
        assert seq.is_hermitian(1e-9)

    def test_import_length_mismatch_exit(self, tmp_path):
        sol_path = str(tmp_path / "y.txt")
        with open(sol_path, "w") as fh:
            fh.write("1 2 3")
        code, _ = run(["import-solution", demo("torus.pop"), sol_path,
                       "--order", "3"])
        assert code == 21


class TestErrorMapping:
    def test_bad_sequence_file(self, tmp_path):
        path = str(tmp_path / "bad.momseq")
        with open(path, "w") as fh:
            fh.write("not a sequence\n")
        code, _ = run(["extract", path])
        assert code == 3

    def test_unreadable_input_path(self, tmp_path, capsys):
        code, out = run(["extract", str(tmp_path / "missing.momseq")])
        assert code == 22
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("momext: FileNotFoundError: ")
        assert err.count("\n") == 1

    def test_repeated_header_field_exits_parse_error(self, tmp_path, capsys):
        # a trailing 'n 2' used to turn this into a two-variable model
        path = str(tmp_path / "repeated.expsum")
        with open(path, "w") as fh:
            fh.write("expsum 1\nn 1\nterm 1 0 0.5 0\nn 2\n")
        code, out = run(["sample", path, "--order", "2"])
        assert code == 3
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("momext: ParseError: ")
        assert err.count("\n") == 1

    def test_bad_solver_options_exit_bad_command_line(self, monkeypatch, capsys):
        from momext import hierarchy

        def assemble(*args, **kwargs):
            raise AssertionError("a relaxation was assembled")

        monkeypatch.setattr(hierarchy, "assemble_relaxation", assemble)
        for flag, value in (("--gap-tol", "0"), ("--feas-tol", "0"),
                            ("--max-iterations", "-1"), ("--gap-tol", "nan")):
            code, out = run(["solve", demo("torus.pop"), "--order", "3", flag, value])
            assert code == 2
            assert out == ""
            err = capsys.readouterr().err
            assert err.startswith("momext: solve: bad solver option: ")
            assert err.count("\n") == 1

    def test_interpolate_rejects_paired_file(self, tmp_path):
        path = write_fixture(tmp_path, pd.ex5_seq(3), "paired.momseq")
        code, _ = run(["interpolate", path])
        assert code == 3

    def test_codes_documented_in_help(self):
        from momext.cli import build_parser

        text = build_parser().format_help()
        for needle in ("exit codes", "NotFlat", "NotHyponormal",
                       "ShiftInconsistent", "RankNotStabilized"):
            assert needle in text

    def test_every_error_class_has_unique_code(self):
        from momext.cli import EXIT_CODES, build_parser

        codes = list(EXIT_CODES.values())
        assert len(codes) == len(set(codes))
        help_text = build_parser().format_help()
        for cls, code in EXIT_CODES.items():
            assert f"\n  {code} " in help_text or f"\n  {code}  " in help_text
            assert cls.__name__ in help_text

    def test_solve_reports_byte_identical(self, tmp_path):
        args = ["solve", demo("ellipse_reduced.pop"), "--order", "2",
                "--enforce-hypo", "--format", "structured", "--seed", "1"]
        _, first = run(args)
        _, second = run(args)
        assert first == second


class TestHankelModeExtract:
    def test_real_hankel_file_uses_transpose_route(self, tmp_path):
        # real optimization data in Hankel storage: both bullet modes agree
        seq = pd.ex6_seq(mode="hankel")
        path = write_fixture(tmp_path, seq, "ex6h.momseq")
        out = str(tmp_path / "m.measure")
        code, text = run(["extract", path, "--tol-preset", "printed",
                          "--out", out, "--format", "structured"])
        assert code == 0
        rows = dict(line.split(" ", 1) for line in text.strip().splitlines())
        assert rows["extraction.mode"] == "transpose"
        measure = read_measure(out)
        got = {tuple(np.round(np.real(a), 2)) for a in measure.atoms}
        assert got == {(1.0, 2.0), (2.0, 2.0), (2.0, 3.0)}
        for atom, w in zip(measure.atoms, measure.weights):
            key = tuple(np.round(np.real(atom), 2))
            assert abs(complex(w) - pd.EX6_WEIGHTS_BY_ATOM[key]) < 5e-3

    def test_conjugate_mode_on_hankel_matches(self, tmp_path):
        seq = pd.ex6_seq(mode="hankel")
        path = write_fixture(tmp_path, seq, "ex6h.momseq")
        code, text = run(["extract", path, "--mode", "conjugate",
                          "--tol-preset", "printed", "--format", "structured"])
        assert code == 0
        rows = dict(line.split(" ", 1) for line in text.strip().splitlines())
        assert rows["extraction.mode"] == "conjugate_transpose"
