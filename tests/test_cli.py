import io
import os
from contextlib import redirect_stdout

import numpy as np
import pytest

from momext.cli import _parser, build_parser, main
from momext.extraction import read_measure
from momext.interp import ExpSumModel, ExpTerm, read_model, write_model
from momext.moment import read_sequence, sequence_to_text, write_sequence

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

    def test_no_matrix_decomposed_twice(self, monkeypatch):
        # data_hypo_min_eig is read off the spectra the report prints
        from momext import linalg

        seen = []
        original = linalg.hermitian_eig

        def recording(a, *args, **kwargs):
            seen.append(np.asarray(a).tobytes())
            return original(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "hermitian_eig", recording)
        code, text = run(["check", demo("roots_of_unity.momseq"), "--format", "structured"])
        assert code == 0 and "data_hypo_min_eig" in text
        assert len(seen) == len(set(seen))

    def test_data_hypo_min_eig_is_the_least_printed_eigenvalue(self, tmp_path):
        # three variables: one joint block of 4 x 4 cells of M_1 size (4 x 4)
        rng = np.random.default_rng(4)
        atoms = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        seq = pd.brute_moments_paired(atoms, [0.1, 0.2, 0.3, 0.4], n=3, d=2)
        code, text = run(["check", write_fixture(tmp_path, seq, "n3.momseq"),
                          "--format", "structured"])
        rows = dict(line.split(" ", 1) for line in text.strip().splitlines())
        spectra = [k for k in rows if k.startswith("data_hypo_spectrum.")]
        assert code == 0 and spectra == ["data_hypo_spectrum.1,2,3"]
        assert len(rows[spectra[0]].split()) == 16
        assert rows["data_hypo_min_eig"] == rows[spectra[0]].split()[0]

    def test_hankel_spectrum_is_the_takagi_values(self):
        # the values the ranks come from, not the eigenvalues of the Hermitian part
        from momext import linalg
        from momext.moment import hankel_matrix

        code, text = run(["check", demo("example7_grid.momseq"), "--format", "structured"])
        rows = dict(line.split(" ", 1) for line in text.strip().splitlines())
        spectrum = np.array(rows["moment_spectrum"].split(), dtype=float)
        grid = read_sequence(demo("example7_grid.momseq"))
        sigma = linalg.takagi(hankel_matrix(grid, 2).matrix).values
        assert code == 0 and rows["ranks"] == "1 2 2"
        np.testing.assert_allclose(spectrum, sigma, rtol=1e-11, atol=1e-15)
        assert linalg.numeric_rank(spectrum) == int(rows["ranks"].split()[-1])

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
        for name, atoms, flags in (("ellipse.pop", 2, ["--order", "3"]),
                                   ("torus.pop", 2, ["--order", "3"]),
                                   ("triangle.pop", 3, ["--order", "3"]),
                                   ("triangle.pop", 3, ["--order", "4", "--enforce-hypo"])):
            code, text = run(["solve", demo(name), "--format", "structured", *flags])
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
        assert float(rows["extraction.reconstruction_residual"]) <= 1e-6
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


    def test_import_reads_the_variable_map_alone(self, tmp_path, monkeypatch):
        from momext import hierarchy

        sdp, rmap = hierarchy.assemble_relaxation(hierarchy.parse_problem(demo("torus.pop")), 3)
        x = np.random.default_rng(4).standard_normal(sdp.n_vars)
        sol_path = str(tmp_path / "y.txt")
        with open(sol_path, "w") as fh:
            fh.write(" ".join(format(v, ".17g") for v in x))

        def assemble(*args, **kwargs):
            raise AssertionError("a relaxation was assembled")

        monkeypatch.setattr(hierarchy, "assemble_relaxation", assemble)
        code, text = run(["import-solution", demo("torus.pop"), sol_path, "--order", "3"])
        assert code == 0
        assert text == sequence_to_text(rmap.sequence_from_values(x))

    def test_import_below_the_constraint_order_exits_order_too_small(self, tmp_path, capsys):
        sol_path = str(tmp_path / "y.txt")
        with open(sol_path, "w") as fh:
            fh.write("1 2 3")
        code, out = run(["import-solution", demo("torus.pop"), sol_path, "--order", "2"])
        assert (code, out) == (5, "")
        assert capsys.readouterr().err.startswith("momext: OrderTooSmall: ")


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

    def bad_value(self, capsys, argv, flag):
        """The command exits 2 with one stderr line naming the flag, and prints nothing."""
        code, out = run(argv)
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.startswith(f"momext: {argv[0]}: {flag}") and err.count("\n") == 1

    def test_extract_rejects_a_negative_order_and_a_zero_gap(self, capsys):
        self.bad_value(capsys, ["extract", demo("roots_of_unity.momseq"), "--order", "-1"],
                       "--order")
        # a zero gap compares rank M_d with itself: no certificate
        code, out = run(["extract", demo("roots_of_unity.momseq"), "--gap", "0"])
        assert code == 5 and "certified" not in out
        assert capsys.readouterr().err.startswith("momext: OrderTooSmall: ")

    @pytest.mark.parametrize("argv", [
        ["interpolate", "ORDER0"],
        ["extract", "ORDER0"],
        ["extract", demo("roots_of_unity.momseq"), "--order", "0"],
    ])
    def test_order_zero_exits_order_too_small(self, tmp_path, capsys, argv):
        # H_0 and M_0 have no shifted column: the order is at fault, not the basis
        path = str(tmp_path / "order0.momseq")
        with open(path, "w") as fh:
            fh.write("momseq 1\nmode hankel\nn 1\nd 0\ny 0 2 0\n")
        code, _ = run([path if a == "ORDER0" else a for a in argv])
        assert code == 5
        assert capsys.readouterr().err.startswith("momext: OrderTooSmall: ")

    def test_sample_rejects_order_zero(self, capsys):
        self.bad_value(capsys, ["sample", demo("example7.expsum"), "--order", "0"], "--order")

    def test_check_rejects_a_negative_gap(self, capsys):
        code, out = run(["check", demo("roots_of_unity.momseq"), "--gap", "-1"])
        assert (code, out) == (5, "")
        assert capsys.readouterr().err.startswith("momext: OrderTooSmall: ")

    def test_interpolate_rejects_orders_below_one(self, capsys):
        model = demo("example7.expsum")
        self.bad_value(capsys, ["interpolate", "--model", model, "--sample", "0"], "--sample")
        self.bad_value(capsys, ["interpolate", "--model", model, "--sample", "2",
                                "--dmax", "0"], "--dmax")

    def test_interpolate_without_its_input_exits_bad_command_line(self, capsys):
        self.bad_value(capsys, ["interpolate", "--model", demo("example7.expsum")], "--model")
        self.bad_value(capsys, ["interpolate"], "need a samples file")

    def test_interpolate_with_both_inputs_exits_bad_command_line(self, capsys):
        self.bad_value(capsys, ["interpolate", demo("roots_of_unity.momseq"),
                                "--model", demo("example7.expsum"), "--sample", "2"],
                       "give a samples file or --model, not both")

    @pytest.mark.parametrize("flag, value", [
        ("--psd-tol", "nan"), ("--psd-tol", "-1"), ("--rank-tol", "nan"),
        ("--rank-tol", "inf"), ("--shift-tol", "0"), ("--hypo-tol", "-inf"),
    ])
    def test_bad_tolerances_exit_bad_command_line(self, capsys, flag, value):
        name = flag[2:].replace("-", "_")
        for argv in (["extract", demo("roots_of_unity.momseq"), "--gap", "3"],
                     ["check", demo("roots_of_unity.momseq")],
                     ["solve", demo("torus.pop"), "--order", "3"],
                     ["interpolate", "--model", demo("example7.expsum"), "--sample", "2"]):
            code, out = run(argv + [f"{flag}={value}"])  # "=": "-1" is no option
            err = capsys.readouterr().err
            assert (code, out) == (2, "")
            assert err.startswith(f"momext: {argv[0]}: bad tolerance option: {name} must be ")
            assert err.count("\n") == 1

    def test_commands_that_extract_nothing_take_no_tolerances(self, capsys):
        model = demo("example7.expsum")
        for argv in (["sample", model, "--order", "1"],
                     ["signal", model, "--range", "0:1:2", "--range", "0:1:2"],
                     ["export-sdpa", demo("torus.pop"), "--order", "2"],
                     ["import-solution", demo("torus.pop"), "solution.txt", "--order", "2"]):
            for option in (["--tol-preset", "printed"], ["--rank-tol", "1e-3"],
                           ["--psd-tol", "nan"], ["--shift-tol", "1"], ["--hypo-tol", "1"]):
                with pytest.raises(SystemExit) as exc:
                    run(argv + option)
                assert exc.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err

    def test_each_command_rejects_the_options_it_does_not_read(self, capsys):
        model = demo("example7.expsum")
        unread = [(argv, option)
                  for argv in (["signal", model, "--range", "0:1:2", "--range", "0:1:2"],
                               ["export-sdpa", demo("torus.pop"), "--order", "3"],
                               ["import-solution", demo("torus.pop"), "y.txt", "--order", "3"])
                  for option in (["--format", "structured"], ["--seed", "1"])]
        unread += [(["check", demo("roots_of_unity.momseq")], ["--out", "x"]),
                   (["import-solution", demo("torus.pop"), "y.txt", "--order", "3"],
                    ["--enforce-hypo"])]
        for argv, option in unread:
            with pytest.raises(SystemExit) as exc:
                run(argv + option)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_signal_rejects_missing_ranges_and_negative_counts(self, capsys):
        model = demo("example7.expsum")  # two variables
        self.bad_value(capsys, ["signal", model, "--range", "0:9:10"], "need one --range")
        self.bad_value(capsys, ["signal", model, "--range", "0:9:10", "--range", "0:9:-1"],
                       "--range count")

    def test_signal_of_a_trivariate_model_exits_too_many_variables(self, tmp_path, capsys):
        # the variable count decides before the number of --range options
        path = str(tmp_path / "three.expsum")
        write_model(ExpSumModel(3, [ExpTerm(1.0, (0j, 0j, 0j))]), path)
        for ranges in (1, 3):
            code, out = run(["signal", path] + ["--range", "0:1:2"] * ranges)
            assert (code, out) == (23, "")
            err = capsys.readouterr().err
            assert err.startswith("momext: TooManyVariables: ") and err.count("\n") == 1

    def test_exit_table_names_each_concrete_error_class_once(self):
        import inspect

        from momext import errors
        from momext.cli import EXITS

        concrete = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                    if issubclass(cls, errors.MomextError) and not cls.__subclasses__()}
        named = [cls for _, cls, _ in EXITS if cls is not None]
        assert len(named) == len(set(named))
        assert set(named) == concrete | {OSError}
        assert 13 not in [code for code, _, _ in EXITS]  # retired, not reused

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

    def test_smallest_eigenvalue_reported_in_conjugate_mode_only(self):
        # transpose mode decomposes M_d by its Takagi factorization alone
        for name, mode, present in (("example7_grid.momseq", "transpose", False),
                                    ("roots_of_unity.momseq", "conjugate_transpose", True)):
            code, text = run(["extract", demo(name), "--format", "structured"])
            assert code == 0 and f"extraction.mode {mode}\n" in text
            assert ("extraction.moment_min_eig" in text) == present, mode

    def test_root_factor_error_emits_the_partial_report(self):
        # complex symmetric Hankel data is not Hermitian: the root factor
        # refuses it after the ranks and flags are known, and they are printed
        code, text = run(["extract", demo("example7_grid.momseq"), "--mode", "conjugate",
                          "--format", "structured"])
        rows = dict(line.split(" ", 1) for line in text.strip().splitlines())
        assert code == 18
        assert rows["extraction.ranks"] == "1 2 2" and rows["error"] == "NotHermitian"

    def test_conjugate_mode_on_hankel_matches(self, tmp_path):
        seq = pd.ex6_seq(mode="hankel")
        path = write_fixture(tmp_path, seq, "ex6h.momseq")
        code, text = run(["extract", path, "--mode", "conjugate",
                          "--tol-preset", "printed", "--format", "structured"])
        assert code == 0
        rows = dict(line.split(" ", 1) for line in text.strip().splitlines())
        assert rows["extraction.mode"] == "conjugate_transpose"


class TestParserReuse:
    def test_calls_in_one_process_share_no_state(self, tmp_path, capsys):
        model_path = str(tmp_path / "truth.expsum")
        write_model(pd.ex7_model().canonical(), model_path)
        argv = ["signal", model_path, "--range", "0:1:2", "--range", "0:1:3"]
        first = run(argv)
        assert first[0] == 0 and len(first[1].splitlines()) == 1 + 2 * 3
        # each call starts a new --range list
        assert run(argv) == first
        # a command line that fails after one --range leaves nothing behind
        with pytest.raises(SystemExit) as exc:
            run(["signal", model_path, "--range", "0:1:4", "--part", "phase"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert run(argv) == first
        assert run(["check", demo("roots_of_unity.momseq"), "--gap", "3"])[0] == 0
        # the reused parser is still the one build_parser() makes
        assert _parser().format_help() == build_parser().format_help()
