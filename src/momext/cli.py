"""Batch command-line front end.

One subcommand per pipeline stage: `solve` runs problem -> relaxation ->
SDP -> extraction -> feasibility; `extract` and `check` work directly on
moment-sequence files; `interpolate`, `sample` and `signal` cover the
exponential-sum path; `export-sdpa` / `import-solution` wire an external
SDP solver in and out. Identical invocations produce byte-identical
structured reports; every error class exits with its own code (see --help).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from . import errors, hierarchy, interp, sdp
from .extraction import (
    CONJUGATE,
    TRANSPOSE,
    Tolerances,
    extract_measure,
    check_flatness,
    data_hyponormality_spectrum,
    feasibility_report,
    write_measure,
)
from .moment import (
    classify_structure,
    read_sequence,
    sequence_to_text,
    unit_index,
    write_sequence,
)

# (code, error class or None, meaning), in the order --help lists them
EXITS = [
    (0, None, "success"),
    (2, None, "bad command line"),
    (3, errors.ParseError, "malformed input file"),
    (4, errors.MissingMoment, "missing moment key"),
    (5, errors.OrderTooSmall, "order too small for the data or degrees"),
    (6, errors.NotFlat, "rank not preserved, no shift operators"),
    (7, errors.ShiftInconsistent, "shift operators inconsistent on the data"),
    (8, errors.BasisDegenerate, "unusable column basis"),
    (9, errors.NotHyponormal, "joint hyponormality fails, no measure exists"),
    (10, errors.DegenerateCombination, "random shift combinations stayed degenerate"),
    (11, errors.RankNotStabilized, "Hankel rank never stabilized"),
    (12, errors.AtomAtZero, "recovered node at zero, log undefined"),
    (14, errors.NotPSD, "matrix not positive semidefinite"),
    (15, errors.NumericalBreakdown, "interior-point numerical breakdown"),
    (16, None, "solver finished without an optimality certificate"),
    (17, errors.IsotropicEigenvector, "isotropic eigenvector in transpose mode"),
    (18, errors.NotHermitian, "matrix fails the Hermitian check"),
    (19, errors.NotSymmetric, "matrix fails the complex-symmetry check"),
    (20, errors.NoConvergence, "iterative factorization hit its sweep cap"),
    (21, errors.FormatError, "malformed solver output or SDPA text"),
    (22, OSError, "input file unreadable or output file unwritable"),
    (23, errors.TooManyVariables, "model has more variables than signal output supports"),
    (1, None, "unexpected internal error"),
]
EXIT_CODES = {cls: code for code, cls, _ in EXITS if cls is not None}
EXIT_HELP = "exit codes:\n" + "".join(
    f"  {code:<3} {meaning}" + (f" ({cls.__name__})" if cls else "") + "\n"
    for code, cls, meaning in EXITS)

BAD_COMMAND_LINE = 2
SOLVER_NOT_OPTIMAL = 16


class BadCommandLine(Exception):
    """An option value the command cannot use: one stderr line, exit BAD_COMMAND_LINE."""


def _at_least(value, flag, least):
    """value, unless it is below least (None passes): then BadCommandLine."""
    if value is not None and value < least:
        raise BadCommandLine(f"{flag} must be >= {least}, got {value}")
    return value


def _fmt(x):
    if isinstance(x, complex):
        return f"{x.real:.12g}{x.imag:+.12g}i"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


class Report:
    """Ordered key/value report with text and structured rendering."""

    def __init__(self):
        self.rows = []

    def add(self, key, value):
        if isinstance(value, (list, tuple)):
            value = " ".join(_fmt(v) for v in value)
        else:
            value = _fmt(value)
        self.rows.append((key, value))

    def render(self, fmt):
        if fmt == "structured":
            return "\n".join(f"{k} {v}" for k, v in self.rows) + "\n"
        width = max((len(k) for k, _ in self.rows), default=0)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in self.rows) + "\n"


def _tolerances(args):
    base = Tolerances.printed() if args.tol_preset == "printed" else Tolerances()
    names = ("rank_tol", "psd_tol", "shift_tol", "hypo_tol")
    flags = {name: getattr(args, f"{name}_flag") for name in names}
    try:
        return replace(base, **{name: value for name, value in flags.items() if value is not None})
    except ValueError as exc:
        raise BadCommandLine(f"bad tolerance option: {exc}") from None


def _add_report(p):
    """--format and --seed, of the commands that print a Report (`check` and
    `sample` extract nothing and ignore the seed)."""
    p.add_argument("--format", choices=("text", "structured"), default="text",
                   help="report style (structured is machine-parsable)")
    p.add_argument("--seed", type=int, default=0,
                   help="PRNG seed for the random shift combination (default 0)")


def _add_out(p):
    p.add_argument("--out", default=None, help="output artifact path")


def _add_tolerances(p):
    """The threshold options of the commands that extract (read by `_tolerances`)."""
    p.add_argument("--tol-preset", choices=("default", "printed"), default="default",
                   help="'printed' loosens thresholds for 4-decimal transcribed data")
    p.add_argument("--rank-tol", dest="rank_tol_flag", type=float, default=None)
    p.add_argument("--psd-tol", dest="psd_tol_flag", type=float, default=None)
    p.add_argument("--shift-tol", dest="shift_tol_flag", type=float, default=None)
    p.add_argument("--hypo-tol", dest="hypo_tol_flag", type=float, default=None)


def _report_extraction(rep, report):
    rep.add("extraction.order", report.d)
    rep.add("extraction.gap", report.dk)
    rep.add("extraction.mode", report.mode)
    rep.add("extraction.ranks", report.ranks)
    rep.add("extraction.flat_step1", report.flat_1)
    rep.add("extraction.flat_gap", report.flat_dk)
    rep.add("extraction.rank", report.rank)
    if report.min_moment_eig is not None:
        rep.add("extraction.moment_min_eig", report.min_moment_eig)
    if report.structure is not None:
        rep.add("extraction.structure.hermitian", report.structure.hermitian)
        rep.add("extraction.structure.hankel", report.structure.hankel)
        rep.add("extraction.structure.toeplitz", report.structure.toeplitz)
    if report.shift_residual is not None:
        rep.add("extraction.shift_residual", report.shift_residual)
    if report.shift_symmetry is not None:
        rep.add("extraction.shift_symmetry", report.shift_symmetry)
    if report.hypo_min_eig is not None:
        rep.add("extraction.operator_hypo_min_eig", report.hypo_min_eig)
    if report.hypo_commutator is not None:
        rep.add("extraction.commutator_norm", report.hypo_commutator)
    if report.data_hypo_min_eig is not None:
        rep.add("extraction.data_hypo_min_eig", report.data_hypo_min_eig)
    if report.reconstruction_residual is not None:
        rep.add("extraction.reconstruction_residual", report.reconstruction_residual)
    rep.add("extraction.certification", report.certification)
    rep.add("extraction.atom_count", report.atom_count)


def _report_measure(rep, measure):
    for atom, w in zip(measure.atoms, measure.weights):
        coords = list(atom) + [complex(w)]
        rep.add("measure.atom", coords)


def _emit(rep, args):
    sys.stdout.write(rep.render(args.format))


def _write_or_print(text, path):
    """Write text to path and say so, or print it when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        sys.stdout.write(f"wrote {path}\n")
    else:
        sys.stdout.write(text)


def _extract(rep, args, seq, **kwargs):
    """extract_measure; a failure's partial report is emitted before it propagates."""
    try:
        return extract_measure(seq, seed=args.seed, **kwargs)
    except errors.MomextError as exc:
        if getattr(exc, "report", None) is None:  # raised before the report began
            raise
        _report_extraction(rep, exc.report)
        rep.add("error", type(exc).__name__)
        rep.add("error.detail", str(exc))
        _emit(rep, args)
        raise


def cmd_extract(args):
    seq = read_sequence(args.sequence)
    tol = _tolerances(args)
    mode = {"auto": None, "conjugate": CONJUGATE, "transpose": TRANSPOSE}[args.mode]
    rep = Report()
    rep.add("command", "extract")
    rep.add("input.n", seq.n)
    rep.add("input.d", seq.d)
    rep.add("input.mode", seq.mode)
    measure, report = _extract(rep, args, seq, d=_at_least(args.order, "--order", 0),
                               dk=args.gap, mode=mode, tol=tol)
    _report_extraction(rep, report)
    _report_measure(rep, measure)
    if args.out:
        write_measure(measure, args.out)
        rep.add("output.measure", args.out)
    _emit(rep, args)
    return 0


def cmd_check(args):
    seq = read_sequence(args.sequence)
    tol = _tolerances(args)
    rep = Report()
    rep.add("command", "check")
    rep.add("input.n", seq.n)
    rep.add("input.d", seq.d)
    rep.add("input.mode", seq.mode)
    rep.add("hermitian_data", seq.is_hermitian(1e-9))
    flags = classify_structure(seq.matrix(seq.d), tol.struct_tol)
    rep.add("structure.hermitian", flags.hermitian)
    rep.add("structure.hankel", flags.hankel)
    rep.add("structure.toeplitz", flags.toeplitz)
    flat = check_flatness(seq, seq.d, args.gap, tol.rank_tol)
    rep.add("ranks", flat.ranks)
    rep.add("flat_step1", flat.flat_1)
    rep.add("flat_gap", flat.flat_dk)
    # the values the ranks come from: Takagi values of Hankel data, eigenvalues of paired data
    spectrum = seq.takagi(seq.d) if seq.mode == "hankel" else seq.eig(seq.d)
    rep.add("moment_spectrum", [float(v) for v in spectrum.values])
    if seq.mode == "paired" and seq.d - args.gap >= 0:
        hypo = [float(v) for v in data_hyponormality_spectrum(seq, args.gap)]
        variables = "1,1" if seq.n == 1 else ",".join(map(str, range(1, seq.n + 1)))
        rep.add(f"data_hypo_spectrum.{variables}", hypo)
        rep.add("data_hypo_min_eig", hypo[0])
    _emit(rep, args)
    return 0


def cmd_solve(args):
    try:
        opts = sdp.SolveOptions(
            max_iterations=args.max_iterations,
            gap_tolerance=args.gap_tol,
            feasibility_tolerance=args.feas_tol,
        )
    except ValueError as exc:
        raise BadCommandLine(f"bad solver option: {exc}") from None
    problem = hierarchy.parse_problem(args.problem)
    tol = _tolerances(args)
    rep = Report()
    rep.add("command", "solve")
    rep.add("problem.n", problem.n)
    rep.add("problem.constraints", len(problem.constraints))
    rep.add("problem.dK", problem.d_K)
    rep.add("relaxation.order", args.order)
    rep.add("relaxation.enforce_hyponormality", args.enforce_hypo)

    sdp_problem, rmap = hierarchy.assemble_relaxation(
        problem, args.order, enforce_hyponormality=args.enforce_hypo
    )
    rep.add("relaxation.block_sizes", [b.size for b in sdp_problem.blocks])
    rep.add("relaxation.equality_rows", sdp_problem.eq_a.shape[0])
    rep.add("relaxation.variables", sdp_problem.n_vars)
    solution = sdp.solve(hierarchy.realify(sdp_problem), opts)
    rep.add("solver.status", solution.status)
    rep.add("solver.iterations", solution.iterations)
    rep.add("solver.primal_objective", solution.primal_objective)
    rep.add("solver.dual_objective", solution.dual_objective)
    rep.add("solver.gap", solution.gap)
    rep.add("solver.feasibility", solution.feasibility)
    if solution.status == "infeasible_suspected":
        rep.add("error", "SolverNotOptimal")
        _emit(rep, args)
        return SOLVER_NOT_OPTIMAL

    seq = rmap.sequence_from_values(solution.variables)
    ball = any(_bounds_ball(c.poly, problem.n) for c in problem.constraints)
    measure, report = _extract(rep, args, seq, d=args.order, dk=problem.d_K, mode=None, tol=tol)
    _report_extraction(rep, report)
    if not ball:
        rep.add("note", "no ball constraint detected; shift boundedness not guaranteed a priori")
    feats = feasibility_report(measure, problem, tol=1e-5, seq=seq, dk=problem.d_K)
    for row in feats:
        rep.add(
            f"feasibility.constraint{row.index}",
            [row.kind, f"violations={len(row.violations)}",
             f"zero_atoms={row.zero_atom_count}",
             f"expected_zeros={row.expected_zero_count}"],
        )
        rep.add(f"feasibility.constraint{row.index}.values", row.values)
    _report_measure(rep, measure)
    if args.out:
        write_measure(measure, args.out)
        rep.add("output.measure", args.out)
    _emit(rep, args)
    return 0


def _bounds_ball(poly, n):
    """True when the constraint caps sum |z_k|^2 (a ball-type bound).

    Looks for a degree-(1,1) polynomial whose |z_k|^2 coefficients are all
    strictly negative, i.e. R^2 - sum |z_k|^2 >= 0 or an equality pinning it.
    """
    if poly.k != 1:
        return False
    for k in range(1, n + 1):
        ek = unit_index(n, k)
        if poly.terms.get((ek, ek), 0.0).real >= 0.0:
            return False
    return True


def cmd_interpolate(args):
    tol = _tolerances(args)
    if args.model and args.samples:
        raise BadCommandLine("give a samples file or --model, not both")
    if args.model:
        if args.sample is None:
            raise BadCommandLine("--model needs --sample ORDER to generate a grid")
        model = interp.read_model(args.model)
        samples = interp.sample_grid(model, _at_least(args.sample, "--sample", 1))
    else:
        if not args.samples:
            raise BadCommandLine("need a samples file or --model/--sample")
        samples = read_sequence(args.samples)
        if samples.mode != "hankel":
            raise errors.ParseError(
                "interpolation needs a hankel-mode samples file, got mode "
                f"{samples.mode!r}"
            )
    rep = Report()
    rep.add("command", "interpolate")
    rep.add("input.n", samples.n)
    rep.add("input.max_order", samples.d)
    model, report = interp.interpolate(samples, d_max=_at_least(args.dmax, "--dmax", 1),
                                       tol=tol, seed=args.seed)
    _report_extraction(rep, report)
    rep.add("model.terms", len(model.terms))
    for term in model.terms:
        rep.add("model.term", [complex(term.weight)] + [complex(f) for f in term.frequencies])
    if args.out:
        interp.write_model(model, args.out)
        rep.add("output.model", args.out)
    _emit(rep, args)
    return 0


def cmd_sample(args):
    model = interp.read_model(args.model)
    samples = interp.sample_grid(model, _at_least(args.order, "--order", 1))
    rep = Report()
    rep.add("command", "sample")
    rep.add("model.terms", len(model.terms))
    rep.add("samples.order", args.order)
    rep.add("samples.count", len(samples.values))
    if args.out:
        write_sequence(samples, args.out)
        rep.add("output.samples", args.out)
        _emit(rep, args)
    else:
        sys.stdout.write(sequence_to_text(samples))
    return 0


def _parse_range(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise errors.ParseError(f"range {spec!r} must be start:stop:count")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise errors.ParseError(f"bad range {spec!r}") from None


def cmd_signal(args):
    model = interp.read_model(args.model)
    if model.n > 2:  # before the --range count, which could not be met
        raise errors.TooManyVariables(f"gridded signal output supports n <= 2, got n = {model.n}")
    ranges = [_parse_range(r) for r in args.range]
    if len(ranges) != model.n:
        raise BadCommandLine(f"need one --range per variable ({model.n}), got {len(ranges)}")
    for _, _, count in ranges:
        _at_least(count, "--range count", 0)
    _write_or_print(interp.emit_signal(model, ranges, which=args.part), args.out)
    return 0


def cmd_export_sdpa(args):
    problem = hierarchy.parse_problem(args.problem)
    sdp_problem, _ = hierarchy.assemble_relaxation(
        problem, args.order, enforce_hyponormality=args.enforce_hypo
    )
    _write_or_print(hierarchy.export_sdpa(hierarchy.realify(sdp_problem)), args.out)
    return 0


def cmd_import_solution(args):
    rmap = hierarchy.relaxation_map(hierarchy.parse_problem(args.problem), args.order)
    with open(args.solution) as fh:
        seq = hierarchy.import_solution(fh.read(), rmap)
    _write_or_print(sequence_to_text(seq), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="momext",
        description="Atomic-measure extraction from truncated moment data: "
        "global minimizers for complex polynomial optimization and "
        "exponential-sum interpolation.",
        epilog=EXIT_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract an atomic measure from a moment-sequence file")
    p.add_argument("sequence")
    p.add_argument("--order", type=int, default=None, help="truncation order (default: file order)")
    p.add_argument("--gap", type=int, default=1, help="certification gap dK (default 1)")
    p.add_argument("--mode", choices=("auto", "conjugate", "transpose"), default="auto")
    _add_report(p)
    _add_out(p)
    _add_tolerances(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("check", help="read-only diagnostics of a moment-sequence file")
    p.add_argument("sequence")
    p.add_argument("--gap", type=int, default=1)
    _add_report(p)
    _add_tolerances(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="relax, solve and extract from a problem file")
    p.add_argument("problem")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--enforce-hypo", action="store_true",
                   help="add the joint-hyponormality block to the relaxation")
    p.add_argument("--max-iterations", type=int, default=100)
    p.add_argument("--gap-tol", type=float, default=1e-8)
    p.add_argument("--feas-tol", type=float, default=1e-8)
    _add_report(p)
    _add_out(p)
    _add_tolerances(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("interpolate", help="recover an exponential-sum model from samples")
    p.add_argument("samples", nargs="?", default=None)
    p.add_argument("--model", default=None, help="generate the samples from this model instead")
    p.add_argument("--sample", type=int, default=None, help="sampling order used with --model")
    p.add_argument("--dmax", type=int, default=None)
    _add_report(p)
    _add_out(p)
    _add_tolerances(p)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("sample", help="sample a model on the integer grid")
    p.add_argument("model")
    p.add_argument("--order", type=int, required=True)
    _add_report(p)
    _add_out(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("signal", help="tabulate a model on a real grid (CSV)")
    p.add_argument("model")
    p.add_argument("--range", action="append", required=True,
                   help="start:stop:count, once per variable")
    p.add_argument("--part", choices=("real", "imag", "abs"), default="real")
    _add_out(p)
    p.set_defaults(func=cmd_signal)

    p = sub.add_parser("export-sdpa", help="write a relaxation in SDPA sparse format")
    p.add_argument("problem")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--enforce-hypo", action="store_true")
    _add_out(p)
    p.set_defaults(func=cmd_export_sdpa)

    p = sub.add_parser("import-solution", help="turn an external solver vector into a moment-sequence file")
    p.add_argument("problem")
    p.add_argument("solution")
    p.add_argument("--order", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_import_solution)

    return parser


@functools.cache
def _parser():
    """build_parser(), once per process: parse_args keeps no state in it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BadCommandLine as exc:
        sys.stderr.write(f"momext: {args.command}: {exc}\n")
        return BAD_COMMAND_LINE
    except (errors.MomextError, OSError) as exc:
        sys.stderr.write(f"momext: {type(exc).__name__}: {exc}\n")
        return next((code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)), 1)


if __name__ == "__main__":
    sys.exit(main())
