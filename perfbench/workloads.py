"""The benchmark workloads, and pop_ball, which is run by hand.

Each workload deals its instances out in rounds: one instance of every
class in a fixed order. The timing loop only stops between rounds, so every
run holds the same mix of classes and its medians stay put from seed to
seed. For every instance there are three steps:

* `make_round(seed, round_no)` draws the inputs (never timed);
* `execute(inst)` makes the program calls, and only these are timed;
* `check(inst, out)` runs the independent oracle (never timed).

All program calls go through module attributes (`hierarchy.realify`, not a
name imported from it), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

from momext import cli, extraction, hierarchy, interp, sdp
from momext.extraction import CONJUGATE, Tolerances
from momext.interp import ExpSumModel, ExpTerm
from momext.moment import HermitianPoly, MomentSequence

import oracles

# Tolerances the acceptance suite uses on solver-accurate moments.
SOLVER_TOL = Tolerances(rank_tol=1e-5, psd_tol=1e-5, shift_tol=1e-3,
                        hypo_tol=1e-3, offdiag_tol=1e-3)


@dataclass
class Instance:
    label: str  # instance class, e.g. "n2d3"
    ident: str  # unique within a run: "<round>.<slot>"
    data: dict = field(default_factory=dict)


def _rng(seed, workload_id, round_no, slot):
    return np.random.default_rng([seed, workload_id, round_no, slot])


def _fingerprint(values):
    """Exact text of every float, so equal fingerprints mean bit-identical."""
    return repr([complex(v).real.hex() + complex(v).imag.hex() for v in values])


class PopBall:
    """Hyponormality-enforced relaxations of random quartics on the unit ball."""

    name = "pop_ball"
    why = ("SDP-bound: random Hermitian quartics minimised over the unit ball "
           "through the enforced relaxation, most time in sdp.solve")
    # (n, d) with d the relaxation order; (3, 3) takes over a minute today.
    classes = [(2, 2), (2, 3), (3, 2)]
    trace_rounds = 6
    workload_id = 1
    exact = False  # oracle misses count in fail_frac

    def make_round(self, seed, round_no):
        out = []
        for slot, (n, d) in enumerate(self.classes):
            rng = _rng(seed, self.workload_id, round_no, slot)
            exps = oracles.exponents(n, 2)
            m = len(exps)
            a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            q = (a + a.conj().T) / 2.0
            objective = HermitianPoly(n, {(exps[i], exps[j]): q[i, j]
                                          for i in range(m) for j in range(m)})
            zero = (0,) * n
            ball = {(zero, zero): 1.0}
            for k in range(n):
                e = tuple(int(i == k) for i in range(n))
                ball[(e, e)] = -1.0
            problem = hierarchy.PolynomialProblem(
                n, objective, [hierarchy.Constraint(HermitianPoly(n, ball), "ineq")])
            out.append(Instance(f"n{n}d{d}", f"{round_no}.{slot}",
                                {"problem": problem, "d": d, "q": q, "exps": exps}))
        return out

    def execute(self, inst):
        problem = inst.data["problem"]
        relaxation, rmap = hierarchy.assemble_relaxation(
            problem, inst.data["d"], enforce_hyponormality=True)
        solution = sdp.solve(hierarchy.realify(relaxation))
        seq = rmap.sequence_from_values(solution.variables)
        measure, _ = extraction.extract_measure(seq, dk=problem.d_K, tol=SOLVER_TOL)
        return solution, measure

    def check(self, inst, out):
        solution, measure = out
        feas_p = solution.history[-1][3] if solution.history else np.inf
        certified = feas_p <= sdp.SolveOptions().feasibility_tolerance
        return oracles.check_ball_minimizers(
            inst.data["q"], inst.data["exps"], measure.atoms,
            solution.dual_objective, certified)

    def fingerprint(self, out):
        solution, measure = out
        return (solution.status, solution.iterations,
                _fingerprint([solution.primal_objective, solution.dual_objective]),
                _fingerprint([z for a in measure.atoms for z in a] + list(measure.weights)))


class MeasureRoundTrip:
    """Conjugate-mode extraction from brute-force moments of random measures."""

    name = "measure_roundtrip"
    why = ("no SDP: extract_measure on brute-force moments of random atomic "
           "measures, dominated by the Hermitian eigensolver")
    # (n, d, r) with r <= index_count(n, d - 1) atoms. (2, 4, 10) is left
    # out, because a benchmark workload must not fail: it raised NotFlat in 1
    # of about 900 draws.
    classes = [(2, 3, 6), (3, 4, 4)]
    trace_rounds = 8
    workload_id = 2
    exact = False

    def make_round(self, seed, round_no):
        out = []
        for slot, (n, d, r) in enumerate(self.classes):
            rng = _rng(seed, self.workload_id, round_no, slot)
            atoms = _separated(rng, n, r, min_sep=0.4, box=1.1)
            weights = rng.uniform(0.2, 1.5, r)
            seq = MomentSequence(n=n, d=d, mode="paired",
                                 values=oracles.paired_moments(atoms, weights, d))
            out.append(Instance(f"n{n}d{d}r{r}", f"{round_no}.{slot}",
                                {"seq": seq, "atoms": atoms, "weights": weights,
                                 "seed": int(rng.integers(2**31))}))
        return out

    def execute(self, inst):
        measure, _ = extraction.extract_measure(
            inst.data["seq"], dk=1, mode=CONJUGATE, seed=inst.data["seed"])
        return measure

    def check(self, inst, measure):
        return oracles.check_measure(inst.data["atoms"], inst.data["weights"],
                                     measure.atoms, measure.weights)

    def fingerprint(self, measure):
        return _fingerprint([z for a in measure.atoms for z in a] + list(measure.weights))


def _separated(rng, n, r, min_sep, box):
    """r points of the box [-box, box]^(2n), pairwise max-coordinate distance > min_sep."""
    while True:
        pts = box * (rng.uniform(-1, 1, (r, n)) + 1j * rng.uniform(-1, 1, (r, n)))
        dist = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
        dist[np.arange(r), np.arange(r)] = np.inf
        if r == 1 or dist.min() > min_sep:
            return pts


class ExpSumRoundTrip:
    """Grid sampling and Takagi-based interpolation of random exponential sums."""

    name = "expsum_roundtrip"
    why = ("transpose-mode extraction: sample_grid then interpolate on random "
           "exponential sums, dominated by Takagi and the Hankel rank search")
    # (n, terms). Classes whose recoveries can miss the 1e-6 bound at the
    # criterion 8b separation are left out, because a benchmark workload must
    # not fail: n = 1 missed it in 1-36 % of draws with 4-8 terms and in 2 of
    # 1000 with 3 terms, and with 2 terms came within a factor of ten of it
    # in 5 of 20000; n = 2 missed it in 2 of about 7000 draws with 7-8 terms
    # and in 1 of about 4000 with 6 terms. With 2-5 terms, 1 of about 8500
    # still missed it, so the workload is run by hand only.
    classes = [(2, r) for r in range(2, 6)]
    trace_rounds = 8
    workload_id = 3
    exact = False

    def make_round(self, seed, round_no):
        out = []
        for slot, (n, r) in enumerate(self.classes):
            rng = _rng(seed, self.workload_id, round_no, slot)
            while True:  # criterion 8b draw: boxes and node separation >= 5e-2
                weights = rng.uniform(0.3, 1.2, r) + 1j * rng.uniform(-1, 1, r)
                freqs = rng.uniform(-0.4, 0.4, (r, n)) + 1j * rng.uniform(-2.8, 2.8, (r, n))
                nodes = np.exp(freqs)
                dist = np.abs(nodes[:, None, :] - nodes[None, :, :]).max(axis=2)
                dist[np.arange(r), np.arange(r)] = np.inf
                if dist.min() >= 5e-2:
                    break
            terms = [(complex(w), tuple(complex(x) for x in f))
                     for w, f in zip(weights, freqs)]
            model = ExpSumModel(n, [ExpTerm(w, f) for w, f in terms])
            out.append(Instance(f"n{n}r{r}", f"{round_no}.{slot}",
                                {"model": model, "terms": terms, "order": r,
                                 "seed": int(rng.integers(2**31))}))
        return out

    def execute(self, inst):
        samples = interp.sample_grid(inst.data["model"], inst.data["order"])
        model, _ = interp.interpolate(samples, d_max=inst.data["order"],
                                      seed=inst.data["seed"])
        return model

    def check(self, inst, model):
        got = [(t.weight, t.frequencies) for t in model.terms]
        return oracles.check_expsum(inst.data["terms"], got)

    def fingerprint(self, model):
        return _fingerprint([x for t in model.terms for x in (t.weight, *t.frequencies)])


# primal objective references and atom counts of the acceptance suite;
# the plain order-2 reduced ellipse must stop at NotHyponormal (exit 9)
CLI_SOLVES = [
    (["demo/ellipse.pop", "--order", "3"], 0, 1.93291, 2),
    (["demo/ellipse_reduced.pop", "--order", "2"], 9, 0.155089, None),
    (["demo/ellipse_reduced.pop", "--order", "2", "--enforce-hypo"], 0, 0.428175, 1),
    (["demo/torus.pop", "--order", "3"], 0, 0.9999, 2),
    (["demo/torus.pop", "--order", "4"], 0, 1.0, 2),
    (["demo/triangle.pop", "--order", "3"], 0, -2.0, 3),
]
# Example 7 of the paper: two terms in two variables
EXAMPLE7 = [
    (0.25 * np.exp(1j * np.pi / 2), (-0.10 + 0.40j, 0.05 - 0.80j)),
    ((1.0 / 3.0) * np.exp(1j * 4 * np.pi / 3), (0.03 - 0.35j, 0.07 - 0.25j)),
]
CUBE_ROOTS = [1.0 + 0j, np.exp(2j * np.pi / 3)]


class CliDemos:
    """One pass over the README command lines, run in-process."""

    name = "cli_demos"
    why = ("only path through the CLI and the text readers and writers; "
           "three of its solves stall at max_iter")
    trace_rounds = 8
    workload_id = 4
    exact = True  # fixed references: any miss makes the run incorrect

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.model_path = os.path.join(workdir, "example7.expsum")
        with open(self.model_path, "w") as fh:
            fh.write("expsum 1\nn 2\n")
            for w, f in EXAMPLE7:
                nums = [w.real, w.imag] + [x for z in f for x in (z.real, z.imag)]
                fh.write("term " + " ".join(format(x, ".17g") for x in nums) + "\n")

    def make_round(self, seed, round_no):
        rng = _rng(seed, self.workload_id, round_no, 0)
        common = ["--format", "structured", "--seed", str(int(rng.integers(2**31)))]
        work, root = self.workdir, self.root
        argvs = [["solve", os.path.join(root, argv[0]), *argv[1:], *common]
                 for argv, *_ in CLI_SOLVES]
        momseq = os.path.join(root, "demo", "roots_of_unity.momseq")
        argvs += [
            ["check", momseq, "--gap", "3", *common],
            ["extract", momseq, "--gap", "3", "--out",
             os.path.join(work, "roots.measure"), *common],
            ["sample", self.model_path, "--order", "2", "--out",
             os.path.join(work, "grid.momseq"), *common],
            ["interpolate", os.path.join(work, "grid.momseq"), "--out",
             os.path.join(work, "recovered.expsum"), *common],
        ]
        return [Instance("pass", f"{round_no}.0", {"argvs": argvs})]

    def execute(self, inst):
        runs = []
        for argv in inst.data["argvs"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            runs.append((code, out.getvalue()))
        return runs

    def check(self, inst, runs):
        for (code, text), (argv, want_code, objective, atoms) in zip(runs, CLI_SOLVES):
            what = " ".join(argv)
            if code != want_code:
                return f"solve {what}: exit {code}, expected {want_code}"
            rep = oracles.parse_report(text)
            got = float(rep["solver.primal_objective"][0])
            if abs(got - objective) > oracles.CLI_OBJECTIVE_TOL:
                return f"solve {what}: objective {got} vs {objective}"
            if atoms is not None and int(rep["extraction.atom_count"][0]) != atoms:
                return f"solve {what}: {rep['extraction.atom_count'][0]} atoms, expected {atoms}"
        (c_check, _), (c_extract, t_extract), (c_sample, _), (c_interp, _) = runs[len(CLI_SOLVES):]
        if (c_check, c_extract, c_sample, c_interp) != (0, 0, 0, 0):
            return f"check/extract/sample/interpolate exits {c_check, c_extract, c_sample, c_interp}"
        measure = [[oracles.parse_complex(tok) for tok in line.split()]
                   for line in oracles.parse_report(t_extract).get("measure.atom", [])]
        reason = oracles.check_measure([[z] for z in CUBE_ROOTS], [0.5, 0.5],
                                       [row[:1] for row in measure],
                                       [row[1].real for row in measure])
        if reason:
            return f"extract roots_of_unity: {reason}"
        got = []
        with open(os.path.join(self.workdir, "recovered.expsum")) as fh:
            recovered = fh.read()
        for line in recovered.splitlines():
            if line.startswith("term "):
                nums = [float(x) for x in line.split()[1:]]
                got.append((complex(nums[0], nums[1]),
                            tuple(complex(nums[i], nums[i + 1]) for i in range(2, len(nums), 2))))
        reason = oracles.check_expsum(EXAMPLE7, got, tol=oracles.EXAMPLE7_TOL)
        return f"interpolate example 7: {reason}" if reason else None

    def fingerprint(self, runs):
        return repr(runs)


# The benchmark's workloads, as BENCHMARK.json lists them. A benchmark
# workload must not fail, so two are run by hand only
# (`run.py --workload NAME`): in pop_ball, in about 1 of 1000 instances the
# extracted minimiser's f exceeds the certified dual bound by 1e-5 to 2e-5,
# above the oracle's 1e-6; in expsum_roundtrip, about 1 in 5000 instances
# misses the 1e-6 bound even with 2-5 terms.
WORKLOADS = {w.name: w for w in (MeasureRoundTrip, CliDemos)}
BY_HAND = {w.name: w for w in (PopBall, ExpSumRoundTrip)}


def create(name, root, workdir):
    cls = {**WORKLOADS, **BY_HAND}[name]
    return cls(root, workdir) if cls is CliDemos else cls()
