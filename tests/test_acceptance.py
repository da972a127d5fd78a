"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Solver-based criteria share cached runs through module fixtures.
"""

import os

import numpy as np
import pytest

from momext import linalg
from momext.errors import NotHyponormal, ShiftInconsistent
from momext.extraction import (
    CONJUGATE,
    TRANSPOSE,
    Tolerances,
    check_hyponormality,
    compute_shifts,
    extract_measure,
    feasibility_report,
)
from momext.hierarchy import assemble_relaxation, parse_problem, realify
from momext.interp import ExpSumModel, ExpTerm, interpolate, sample_grid
from momext.moment import enumerate_indices, hankel_matrix, moment_matrix
from momext.sdp import SolveOptions, solve

import paperdata as pd

DEMO = os.path.join(os.path.dirname(__file__), "..", "demo")
PRINTED = Tolerances.printed()
SOLVER_TOL = Tolerances(rank_tol=1e-5, psd_tol=1e-5, shift_tol=1e-3,
                        hypo_tol=1e-3, offdiag_tol=1e-3)
GAP_TOL = 1e-8

_solution_log = []


def _ok(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def demo(name):
    return os.path.join(DEMO, name)


def run_solve(problem_file, order, enforce=False):
    problem = parse_problem(demo(problem_file))
    sdp, rmap = assemble_relaxation(problem, order, enforce_hyponormality=enforce)
    solution = solve(realify(sdp), SolveOptions(gap_tolerance=GAP_TOL))
    _solution_log.append((problem_file, order, enforce, solution))
    return problem, rmap, solution


@pytest.fixture(scope="module")
def ellipse_d3():
    return run_solve("ellipse.pop", 3)


@pytest.fixture(scope="module")
def reduced_d2_plain():
    return run_solve("ellipse_reduced.pop", 2)


@pytest.fixture(scope="module")
def reduced_d2_enforced():
    return run_solve("ellipse_reduced.pop", 2, enforce=True)


@pytest.fixture(scope="module")
def reduced_d3():
    return run_solve("ellipse_reduced.pop", 3)


@pytest.fixture(scope="module")
def torus_d3():
    return run_solve("torus.pop", 3)


@pytest.fixture(scope="module")
def torus_d4():
    return run_solve("torus.pop", 4)


@pytest.fixture(scope="module")
def triangle_d3():
    return run_solve("triangle.pop", 3)


def test_criterion_1_nonexistent_shifts():
    vals, _ = linalg.hermitian_eig(pd.EX1_M2)
    np.testing.assert_allclose(vals, [0.0, 0.0, 6.0], atol=1e-9)
    with pytest.raises(ShiftInconsistent):
        extract_measure(pd.ex1_seq(), dk=1)
    _ok(1, "M_2 spectrum {0,0,6}; extraction fails with ShiftInconsistent")


def test_criterion_2_non_hyponormal_data():
    from momext.extraction import data_hyponormality_min_eig

    data_min = data_hyponormality_min_eig(pd.ex2_seq(), dk=1)
    assert abs(data_min - (-27.0712)) <= 1e-2
    with pytest.raises(NotHyponormal) as err:
        extract_measure(pd.ex2_seq(), dk=1, tol=PRINTED)
    op_min = err.value.report.hypo_min_eig
    assert abs(op_min - (-18.4798)) <= 1e-2
    _ok(2, f"operator block min {op_min:.4f}, data block min {data_min:.4f}; "
           "extraction refuses with NotHyponormal")


def test_criterion_3_ellipse(ellipse_d3):
    problem, rmap, solution = ellipse_d3
    assert abs(solution.primal_objective - 1.93291) <= 5e-3
    # extraction from the printed matrix, independent of our solver
    measure, report = extract_measure(pd.ex3_seq(), dk=2, tol=PRINTED)
    got = measure.sorted()
    want = sorted(pd.EX3_ATOMS, key=lambda a: (a[0].real, a[0].imag))
    for g, w in zip(got.atoms, want):
        assert max(abs(x - y) for x, y in zip(g, w)) <= 5e-3
    np.testing.assert_allclose(got.weights, [0.5, 0.5], atol=5e-3)
    # independent calculus oracle for the global optimum on the feasible curve
    b = np.linspace(-np.sqrt(2.0 / 3.0), np.sqrt(2.0 / 3.0), 400001)
    truth = np.min(1 + 2 * b**2 + (1 + 2 * b**2) * (1 + b))
    assert abs(solution.primal_objective - truth) <= 5e-3
    _ok(3, f"order-3 value {solution.primal_objective:.5f}; fixture atoms and "
           "weights (0.5, 0.5) recovered")


def test_criterion_4_enforced_hierarchy(reduced_d2_plain, reduced_d2_enforced,
                                        reduced_d3):
    problem, rmap, plain = reduced_d2_plain
    assert abs(plain.primal_objective - 0.155089) <= 5e-3
    with pytest.raises(NotHyponormal):
        extract_measure(rmap.sequence_from_values(plain.variables),
                        dk=problem.d_K, tol=SOLVER_TOL)

    problem, rmap, enforced = reduced_d2_enforced
    assert abs(enforced.primal_objective - 0.428175) <= 5e-3
    seq = rmap.sequence_from_values(enforced.variables)
    measure, report = extract_measure(seq, dk=problem.d_K, tol=SOLVER_TOL)
    assert report.rank == 1
    assert len(measure.atoms) == 1
    assert abs(measure.atoms[0][0] - pd.EX4_ATOM[0]) <= 5e-3
    assert abs(measure.atoms[0][1] - pd.EX4_ATOM[1]) <= 5e-3
    assert abs(measure.weights[0] - 1.0) <= 5e-3

    _, _, d3 = reduced_d3
    assert abs(d3.primal_objective - 0.428175) <= 5e-3
    _ok(4, f"plain d=2 {plain.primal_objective:.6f} (hyponormality fails), "
           f"enforced d=2 {enforced.primal_objective:.6f} rank-1 Dirac, "
           f"plain d=3 {d3.primal_objective:.6f}")


def test_criterion_5_torus(torus_d3, torus_d4):
    problem, rmap, d3 = torus_d3
    assert abs(d3.primal_objective - 0.9999) <= 5e-3
    seq = rmap.sequence_from_values(d3.variables)
    measure, _ = extract_measure(seq, dk=problem.d_K, tol=SOLVER_TOL)
    roots = sorted([np.exp(2j * np.pi / 3), 1.0 + 0j], key=lambda z: z.real)
    got = measure.sorted()
    assert len(got.atoms) == 2
    for g, r in zip(got.atoms, roots):
        assert abs(g[0] - r) <= 5e-3
    np.testing.assert_allclose(got.weights, [0.5, 0.5], atol=5e-3)

    # shift unitarity on the exact fixture
    x = linalg.psd_root_factor(moment_matrix(pd.ex5_seq(3), 3).matrix)
    fam = compute_shifts(x, enumerate_indices(1, 3), linalg.column_basis(x),
                         CONJUGATE)
    t = fam.shifts[0]
    unit = np.linalg.norm(t.conj().T @ t - np.eye(t.shape[0]))
    assert unit <= 1e-6

    _, _, d4 = torus_d4
    assert abs(d4.primal_objective - 1.0000) <= 5e-3

    # brute-force oracle: enumerate the three feasible roots
    candidates = [np.exp(2j * np.pi * k / 3) for k in range(3)]
    fvals = [abs(z - np.exp(1j * np.pi / 3)) ** 2 for z in candidates]
    assert abs(min(fvals) - 1.0) <= 1e-12
    assert abs(d4.primal_objective - min(fvals)) <= 5e-3
    _ok(5, f"d=3 value {d3.primal_objective:.4f}, atoms are third roots of "
           f"unity with weights 0.5; ||T*T-I|| = {unit:.1e}; "
           f"d=4 value {d4.primal_objective:.4f}; enumeration oracle 1")


def test_criterion_6_triangle(triangle_d3):
    problem, rmap, solution = triangle_d3
    assert abs(solution.primal_objective - (-2.0)) <= 5e-3

    # atoms from our solve
    seq = rmap.sequence_from_values(solution.variables)
    measure, _ = extract_measure(seq, dk=problem.d_K, tol=SOLVER_TOL)
    got = {tuple(np.round(np.real(a), 2)) for a in measure.atoms}
    assert got == {(1.0, 2.0), (2.0, 2.0), (2.0, 3.0)}
    for atom in measure.atoms:
        want = tuple(np.round(np.real(atom), 2))
        assert max(abs(x - y) for x, y in zip(atom, want)) <= 5e-3
    assert abs(sum(measure.weights) - 1.0) <= 1e-6
    rows = feasibility_report(measure, problem, tol=1e-5)
    assert all(not row.violations for row in rows)

    # the reference weights come from the printed data: the order-3 optimal
    # face is a simplex of measures, so the weight split is fixed by the
    # fixture rather than by any particular interior-point trajectory
    fixture_measure, _ = extract_measure(pd.ex6_seq(), dk=1, tol=PRINTED)
    for atom, w in zip(fixture_measure.atoms, fixture_measure.weights):
        key = tuple(np.round(np.real(atom), 2))
        assert abs(w - pd.EX6_WEIGHTS_BY_ATOM[key]) <= 5e-3
    rows = feasibility_report(fixture_measure, problem, tol=1e-3)
    assert all(not row.violations for row in rows)

    # grid-search oracle over the triangle: the optimum is -2
    x1 = np.linspace(0.0, 2.5, 251)
    x2 = np.linspace(1.0, 4.0, 301)
    g1, g2 = np.meshgrid(x1, x2, indexing="ij")
    feas = ((1 - (g1 - 1) ** 2 >= -1e-12)
            & (1 - (g1 - g2) ** 2 >= -1e-12)
            & (1 - (g2 - 3) ** 2 >= -1e-12))
    f = -((g1 - 1) ** 2) - (g1 - g2) ** 2 - (g2 - 3) ** 2
    truth = f[feas].min()
    assert abs(truth - (-2.0)) <= 1e-9
    _ok(6, f"value {solution.primal_objective:.4f}; atoms (1,2),(2,2),(2,3); "
           "fixture weights (0.5850, 0.2968, 0.1182); grid oracle -2")


def test_criterion_7_interpolation():
    truth = pd.ex7_model().canonical()
    samples = sample_grid(truth, 2)
    model, report = interpolate(samples, d_max=2)
    assert len(model.terms) == 2
    for got, want in zip(model.terms, truth.terms):
        assert abs(got.weight - want.weight) <= 1e-4
        assert max(abs(a - b)
                   for a, b in zip(got.frequencies, want.frequencies)) <= 1e-4
    assert report.reconstruction_residual <= 1e-8

    h = hankel_matrix(samples, 2).matrix
    u, sigma = linalg.takagi(h)
    resid = np.linalg.norm(u @ np.diag(sigma) @ u.T - h)
    assert resid <= 1e-8 * np.linalg.norm(h)
    _ok(7, f"frequencies and weights within 1e-4; resampling residual "
           f"{report.reconstruction_residual:.1e}; Takagi residual "
           f"{resid / np.linalg.norm(h):.1e} relative")


# --------------------------------------------------------------- criterion 8


def _separated_atoms(rng, n, r, min_sep=0.4, box=1.1):
    while True:
        atoms = [tuple(box * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)))
                 for _ in range(r)]
        if r == 1 or min(
            max(abs(x - y) for x, y in zip(a, b))
            for i, a in enumerate(atoms) for b in atoms[i + 1:]
        ) > min_sep:
            return atoms


def _assert_recovered(measure, atoms, weights, tol):
    assert len(measure.atoms) == len(atoms)
    want = sorted(zip(atoms, weights),
                  key=lambda aw: tuple((z.real, z.imag) for z in aw[0]))
    got = measure.sorted()
    for (atom, w), g_atom, g_w in zip(want, got.atoms, got.weights):
        assert max(abs(x - y) for x, y in zip(atom, g_atom)) < tol
        assert abs(complex(w) - complex(g_w)) < tol


def test_criterion_8a_measure_round_trips():
    rng = np.random.default_rng(2024)
    combos = [(n, r) for n in (1, 2, 3) for r in (1, 2, 3, 4)]
    for trip in range(200):
        n, r = combos[trip % len(combos)]
        atoms = _separated_atoms(rng, n, r)
        weights = rng.uniform(0.2, 1.5, r)
        seq = pd.brute_moments_paired(atoms, weights, n=n, d=r)
        measure, _ = extract_measure(seq, d=r, dk=1, seed=trip)
        _assert_recovered(measure, atoms, weights, 1e-6)
    _ok("8a", "200 random measure round trips at n<=3, r<=4, d=r within 1e-6")


def test_criterion_8b_expsum_round_trips():
    rng = np.random.default_rng(4048)
    done = 0
    while done < 200:
        n = 1 + (done % 2)
        r = 1 + (done % 4)
        terms = [ExpTerm(complex(rng.uniform(0.3, 1.2), rng.uniform(-1, 1)),
                         tuple(complex(rng.uniform(-0.4, 0.4),
                                       rng.uniform(-2.8, 2.8))
                               for _ in range(n)))
                 for _ in range(r)]
        model = ExpSumModel(n, terms).canonical()
        if len(model.terms) != r:
            continue
        nodes = [tuple(np.exp(np.asarray(t.frequencies))) for t in model.terms]
        if r > 1 and min(
            max(abs(a - b) for a, b in zip(x, y))
            for i, x in enumerate(nodes) for y in nodes[i + 1:]
        ) < 5e-2:
            continue
        rec, _ = interpolate(sample_grid(model, r), d_max=r, seed=done)
        assert len(rec.terms) == r
        for a, b in zip(model.terms, rec.terms):
            assert abs(a.weight - b.weight) < 1e-6
            assert max(abs(x - y)
                       for x, y in zip(a.frequencies, b.frequencies)) < 1e-6
        done += 1
    _ok("8b", "200 random exponential-sum round trips at n<=2, <=4 terms within 1e-6")


def test_criterion_8c_seed_invariance():
    rng = np.random.default_rng(99)
    atoms = _separated_atoms(rng, 2, 3)
    weights = rng.uniform(0.2, 1.0, 3)
    seq = pd.brute_moments_paired(atoms, weights, n=2, d=3)
    base, _ = extract_measure(seq, dk=1, seed=0)
    base = base.sorted()
    for seed in range(1, 10):
        other, _ = extract_measure(seq, dk=1, seed=seed)
        other = other.sorted()
        for a, b in zip(base.atoms, other.atoms):
            assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-8
        np.testing.assert_allclose(base.weights, other.weights, atol=1e-8)
    _ok("8c", "extraction output agrees across 10 seeds within 1e-8")


def test_criterion_8d_structured_shifts():
    # Toeplitz fixture -> unitary shifts
    x = linalg.psd_root_factor(moment_matrix(pd.ex5_seq(3), 3).matrix)
    fam = compute_shifts(x, enumerate_indices(1, 3), linalg.column_basis(x),
                         CONJUGATE)
    t = fam.shifts[0]
    assert np.linalg.norm(t.conj().T @ t - np.eye(2)) <= 1e-8

    # Hankel (real) fixture -> real symmetric shifts
    seq = pd.brute_moments_paired([(1.0, 2.0), (2.0, 2.0), (2.0, 3.0)],
                                  [0.5, 0.3, 0.2], n=2, d=2)
    x = linalg.psd_root_factor(moment_matrix(seq, 2).matrix)
    fam = compute_shifts(x, enumerate_indices(2, 2), linalg.column_basis(x),
                         CONJUGATE)
    for t in fam.shifts:
        assert np.linalg.norm(t - t.T) <= 1e-8
        assert np.linalg.norm(np.imag(t)) <= 1e-8

    # transpose mode -> complex symmetric shifts
    _, rep = extract_measure(sample_grid(pd.ex7_model(), 2), mode=TRANSPOSE)
    assert rep.shift_symmetry <= 1e-8
    _ok("8d", "Toeplitz/Hankel/transpose shift structure within 1e-8")


def test_criterion_8e_lemma_properties():
    rng = np.random.default_rng(31337)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        pts = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
               for _ in range(d)]
        labels = enumerate_indices(n, d - 1)
        v = np.array([[np.prod(z ** np.asarray(a)) for a in labels]
                      for z in pts])
        assert np.linalg.matrix_rank(v, tol=1e-8) == d
    for _ in range(100):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, n + 1))
        u = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        while np.linalg.matrix_rank(u) < d:
            u = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        c += np.sign(c.real + 1e-9) * 0.5
        q, _ = np.linalg.qr(u)
        proj = q @ q.conj().T
        for m in (sum(c[i] * np.outer(u[:, i], u[:, i]) for i in range(d)),
                  sum(c[i] * np.outer(u[:, i], u[:, i].conj()) for i in range(d))):
            assert np.linalg.matrix_rank(m, tol=1e-8) == d
            assert np.linalg.norm(proj @ m - m) <= 1e-8 * np.linalg.norm(m)
    _ok("8e", "Vandermonde independence and range lemma hold on 100 instances each")


def test_criterion_9_solver_sanity(ellipse_d3, reduced_d2_plain,
                                   reduced_d2_enforced, reduced_d3,
                                   torus_d3, torus_d4, triangle_d3):
    from momext.hierarchy import SDPProblem

    blk = pd.block_from_dense("toy", 2, np.array([[0.0, 1.0], [1.0, 0.0]]), {0: np.eye(2)})
    toy = SDPProblem(1, [blk], np.zeros((0, 1)), np.zeros(0),
                     np.array([1.0]), 0.0, is_real=True)
    sol = solve(toy)
    _solution_log.append(("toy", 0, False, sol))
    assert sol.status == "optimal"
    assert abs(sol.primal_objective - 1.0) <= 1e-6

    checked = 0
    for name, order, enforce, solution in _solution_log:
        for p, d in solution.certified_bounds(1e-8):
            assert p >= d - 10 * GAP_TOL, (name, order, enforce, p, d)
            checked += 1
    assert checked > 0
    _ok(9, f"analytic SDP returns 1 within 1e-6; weak duality held at all "
           f"{checked} certified iterates across the acceptance runs")
