import os

import numpy as np
import pytest

from momext.hierarchy import SDPProblem, assemble_relaxation, parse_problem, realify
from momext.sdp import (MU_DIVERGED, SolveOptions, _nt_scaling, _reduced_blocks,
                        _step_lengths, solve)
from paperdata import block_from_dense, evaluate


def lmi_problem(blocks, c, eq_a=None, eq_b=None, const=0.0):
    nv = len(c)
    return SDPProblem(
        n_vars=nv,
        blocks=blocks,
        eq_a=np.zeros((0, nv)) if eq_a is None else np.asarray(eq_a, dtype=float),
        eq_b=np.zeros(0) if eq_b is None else np.asarray(eq_b, dtype=float),
        objective=np.asarray(c, dtype=float),
        obj_const=const,
        is_real=True,
    )


def random_strictly_feasible(rng):
    """Both-sides strictly feasible instance with blocks <= 8, vars <= 30."""
    f = int(rng.integers(2, 31))
    nb = int(rng.integers(1, 4))
    u0 = rng.standard_normal(f)
    blocks = []
    c = np.zeros(f)
    for b in range(nb):
        nn = int(rng.integers(1, 9))
        stack = rng.standard_normal((f, nn, nn))
        stack = (stack + np.transpose(stack, (0, 2, 1))) / 2
        z0 = rng.standard_normal((nn, nn))
        z0 = z0 @ z0.T + 0.5 * np.eye(nn)
        const = z0 - np.einsum("k,kij->ij", u0, stack)
        x0 = rng.standard_normal((nn, nn))
        x0 = x0 @ x0.T + 0.5 * np.eye(nn)
        c += np.einsum("kij,ij->k", stack, x0)
        blocks.append(block_from_dense(f"b{b}", nn, const, {i: stack[i] for i in range(f)}))
    return lmi_problem(blocks, c)


class TestAnalyticToy:
    def test_min_x_bordered(self):
        # min x s.t. [[x, 1], [1, x]] >= 0 has optimum x = 1
        blk = block_from_dense("toy", 2, np.array([[0.0, 1.0], [1.0, 0.0]]),
                               {0: np.eye(2)})
        sol = solve(lmi_problem([blk], [1.0]))
        assert sol.status == "optimal"
        assert abs(sol.primal_objective - 1.0) <= 1e-6
        assert abs(sol.dual_objective - 1.0) <= 1e-6

    def test_weak_duality_every_certified_iterate(self):
        blk = block_from_dense("toy", 2, np.array([[0.0, 1.0], [1.0, 0.0]]),
                               {0: np.eye(2)})
        sol = solve(lmi_problem([blk], [1.0]))
        for p, d in sol.certified_bounds(1e-8):
            assert p >= d - 10 * 1e-8


class TestRandomInstances:
    def test_gap_target_rate(self):
        rng = np.random.default_rng(7)
        solved = 0
        for _ in range(40):
            problem = random_strictly_feasible(rng)
            sol = solve(problem, SolveOptions(gap_tolerance=1e-8))
            if sol.status == "optimal" and sol.gap <= 1e-7 and sol.iterations <= 100:
                solved += 1
                # optimal status certifies the gap and near-feasible blocks
                assert (abs(sol.primal_objective - sol.dual_objective)
                        <= 1e-8 * (1 + abs(sol.primal_objective)))
                for block in problem.blocks:
                    m = evaluate(block, sol.variables)
                    lam = np.linalg.eigvalsh((m + m.T) / 2)[0]
                    assert lam >= -1e-6 * max(1.0, np.linalg.norm(m, 2))
        assert solved >= 38  # >= 95%

    def test_weak_duality_on_random_runs(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            sol = solve(random_strictly_feasible(rng))
            for p, d in sol.certified_bounds(1e-8):
                assert p >= d - 10 * 1e-8


class TestEqualityPresolve:
    def test_equalities_eliminated(self):
        # min x0 + x1 s.t. x0 - x1 = 0 and diag(x0, 2 - x1) >= 0 -> x = 0
        blk = block_from_dense("b", 2, np.diag([0.0, 2.0]),
                               {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, -1.0])})
        sol = solve(lmi_problem([blk], [1.0, 1.0],
                                eq_a=[[1.0, -1.0]], eq_b=[0.0]))
        assert sol.status == "optimal"
        assert abs(sol.primal_objective) <= 1e-6
        assert abs(sol.variables[0] - sol.variables[1]) <= 1e-9

    def test_inconsistent_rows_detected(self):
        blk = block_from_dense("b", 1, np.array([[1.0]]), {0: np.array([[1.0]])})
        sol = solve(lmi_problem([blk], [1.0],
                                eq_a=[[1.0], [1.0]], eq_b=[0.0, 1.0]))
        assert sol.status == "infeasible_suspected"

    def test_fully_determined(self):
        blk = block_from_dense("b", 1, np.array([[0.0]]), {0: np.array([[1.0]])})
        sol = solve(lmi_problem([blk], [1.0], eq_a=[[1.0]], eq_b=[2.0]))
        assert sol.status == "optimal"
        assert abs(sol.primal_objective - 2.0) <= 1e-12


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(gap_tolerance=0.0)

    def test_requires_realified(self):
        blk = block_from_dense("b", 1, np.array([[1.0 + 0j]]), {0: np.array([[1.0 + 0j]])})
        problem = SDPProblem(1, [blk], np.zeros((0, 1)), np.zeros(0),
                             np.array([1.0]), 0.0, is_real=False)
        with pytest.raises(ValueError):
            solve(problem)

    def test_objective_constant_carried(self):
        blk = block_from_dense("toy", 2, np.array([[0.0, 1.0], [1.0, 0.0]]),
                               {0: np.eye(2)})
        sol = solve(lmi_problem([blk], [1.0], const=5.0))
        assert abs(sol.primal_objective - 6.0) <= 1e-6


class TestDeterminism:
    def test_identical_runs(self):
        rng = np.random.default_rng(23)
        problem = random_strictly_feasible(rng)
        a = solve(problem)
        b = solve(problem)
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.variables, b.variables)
        assert a.history == b.history


DEMO = os.path.join(os.path.dirname(__file__), "..", "demo")
# order-3 relaxations whose certificate-side X loses definiteness to
# round-off before the residual target is reached
STALLING_DEMOS = [("ellipse.pop", 3), ("torus.pop", 3), ("triangle.pop", 3)]
# the six solves of the README command lines: (file, order, enforce)
README_SOLVES = [("ellipse.pop", 3, False), ("ellipse_reduced.pop", 2, False),
                 ("ellipse_reduced.pop", 2, True), ("torus.pop", 3, False),
                 ("torus.pop", 4, False), ("triangle.pop", 3, False)]


def demo_relaxation(name, order, enforce=False):
    problem = parse_problem(os.path.join(DEMO, name))
    return realify(assemble_relaxation(problem, order, enforce_hyponormality=enforce)[0])


@pytest.fixture(scope="module")
def stalled_solutions():
    return {name: solve(demo_relaxation(name, order)) for name, order in STALLING_DEMOS}


def tightest_bound(sol, last):
    """The (dual, feas_p) entry of history, among iterates that took a step,
    that brackets the primal value of iterate `last` most tightly."""
    p = sol.history[last][0]
    return min(sol.history[: len(sol.steps)],
               key=lambda e: max(abs(p - e[1]) / (1.0 + abs(p)), e[3]))


class TestStall:
    def test_demos_stop_early(self, stalled_solutions):
        for name, sol in stalled_solutions.items():
            assert sol.status == "stalled", name
            assert sol.iterations < 60, (name, sol.iterations)
            assert len(sol.history) == sol.iterations

    def test_stall_returns_last_moments_and_tightest_bound(self, stalled_solutions):
        for name, sol in stalled_solutions.items():
            p, _, _, _, feas_d = sol.history[-1]
            _, d, _, feas_p, _ = tightest_bound(sol, -1)
            assert (sol.primal_objective, sol.dual_objective) == (p, d), name
            assert sol.gap == abs(p - d) / (1.0 + abs(p)), name
            assert sol.feasibility == max(feas_p, feas_d), name

    def test_max_iter_only_at_the_cap(self, stalled_solutions):
        solutions = list(stalled_solutions.values())
        for seed, count in ((7, 40), (19, 10), (23, 1)):
            rng = np.random.default_rng(seed)
            solutions += [solve(random_strictly_feasible(rng)) for _ in range(count)]
        for sol in solutions:
            if sol.status == "max_iter":
                assert sol.iterations == SolveOptions().max_iterations
        capped = solve(demo_relaxation("ellipse.pop", 3), SolveOptions(max_iterations=20))
        assert capped.status == "max_iter" and capped.iterations == 20

    def test_max_iter_reports_the_returned_iterate(self):
        capped = solve(demo_relaxation("ellipse.pop", 3), SolveOptions(max_iterations=20))
        p, d, _, feas_p, feas_d = capped.history[-1]
        assert capped.status == "max_iter" and len(capped.steps) == 20
        assert len(capped.history) == len(capped.steps) + 1
        assert (capped.primal_objective, capped.dual_objective) == (p, d)
        assert capped.gap == abs(p - d) / (1.0 + abs(p))
        assert capped.feasibility == max(feas_p, feas_d)

    def test_readme_solves_take_at_most_100_iterations(self):
        solutions = [solve(demo_relaxation(*args)) for args in README_SOLVES]
        assert all(sol.status != "max_iter" for sol in solutions)
        assert sum(sol.iterations for sol in solutions) <= 100

    def test_steps_explain_each_iterate(self, stalled_solutions):
        for name, sol in stalled_solutions.items():
            # the last iterate takes no step: X_j could not be factored
            assert len(sol.steps) == sol.iterations - 1, name
            for ap, ad, sigma, reg in sol.steps:
                assert 0.0 <= ap <= 1.0 and 0.0 <= ad <= 1.0
                assert 0.0 <= sigma <= 1.0 and reg >= 0.0
            assert all(len(entry) == 5 for entry in sol.history)

    def test_each_matrix_factored_once_per_iterate(self, monkeypatch):
        # blocks of sizes 3 and 5 over 9 variables: a Cholesky call's shape
        # tells X_j and Z_j factorizations from the Schur complement's
        rng = np.random.default_rng(5)
        f, u0, c, blocks = 9, rng.standard_normal(9), np.zeros(9), []
        for b, nn in enumerate((3, 5)):
            stack = rng.standard_normal((f, nn, nn))
            stack = (stack + np.transpose(stack, (0, 2, 1))) / 2
            z0 = rng.standard_normal((nn, nn))
            x0 = rng.standard_normal((nn, nn))
            const = z0 @ z0.T + np.eye(nn) - np.einsum("k,kij->ij", u0, stack)
            c += np.einsum("kij,ij->k", stack, x0 @ x0.T + np.eye(nn))
            blocks.append(block_from_dense(f"b{b}", nn, const, {i: stack[i] for i in range(f)}))
        shapes = []
        original = np.linalg.cholesky

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        sol = solve(lmi_problem(blocks, c))
        assert sol.status == "optimal" and len(sol.steps) == sol.iterations - 1 > 3
        # one factor of X_j and one of Z_j per step taken
        assert shapes.count((3, 3)) == 2 * len(sol.steps)
        assert shapes.count((5, 5)) == 2 * len(sol.steps)
        assert shapes.count((9, 9)) >= len(sol.steps)

    def test_overflowing_iterates_stop_the_solve(self):
        # x >= 0 and x <= -1 have no common point; the iterates overflow
        # instead of converging, and the run ends on its last finite iterate
        blocks = [block_from_dense("a", 1, np.array([[0.0]]), {0: np.array([[1.0]])}),
                  block_from_dense("b", 1, np.array([[-1.0]]), {0: np.array([[-1.0]])})]
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve(lmi_problem(blocks, [1.0]))
        assert sol.status == "infeasible_suspected"
        assert sol.iterations < SolveOptions().max_iterations
        assert np.isfinite([sol.primal_objective, sol.dual_objective, sol.gap]).all()
        assert not np.isfinite(sol.history[-1]).all()
        assert sol.primal_objective == sol.history[-2][0]
        assert sol.dual_objective == tightest_bound(sol, -2)[1]


class TestInfeasibility:
    def test_zero_objective_infeasible_lmi_is_flagged(self):
        # min 0 s.t. [[-1, x], [x, 1]] >= 0: no x makes the corner entry
        # nonnegative. Every iterate has gap 0, so only the residual tells.
        blk = block_from_dense("toy", 2, np.diag([-1.0, 1.0]),
                               {0: np.array([[0.0, 1.0], [1.0, 0.0]])})
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve(lmi_problem([blk], [0.0]))
        assert sol.status == "infeasible_suspected"
        assert sol.gap == 0.0 and sol.feasibility > 1e-4

    def test_diverging_iterates_are_flagged(self):
        # min x s.t. [[x, 1], [1, 0]] >= 0: the determinant is -1 for every x,
        # yet the residuals shrink as x grows, so only the growth of mu tells
        blk = block_from_dense("toy", 2, np.array([[0.0, 1.0], [1.0, 0.0]]),
                               {0: np.diag([1.0, 0.0])})
        sol = solve(lmi_problem([blk], [1.0]))
        assert sol.status == "infeasible_suspected"
        assert sol.iterations < SolveOptions().max_iterations
        assert sol.history[-1][2] > MU_DIVERGED * sol.history[0][2]
        assert sol.feasibility < 1e-4  # the residual test alone would not flag it


def max_step_reference(ell, dm):
    """The step-length test of one matrix M = ell ell^T on its own."""
    w = np.linalg.solve(ell, dm)
    w = np.linalg.solve(ell, w.T).T
    w = (w + w.T) / 2.0
    lam = np.linalg.eigvalsh(w)[0]
    if lam >= -1e-14:
        return 1.0
    return min(1.0, -1.0 / lam)


def symmetric(rng, nn):
    a = rng.standard_normal((nn, nn))
    return (a + a.T) / 2.0


def spd(rng, nn):
    a = rng.standard_normal((nn, nn))
    return a @ a.T + np.eye(nn)


class TestStepLengths:
    # block sizes with 1x1 blocks, repeated sizes and one size alone; X_j
    # and Z_j always share their size, so every stack mixes both sides
    SIZES = [(1,), (4,), (1, 1), (3, 3, 3), (1, 4, 2, 4), (5, 2, 5, 1, 2)]

    def directions(self, rng, chols, kind):
        out = []
        for ell in chols:
            nn = len(ell)
            if kind == "psd":  # lambda_min >= 0: alpha 1
                a = rng.standard_normal((nn, nn))
                out.append(a @ a.T)
            elif kind == "tiny":  # lambda_min about -1e-15 >= -1e-14: alpha 1
                out.append(-1e-15 * (ell @ ell.T))
            else:  # alphas below and at 1, from scaled random directions
                out.append(10.0 ** rng.uniform(-2, 2) * symmetric(rng, nn))
        return out

    @staticmethod
    def scaled(x_chol, z_chol, dx, dz):
        """The scaled points d_j and directions G^-1 dX G^-T and G^T dZ G."""
        ds, dxt, dzt = [], [], []
        for lx, lz, mx, mz in zip(x_chol, z_chol, dx, dz):
            g, d = _nt_scaling(lx, lz)
            ds.append(d)
            dxt.append(np.linalg.solve(g, np.linalg.solve(g, mx).T).T)
            dzt.append(g.T @ mz @ g)
        return ds, dxt, dzt

    def test_stacked_test_equals_the_per_matrix_formula(self):
        rng = np.random.default_rng(29)
        for trial in range(120):
            sizes = self.SIZES[trial % len(self.SIZES)]
            x_chol, z_chol = ([np.linalg.cholesky(spd(rng, nn)) for nn in sizes]
                              for _ in range(2))
            kinds = ("random", "psd", "tiny", "random")
            dx = self.directions(rng, x_chol, kinds[trial % 4])
            dz = self.directions(rng, z_chol, kinds[(trial // 4) % 4])
            want = (min(max_step_reference(ell, d) for ell, d in zip(x_chol, dx)),
                    min(max_step_reference(ell, d) for ell, d in zip(z_chol, dz)))
            ds, dxt, dzt = self.scaled(x_chol, z_chol, dx, dz)
            np.testing.assert_allclose(_step_lengths(ds)(dxt, dzt), want, rtol=1e-12, atol=0)
            if "random" not in (kinds[trial % 4], kinds[(trial // 4) % 4]):
                assert want == (1.0, 1.0)

    def test_a_nan_test_is_left_out(self):
        # an infinite 2x2 direction makes its lambda_min NaN, which alone
        # gives alpha 1; the other matrices of its size and side still decide
        rng = np.random.default_rng(31)
        x_chol = [np.linalg.cholesky(spd(rng, 2)) for _ in range(3)]
        z_chol = [np.eye(2)] * 3
        dx = [symmetric(rng, 2) * 100 for _ in range(3)]
        dx[1] = np.full((2, 2), np.inf)
        dz = [np.full((2, 2), np.inf)] * 3
        with np.errstate(invalid="ignore"):
            want = (min(max_step_reference(ell, d) for ell, d in zip(x_chol, dx)),
                    min(max_step_reference(ell, d) for ell, d in zip(z_chol, dz)))
            ds, dxt, dzt = self.scaled(x_chol, z_chol, dx, dz)
            np.testing.assert_allclose(_step_lengths(ds)(dxt, dzt), want, rtol=1e-12, atol=0)
        assert want[0] < 1.0 and want[1] == 1.0


class TestNTScaling:
    def test_scaled_points_are_one_diagonal(self):
        # G^T Z G = G^-1 X G^-T = diag(d) for positive definite pairs whose
        # eigenvalues spread down to 1e-12; the error bound is eps times
        # 1e6, the square root of that spread, relative to the largest d
        rng = np.random.default_rng(41)
        for trial in range(200):
            nn = 1 + trial % 8
            x, z = (ill_conditioned_spd(rng, nn) for _ in range(2))
            g, d = _nt_scaling(np.linalg.cholesky(x), np.linalg.cholesky(z))
            assert d.shape == (nn,) and np.all(d > 0)
            tol = np.finfo(float).eps * 1e6 * d.max()
            np.testing.assert_allclose(g.T @ z @ g, np.diag(d), rtol=0, atol=tol)
            np.testing.assert_allclose(np.linalg.solve(g, np.linalg.solve(g, x).T).T,
                                       np.diag(d), rtol=0, atol=tol)


def reduced_block_reference(block, x_p, nullspace):
    """One block over the nullspace coordinates, one column at a time."""
    const = np.asarray(np.real(block.const), dtype=float).copy()
    stack = np.zeros((nullspace.shape[1], block.size, block.size))
    for i, entry, coeff in block.unknowns():
        mat = np.zeros(block.size * block.size)
        mat[entry] = coeff
        mat = mat.reshape(block.size, block.size)
        const += x_p[i] * mat
        for k in np.nonzero(np.abs(nullspace[i]) > 0)[0]:
            stack[k] += nullspace[i, k] * mat
    return (const + const.T) / 2.0, (stack + np.transpose(stack, (0, 2, 1))) / 2.0


class TestReducedBlocks:
    def test_equals_the_per_column_loop(self):
        rng = np.random.default_rng(37)
        nv, f = 9, 5
        nullspace = rng.standard_normal((nv, f)) * 10.0 ** rng.uniform(-8, 8, (nv, f))
        nullspace[1] = 0.0  # a variable the equalities fix
        nullspace[2, [0, 3]] = 0.0  # partly zero rows
        nullspace[4, 1:] = 0.0
        x_p = rng.standard_normal(nv)
        blocks = []
        for b, nn in enumerate((3, 1, 4, 3)):
            # variable 6 appears in no block
            coeffs = {i: symmetric(rng, nn) * 10.0 ** rng.uniform(-6, 6)
                      for i in rng.permutation(nv) if i != 6}
            blocks.append(block_from_dense(f"b{b}", nn, symmetric(rng, nn), coeffs))
        reduced = _reduced_blocks(lmi_problem(blocks, np.zeros(nv)), x_p, nullspace)
        assert len(reduced) == len(blocks)
        for (const, stack), block in zip(reduced, blocks):
            want_const, want_stack = reduced_block_reference(block, x_p, nullspace)
            assert np.array_equal(const, want_const)
            assert np.array_equal(stack, want_stack)


def ill_conditioned_spd(rng, nn):
    q, _ = np.linalg.qr(rng.standard_normal((nn, nn)))
    return (q * 10.0 ** rng.uniform(-12, 0, nn)) @ q.T
