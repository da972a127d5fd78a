import os
import pathlib
import tracemalloc

import numpy as np
import pytest

from momext import linalg
from momext.errors import FormatError, NotHermitian, OrderTooSmall, ParseError
from momext.hierarchy import (
    Constraint,
    PolynomialProblem,
    RelaxationMap,
    assemble_relaxation,
    export_sdpa,
    import_solution,
    parse_problem,
    realify,
)
from momext.moment import (
    HermitianPoly,
    enumerate_indices,
    hyponormality_block,
    localizing_matrix,
    moment_matrix,
)

import paperdata as pd

DEMO = os.path.join(os.path.dirname(__file__), "..", "demo")


def demo(name):
    return os.path.join(DEMO, name)


class TestParseProblem:
    def test_torus_splits_complex_equality(self):
        p = parse_problem(demo("torus.pop"))
        assert p.n == 1 and not p.real_vars
        # |z|^2 = 1 stays whole; z^3 = 1 splits into real and imaginary parts
        assert len(p.constraints) == 3
        assert all(c.kind == "eq" for c in p.constraints)
        assert p.d_K == 3
        assert all(c.poly.is_hermitian() for c in p.constraints)

    def test_path_objects_are_read(self):
        p = parse_problem(pathlib.Path(demo("torus.pop")))
        assert (p.n, p.d_K, len(p.constraints)) == (1, 3, 3)

    def test_unconstrained_modulus(self):
        p = parse_problem("pop 1\nn 1\nminimize\nterm 1 1 1 0\n")
        assert p.d_K == 1 and p.constraints == []

    def test_ellipse_degree(self):
        p = parse_problem(demo("ellipse.pop"))
        assert p.d_K == 2  # the variables appear to the second power

    def test_nonhermitian_inequality_rejected(self):
        text = "pop 1\nn 1\nminimize\nterm 1 1 1 0\nconstraint ineq\nterm 0 1 1 0\n"
        with pytest.raises(NotHermitian):
            parse_problem(text)

    def test_nonhermitian_objective_rejected(self):
        with pytest.raises(NotHermitian):
            parse_problem("pop 1\nn 1\nminimize\nterm 0 1 1 0\n")

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_problem("n 1\nminimize\nterm 0 0 1 0\n")  # missing header
        with pytest.raises(ParseError):
            parse_problem("pop 1\nn 1\nminimize\nterm 0 1 0\n")
        with pytest.raises(ParseError):
            parse_problem("pop 1\nn 1\nvars quaternion\nminimize\nterm 0 0 1 0\n")
        with pytest.raises(ParseError):
            parse_problem("pop 1\nn 1\nminimize\nterm 0 0 1 0\nn 2\n")  # n after the entries
        with pytest.raises(ParseError):
            parse_problem("pop 1\nvars real\nn 1\nvars complex\nminimize\nterm 0 0 1 0\n")


class TestAssembleRelaxation:
    def test_enforced_order2_block_sizes(self):
        p = parse_problem(demo("ellipse_reduced.pop"))
        sdp, _ = assemble_relaxation(p, 2, enforce_hyponormality=True)
        assert sorted(b.size for b in sdp.blocks) == [3, 6, 9]

    def test_order3_block_sizes(self):
        p = parse_problem(demo("ellipse.pop"))
        sdp, _ = assemble_relaxation(p, 3)
        assert sorted(b.size for b in sdp.blocks) == [6, 10]

    def test_order_too_small(self):
        p = parse_problem(demo("ellipse.pop"))
        with pytest.raises(OrderTooSmall):
            assemble_relaxation(p, 1)

    def test_relaxation_soundness_for_feasible_measures(self):
        # brute-force moments of feasible atoms satisfy every block and row
        p = parse_problem(demo("ellipse.pop"))
        atoms = pd.EX3_ATOMS
        weights = [0.3, 0.7]
        seq = pd.brute_moments_paired(atoms, weights, n=2, d=3)
        for enforce in (False, True):
            sdp, rmap = assemble_relaxation(p, 3, enforce_hyponormality=enforce)
            x = pd.values_from_sequence(rmap, seq)
            x = x / x[rmap.var[0, 0, 0]]  # normalize y[0,0] = 1
            for block in sdp.blocks:
                m = pd.evaluate(block, x)
                vals, _ = linalg.hermitian_eig((m + m.conj().T) / 2, tol=1e-6)
                assert vals[0] >= -5e-4 * max(1.0, abs(vals[-1]))
            resid = sdp.eq_a @ x - sdp.eq_b
            assert np.abs(resid).max() <= 5e-4

    def test_enforced_value_brackets(self):
        from momext.sdp import solve

        p = parse_problem(demo("ellipse_reduced.pop"))
        plain, _ = assemble_relaxation(p, 2)
        enforced, _ = assemble_relaxation(p, 2, enforce_hyponormality=True)
        v_plain = solve(realify(plain)).primal_objective
        v_enf = solve(realify(enforced)).primal_objective
        assert v_enf >= v_plain - 1e-6
        # grid-search oracle: f restricted to the feasible curve is
        # 2b^3 + 2b^2 + b + 1 over b in [-sqrt(2/3), sqrt(2/3)]
        b = np.linspace(-np.sqrt(2 / 3), np.sqrt(2 / 3), 200001)
        truth = np.min(2 * b**3 + 2 * b**2 + b + 1)
        assert v_enf <= truth + 1e-6


class TestEnforcementPaths:
    def test_univariate_enforced_block_shape_and_soundness(self):
        # the 2x2-grid hyponormality block for n=1; Toeplitz-feasible data
        # already satisfies it, so the optimum must not move
        from momext.sdp import solve

        p = parse_problem(demo("torus.pop"))
        sdp, _ = assemble_relaxation(p, 3, enforce_hyponormality=True)
        assert sorted(b.size for b in sdp.blocks) == [4, 6]
        sol = solve(realify(sdp))
        assert abs(sol.primal_objective - 1.0) <= 5e-3

    def test_three_variable_problem_end_to_end(self):
        # min sum |z_k - c_k|^2 inside a ball: unique minimizer at c,
        # exercised with and without the joint hyponormality block of the
        # three variables
        from momext.extraction import Tolerances, extract_measure
        from momext.sdp import solve

        c = [0.5 + 0.5j, -1.0 + 0.25j, 0.75 - 1.0j]
        lines = ["pop 1", "n 3", "vars complex", "minimize"]
        lines.append(f"term 0,0,0 0,0,0 {sum(abs(ck) ** 2 for ck in c)} 0")
        zero = "0,0,0"
        for k, ck in enumerate(c):
            e = ",".join("1" if i == k else "0" for i in range(3))
            lines.append(f"term {e} {e} 1 0")
            lines.append(f"term {e} {zero} {(-ck).real} {(-ck).imag}")
            lines.append(f"term {zero} {e} {(-ck).conjugate().real} "
                         f"{(-ck).conjugate().imag}")
        lines += ["constraint ineq", f"term {zero} {zero} 9 0"]
        for k in range(3):
            e = ",".join("1" if i == k else "0" for i in range(3))
            lines.append(f"term {e} {e} -1 0")
        problem = parse_problem("\n".join(lines) + "\n")
        tol = Tolerances(rank_tol=1e-5, psd_tol=1e-5, shift_tol=1e-3,
                         hypo_tol=1e-3, offdiag_tol=1e-3)
        for enforce in (False, True):
            sdp, rmap = assemble_relaxation(problem, 1,
                                            enforce_hyponormality=enforce)
            if enforce:
                hypo = [b for b in sdp.blocks if b.name.startswith("hypo")]
                assert [(b.name, b.size) for b in hypo] == [("hypo:1,2,3", 4)]
            sol = solve(realify(sdp))
            assert abs(sol.primal_objective) <= 1e-5
            measure, report = extract_measure(
                rmap.sequence_from_values(sol.variables), dk=1, tol=tol
            )
            assert len(measure.atoms) == 1
            assert max(abs(measure.atoms[0][k] - c[k]) for k in range(3)) <= 1e-4
            assert report.certification == "certified"


def _ball_problem(n, real_vars):
    """min Re z_1 over 4 - sum |z_k|^2 + 0.3 (conj(z_1) z_n + conj(z_n) z_1) >= 0
    and |z_1|^2 <= 2; n = 1 folds the cross term into |z_1|^2."""
    zero = ",".join("0" * n)
    unit = [",".join("1" if i == k else "0" for i in range(n)) for k in range(n)]
    lines = ["pop 1", f"n {n}", f"vars {'real' if real_vars else 'complex'}", "minimize",
             f"term {unit[0]} {zero} 0.5 0", f"term {zero} {unit[0]} 0.5 0",
             "constraint ineq", f"term {zero} {zero} 4 0"]
    lines += [f"term {e} {e} -1 0" for e in unit]
    lines += [f"term {unit[0]} {unit[-1]} 0.3 0", f"term {unit[-1]} {unit[0]} 0.3 0"]
    lines += ["constraint ineq", f"term {zero} {zero} 2 0", f"term {unit[0]} {unit[0]} -1 0"]
    return parse_problem("\n".join(lines) + "\n")


class TestBlocksMatchDataSide:
    """Each relaxation block at values_from_sequence(y) is the data-side matrix of y."""

    @pytest.mark.parametrize("real_vars", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_blocks_at_moment_values(self, n, real_vars):
        d = 2
        problem = _ball_problem(n, real_vars)
        rng = np.random.default_rng(20 + n)
        atoms = [tuple(0.7 * rng.standard_normal(n) if real_vars else
                       0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
                 for _ in range(3)]
        seq = pd.brute_moments_paired(atoms, rng.uniform(0.2, 1.0, 3), n=n, d=d)
        sdp, rmap = assemble_relaxation(problem, d, enforce_hyponormality=True)
        x = pd.values_from_sequence(rmap, seq)
        expected = {"moment": moment_matrix(seq, d).matrix}
        for ci, con in enumerate(problem.constraints):
            expected[f"localizing:{ci}"] = localizing_matrix(seq, con.poly, d).matrix
        name = {1: "hypo:uni", 2: "hypo:1,2", 3: "hypo:1,2,3"}[n]
        expected[name] = hyponormality_block(seq, 1).matrix
        assert [b.name for b in sdp.blocks] == list(expected)
        for block in sdp.blocks:
            np.testing.assert_allclose(pd.evaluate(block, x), expected[block.name],
                                       rtol=0, atol=1e-12)


class TestRelaxationMap:
    def test_hermitian_round_trip(self):
        rmap = RelaxationMap(2, 2)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(rmap.n_vars)
        seq = rmap.sequence_from_values(x)
        assert seq.is_hermitian(1e-14)
        np.testing.assert_allclose(pd.values_from_sequence(rmap, seq), x, atol=1e-14)

    def test_hankel_real_round_trip(self):
        rmap = RelaxationMap(2, 2, real_vars=True)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(rmap.n_vars)
        seq = rmap.sequence_from_values(x)
        from momext.moment import classify_structure, moment_matrix

        flags = classify_structure(moment_matrix(seq, 2), tol=1e-12)
        assert flags.hankel and flags.hermitian
        np.testing.assert_allclose(pd.values_from_sequence(rmap, seq), x, atol=1e-14)

    def test_variable_count(self):
        # Hermitian d=2, n=2: 21 real + 15 imaginary unknowns
        rmap = RelaxationMap(2, 2)
        assert rmap.n_vars == 36
        assert RelaxationMap(2, 3, real_vars=True).n_vars == len(enumerate_indices(2, 6))

    def test_sequence_to_values_to_sequence_identity(self):
        rmap = RelaxationMap(2, 3)
        seq = pd.ex3_seq()
        back = rmap.sequence_from_values(pd.values_from_sequence(rmap, seq))
        for key, v in seq.values.items():
            assert abs(complex(back.values[key]) - complex(v)) <= 1e-12


class TestRealify:
    def test_real_block_unchanged(self):
        p = parse_problem(demo("triangle.pop"))
        sdp, _ = assemble_relaxation(p, 2)
        real = realify(sdp)
        assert [b.size for b in real.blocks] == [b.size for b in sdp.blocks]
        assert real.is_real

    def test_embedding_doubles_eigenvalues(self):
        h = np.array([[1.0, 1j], [-1j, 1.0]])
        from momext.hierarchy import _embed

        e = _embed(h)
        assert e.shape == (4, 4)
        np.testing.assert_allclose(np.linalg.eigvalsh(e), [0, 0, 2, 2], atol=1e-12)

    def test_each_coefficient_is_the_embedding_of_its_matrix(self):
        # the triplets give, bit for bit, _embed of each unknown's dense matrix
        from momext.hierarchy import _embed

        p = parse_problem(demo("ellipse.pop"))
        sdp, _ = assemble_relaxation(p, 3, enforce_hyponormality=True)
        real = realify(sdp)
        for cb, rb in zip(sdp.blocks, real.blocks):
            assert rb.size == 2 * cb.size
            unknowns = cb.unknowns()
            assert [i for i, _, _ in rb.unknowns()] == [i for i, _, _ in unknowns]
            for (i, entry, coeff), (_, r_entry, r_coeff) in zip(unknowns, rb.unknowns()):
                h = np.zeros(cb.size ** 2, dtype=complex)
                h[entry] = coeff
                embedded = _embed(h.reshape(cb.size, cb.size)).ravel()
                got = np.zeros(rb.size ** 2)
                got[r_entry] = r_coeff
                assert np.array_equal(got, embedded), (cb.name, i)
                assert np.all(r_coeff != 0) and len(set(r_entry)) == len(r_entry)

    def test_min_eigenvalue_preserved(self):
        p = parse_problem(demo("ellipse.pop"))
        sdp, rmap = assemble_relaxation(p, 3)
        real = realify(sdp)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(sdp.n_vars)
        for cb, rb in zip(sdp.blocks, real.blocks):
            m = pd.evaluate(cb, x)
            vals, _ = linalg.hermitian_eig((m + m.conj().T) / 2, tol=1e-6)
            rvals = np.linalg.eigvalsh(pd.evaluate(rb, x))
            assert abs(vals[0] - rvals[0]) <= 1e-10 * max(1, abs(vals[0]))


class TestSdpaText:
    def toy(self):
        return parse_problem(
            "pop 1\nn 1\nminimize\nterm 1 1 1 0\nconstraint ineq\nterm 0 0 1 0\nterm 1 1 -1 0\n"
        )

    def test_export_golden(self):
        sdp, _ = assemble_relaxation(self.toy(), 1)
        text = export_sdpa(realify(sdp))
        lines = text.splitlines()
        assert lines[0] == '"momext export'
        assert lines[1] == "4"          # variables
        assert lines[2] == "3"          # two PSD blocks + one diagonal block
        # realified moment block 4x4, scalar localizer, one +/- pair for y[0,0]=1
        assert lines[3] == "4 1 -2"

    def test_export_import_round_trip(self):
        p = parse_problem(demo("ellipse_reduced.pop"))
        sdp, _ = assemble_relaxation(p, 2, enforce_hyponormality=True)
        real = realify(sdp)
        parsed = pd.read_sdpa(export_sdpa(real))
        assert parsed.n_vars == real.n_vars
        expected_sizes = [b.size for b in real.blocks] + [-2 * real.eq_a.shape[0]]
        assert parsed.block_sizes == expected_sizes
        np.testing.assert_allclose(parsed.objective, real.objective)
        # structural identity under a second export from the parsed pieces
        assert set(parsed.entries) <= set(range(real.n_vars + 1))

    def test_import_solution_round_trip(self):
        p = parse_problem(demo("ellipse.pop"))
        _, rmap = assemble_relaxation(p, 2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(rmap.n_vars)
        text = " ".join(format(v, ".17g") for v in x)
        seq = import_solution(text, rmap)
        np.testing.assert_allclose(pd.values_from_sequence(rmap, seq), x, atol=1e-14)

    def test_import_errors(self):
        p = parse_problem(demo("ellipse.pop"))
        _, rmap = assemble_relaxation(p, 2)
        with pytest.raises(FormatError):
            import_solution("1 2 3", rmap)
        with pytest.raises(FormatError):
            import_solution("1 " * rmap.n_vars + "oops", rmap)

    def test_read_sdpa_rejects_garbage(self):
        with pytest.raises(FormatError):
            pd.read_sdpa("2\n1\n")
        with pytest.raises(FormatError):
            pd.read_sdpa("1\n1\n2\n1.0\n0 1 1\n")

    @pytest.mark.parametrize("entry", ["1 1 9 9 1.0", "0 1 0 -3 2.0", "1 1 0 1 1.0",
                                       "1 1 1 3 1.0", "1 2 1 2 1.0", "1 2 3 3 1.0"])
    def test_read_sdpa_rejects_entries_outside_their_block(self, entry):
        # block 1 is 2x2; block 2 is diagonal of size 2
        header = "1\n2\n2 -2\n1.0\n"
        assert pd.read_sdpa(header + "1 1 1 2 1.0\n1 2 2 2 1.0\n").entries[1] == [
            (1, 1, 2, 1.0), (2, 2, 2, 1.0)]
        with pytest.raises(FormatError):
            pd.read_sdpa(header + entry + "\n")

    @pytest.mark.parametrize("name, order, enforce", [
        ("ellipse.pop", 3, True), ("torus.pop", 3, False), ("triangle.pop", 3, True)])
    def test_blocks_rebuilt_from_sdpa_text_equal_the_blocks(self, name, order, enforce):
        sdp, _ = assemble_relaxation(parse_problem(demo(name)), order,
                                     enforce_hyponormality=enforce)
        real = realify(sdp)
        got = {}  # (blkno, matno, i, j) -> value over both triangles, 0-based i and j
        for matno, items in pd.read_sdpa(export_sdpa(real)).entries.items():
            for blkno, i, j, v in items:
                assert i <= j  # the upper triangle only
                got[blkno, matno, i - 1, j - 1] = got[blkno, matno, j - 1, i - 1] = v
        want = {}
        for bi, b in enumerate(real.blocks, start=1):
            for i, j in zip(*np.nonzero(b.const)):
                want[bi, 0, i, j] = -b.const[i, j]
            for k, e, v in zip(b.var, b.entry, b.coeff):
                want[(bi, k + 1) + divmod(e, b.size)] = v
        eq_block = len(real.blocks) + 1
        for r, rhs_and_row in enumerate(np.column_stack([real.eq_b, real.eq_a])):
            for k in np.flatnonzero(rhs_and_row):
                want[eq_block, k, 2 * r, 2 * r] = rhs_and_row[k]
                want[eq_block, k, 2 * r + 1, 2 * r + 1] = -rhs_and_row[k]
        assert got == want


def test_coalesce_sums_in_the_given_order_and_keeps_first_use_order():
    from momext.hierarchy import _coalesce

    # size 2; unknown 7 is used first, then 3. (var 3, entry 1) sums
    # 1e16 + 1 - 1e16 to 0 in this order, and (var 7, entry 2) cancels
    entry = np.array([2, 1, 0, 1, 2, 1, 3])
    var = np.array([7, 3, 7, 3, 7, 3, 3])
    coeff = np.array([1.5, 1e16, 2.0, 1.0, -1.5, -1e16, 4.0])
    entry, var, coeff = _coalesce(2, entry, var, coeff)
    assert entry.tolist() == [0, 3] and var.tolist() == [7, 3]
    assert coeff.tolist() == [2.0, 4.0]
    # the same terms in another order sum to 1
    entry, var, coeff = _coalesce(2, np.array([1, 1, 1]), np.array([0, 0, 0]),
                                  np.array([1e16, -1e16, 1.0]))
    assert (entry.tolist(), var.tolist(), coeff.tolist()) == ([1], [0], [1.0])


def _pop_ball_problem(n, seed):
    """Minimize a random Hermitian quartic over the unit ball sum |z_k|^2 <= 1."""
    rng = np.random.default_rng(seed)
    exps = enumerate_indices(n, 2)
    a = rng.standard_normal((len(exps),) * 2) + 1j * rng.standard_normal((len(exps),) * 2)
    q = (a + a.conj().T) / 2.0
    objective = HermitianPoly(n, {(ea, eb): q[i, j] for i, ea in enumerate(exps)
                                  for j, eb in enumerate(exps)})
    ball = {(exps[0], exps[0]): 1.0, **{(e, e): -1.0 for e in exps[1:n + 1]}}
    return PolynomialProblem(n, objective, [Constraint(HermitianPoly(n, ball), "ineq")])


def test_relaxation_assembly_memory_stays_sparse():
    # one dense coefficient matrix per unknown took 57 MB here; the
    # triplets take about 1 MB
    problem = _pop_ball_problem(3, seed=1)
    assert problem.objective.k == 2 and problem.d_K == 1
    tracemalloc.start()
    try:
        real = realify(assemble_relaxation(problem, 3, enforce_hyponormality=True)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [b.size for b in real.blocks] == [40, 20, 80]  # one joint block of 4 x 10 rows
    assert peak < 10e6


class TestSolutionImportMatchesPaper:
    def test_torus_solution_reproduces_printed_matrix(self):
        from momext.moment import moment_matrix
        from momext.sdp import solve

        p = parse_problem(demo("torus.pop"))
        sdp, rmap = assemble_relaxation(p, 3)
        sol = solve(realify(sdp))
        text = " ".join(format(v, ".17g") for v in sol.variables)
        seq = import_solution(text, rmap)
        m3 = moment_matrix(seq, 3).matrix
        printed = np.array(
            [[0.5 * (1 + pd.OMEGA ** (b - a)) for b in range(4)] for a in range(4)]
        )
        assert np.abs(m3 - printed).max() <= 5e-3
