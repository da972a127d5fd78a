import numpy as np
import pytest

from momext import extraction, linalg
from momext.errors import (
    BasisDegenerate,
    NotFlat,
    NotHermitian,
    NotHyponormal,
    OrderTooSmall,
    ParseError,
    ShiftInconsistent,
)
from momext.extraction import (
    CONJUGATE,
    TRANSPOSE,
    AtomicMeasure,
    Tolerances,
    check_flatness,
    check_hyponormality,
    compute_shifts,
    extract_measure,
    feasibility_report,
    read_measure,
    simultaneous_diagonalize,
    verify_measure,
    write_measure,
)
from momext.moment import (
    MomentSequence,
    enumerate_indices,
    hyponormality_grid,
    index_count,
    layout,
    moment_matrix,
    unit_index,
)

import paperdata as pd

PRINTED = Tolerances.printed()


def sorted_atoms(measure):
    return measure.sorted().atoms


class TestCheckFlatness:
    def test_example3(self):
        flat = check_flatness(pd.ex3_seq(), 3, 2, tol=1e-3)
        assert flat.ranks == [1, 2, 2, 2]
        assert flat.flat_dk and flat.flat_1
        assert (flat.r_d, flat.r_dm1, flat.r_ddk) == (2, 2, 2)

    def test_example7_hankel(self):
        from momext.interp import sample_grid

        flat = check_flatness(sample_grid(pd.ex7_model(), 2), 2, 1, tol=1e-7)
        assert flat.ranks == [1, 2, 2]
        assert flat.flat_1

    def test_not_flat_case(self):
        # three distinct univariate atoms truncated at d=1: rank grows 1 -> 2
        seq = pd.brute_moments_paired([(0.0,), (1.0,), (2.0,)], [1.0, 1.0, 1.0],
                                      n=1, d=1)
        flat = check_flatness(seq, 1, 1, tol=1e-8)
        assert flat.ranks == [1, 2] and not flat.flat_1

    def test_ranks_never_exceed_the_rank_at_order_d(self):
        # random atoms plus Hermitian (or Hankel) noise on both sides of
        # rank_tol, with ||M_d|| up to ~1e4; ranking each M_t against its
        # own norm alone let a noise value that M_d discards count in M_t
        rng = np.random.default_rng(41)
        for trial in range(400):
            n, d = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            labels = enumerate_indices(n, d)
            r = int(rng.integers(1, len(labels) + 2))
            atoms = rng.uniform(-1.3, 1.3, (r, n)) + 1j * rng.uniform(-1.3, 1.3, (r, n))
            weights = rng.uniform(0.1, 1.0, r) * 10.0 ** rng.uniform(-1, 3)
            noise = 10.0 ** rng.uniform(-10, -2) * weights.sum()
            if trial % 2:
                v = np.array([[np.prod(z ** np.array(a)) for a in labels] for z in atoms])
                e = rng.standard_normal((len(labels),) * 2) + 1j * rng.standard_normal(
                    (len(labels),) * 2)
                m = v.conj().T @ (weights[:, None] * v) + noise * (e + e.conj().T)
                seq = MomentSequence(n=n, d=d, mode="paired", values={
                    (a, b): m[i, j] for i, a in enumerate(labels) for j, b in enumerate(labels)})
            else:
                seq = MomentSequence(n=n, d=d, mode="hankel", values={
                    s: np.sum(weights * np.prod(atoms ** np.array(s), axis=1))
                    + noise * complex(*rng.standard_normal(2))
                    for s in enumerate_indices(n, 2 * d)})
            for tol in (1e-7, 1e-3):
                flat = check_flatness(seq, d, 1, tol=tol)
                assert max(flat.ranks) <= flat.r_d, (trial, tol, flat.ranks)


class TestComputeShifts:
    def test_example1_inconsistent(self):
        x = linalg.psd_root_factor(pd.EX1_M2)
        labels = enumerate_indices(1, 2)
        with pytest.raises(ShiftInconsistent):
            compute_shifts(x, labels, [0], CONJUGATE, tol=1e-6)

    def test_example2_printed_factor_reproduces_shifts(self):
        labels = enumerate_indices(2, 2)
        fam = compute_shifts(pd.EX2_X, labels, [0, 1, 2], CONJUGATE, tol=5e-3)
        np.testing.assert_allclose(fam.shifts[0], pd.EX2_T1, atol=5e-4)
        np.testing.assert_allclose(fam.shifts[1], pd.EX2_T2, atol=5e-4)

    def test_example3_shifts(self):
        x = linalg.psd_root_factor(pd.EX3_M3, tol=1e-3, rank_tol=1e-3)
        labels = enumerate_indices(2, 3)
        fam = compute_shifts(x, labels, [0, 1], CONJUGATE, tol=5e-3)
        np.testing.assert_allclose(fam.shifts[0], pd.EX3_T1, atol=2e-3)
        np.testing.assert_allclose(fam.shifts[1], pd.EX3_T2, atol=2e-3)

    def test_example7_printed_factor_column_map(self):
        # T_2 maps the column labeled z1 to the column labeled z1 z2
        labels = enumerate_indices(2, 2)
        fam = compute_shifts(pd.EX7_X, labels, [0, 1], TRANSPOSE, tol=5e-3)
        np.testing.assert_allclose(fam.shifts[0], pd.EX7_T1, atol=5e-4)
        np.testing.assert_allclose(fam.shifts[1], pd.EX7_T2, atol=5e-4)
        image = fam.shifts[1] @ pd.EX7_X[:, 1]
        np.testing.assert_allclose(image, pd.EX7_X[:, 4], atol=2e-3)

    def test_missing_shifted_label(self):
        x = np.array([[1.0, 0.0, 2.0]], dtype=complex)
        with pytest.raises(BasisDegenerate):
            compute_shifts(x, [(0,), (1,), (2,)], [2], CONJUGATE)


class TestCheckHyponormality:
    def test_example3_passes_with_known_spectrum(self):
        from momext.extraction import operator_hypo_block

        x = linalg.psd_root_factor(pd.EX3_M3, tol=1e-3, rank_tol=1e-3)
        fam = compute_shifts(x, enumerate_indices(2, 3), [0, 1], CONJUGATE, 5e-3)
        res = check_hyponormality(fam, tol=5e-3)
        assert res.passed
        block = operator_hypo_block(fam.shifts[0], fam.shifts[1])
        vals, _ = linalg.hermitian_eig(block, tol=1e-6)
        np.testing.assert_allclose(vals, pd.EX3_OPERATOR_SPECTRUM, atol=2e-3)

    def test_example2_fails(self):
        fam = compute_shifts(pd.EX2_X, enumerate_indices(2, 2), [0, 1, 2],
                             CONJUGATE, 5e-3)
        res = check_hyponormality(fam, tol=5e-3)
        assert not res.passed
        assert abs(res.min_eig - pd.EX2_OPERATOR_MIN_EIG) < 1e-2

    def test_unitary_shift_univariate(self):
        # the torus fixture's shift is unitary, so its self-commutator vanishes
        meas, rep = extract_measure(pd.ex5_seq(3), dk=3, tol=Tolerances())
        assert rep.hypo_commutator <= 1e-8

    def test_three_variable_measures_pass_the_joint_block(self):
        # the shifts of a true measure are jointly hyponormal: one 4 x 4-cell
        # operator block over 0, e_1, e_2, e_3, PSD up to round-off
        from momext.extraction import operator_hypo_block

        rng = np.random.default_rng(41)
        for r in (1, 2, 3, 4):
            atoms = rng.standard_normal((r, 3)) + 1j * rng.standard_normal((r, 3))
            seq = pd.brute_moments_paired(atoms, rng.uniform(0.2, 1.0, r), n=3, d=2)
            x = linalg.psd_root_factor(moment_matrix(seq, 2).matrix)
            fam = compute_shifts(x, enumerate_indices(3, 2), linalg.column_basis(x),
                                 CONJUGATE)
            res = check_hyponormality(fam)
            assert res.passed and res.min_eig >= -1e-9
            assert operator_hypo_block(*fam.shifts).shape == (4 * r, 4 * r)


class TestBatchedKernels:
    """The stacked shift residual, commutator and spectral norms against the
    loops they replace, within 1e-14 of the scale of their operands."""

    @staticmethod
    def _families():
        # exact and noisy factors of n = 1..3 measures; noise makes the residual large
        rng = np.random.default_rng(21)
        for n, d, r in ((1, 3, 2), (2, 3, 4), (3, 2, 3), (3, 4, 4)):
            atoms = _separated_atoms(rng, n, r)
            seq = pd.brute_moments_paired(atoms, rng.uniform(0.2, 1.5, r), n=n, d=d)
            x = linalg.psd_root_factor(moment_matrix(seq, d).matrix)
            for noise in (0.0, 1e-3):
                noisy = x + noise * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
                labels = enumerate_indices(n, d)
                yield noisy, labels, compute_shifts(noisy, labels, linalg.column_basis(noisy),
                                                    CONJUGATE, tol=np.inf)

    def test_residual_matches_the_column_loop(self):
        for x, labels, fam in self._families():
            n, d = len(labels[0]), max(map(sum, labels))
            worst = 0.0
            for k, t in enumerate(fam.shifts, 1):
                for i, j in enumerate(layout(n, d).shift(unit_index(n, k), d - 1)):
                    worst = max(worst, np.linalg.norm(t @ x[:, i] - x[:, j]) / np.linalg.norm(x))
            assert abs(fam.residual - worst) <= 1e-14  # both relative to ||x||

    def test_commutator_matches_the_pair_loop(self):
        rng = np.random.default_rng(22)
        random_ops = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
                      for _ in range(4)]
        cases = [random_ops] + [fam.shifts + [t.conj().T for t in fam.shifts]
                                for _, _, fam in self._families()]
        for ops in cases:
            loop = max(np.linalg.norm(a @ b - b @ a) for i, a in enumerate(ops) for b in ops[i + 1:])
            scale = max(np.linalg.norm(a) for a in ops) ** 2
            assert abs(extraction._max_commutator(ops) - loop) <= 1e-14 * scale

    def test_norms_match_each_spectral_norm(self):
        for _, _, fam in self._families():
            np.testing.assert_allclose(fam.norms, [np.linalg.norm(t, 2) for t in fam.shifts],
                                       rtol=1e-14, atol=0)
            assert fam.norms is fam.norms  # computed once per family


def _cellwise_operator_block(*shifts):
    """The operator block as `np.block` of its cells S_s^* S_r (S_0 = I), one at a time."""
    k = len(shifts)
    eye = np.eye(shifts[0].shape[0], dtype=complex)
    ops = {(0,) * k: eye} | {unit_index(k, i): t for i, t in enumerate(shifts, 1)}

    def cell(gamma, delta):  # S_gamma^* S_delta; a product with I is not formed
        left, right = ops[gamma], ops[delta]
        if left is eye:
            return right
        return left.conj().T if right is eye else left.conj().T @ right

    return np.block([[cell(gamma, delta) for gamma, delta in row]
                     for row in hyponormality_grid(k)])


def _shift_off_diagonal(e, norm, tol):
    """The off-diagonal test of one matrix e, as `simultaneous_diagonalize` ran it per shift."""
    return np.linalg.norm(e - np.diag(np.diag(e))) > tol * max(1.0, norm)


class TestStackedTests:
    """The stacked operator block and off-diagonal test against the loops they replace."""

    def test_operator_block_equals_the_cellwise_block_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3):
            for r in (1, 2, 5):
                complex_shifts = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
                                  for _ in range(n)]
                real_shifts = [rng.standard_normal((r, r)).astype(complex) for _ in range(n)]
                negated = [-t for t in real_shifts]  # imaginary parts -0.0
                for shifts in (complex_shifts, real_shifts, negated):
                    got = extraction.operator_hypo_block(*shifts)
                    want = _cellwise_operator_block(*shifts)
                    assert got.shape == want.shape == ((n + 1) * r, (n + 1) * r)
                    assert np.array_equal(got, want)
                    for part in ("real", "imag"):
                        assert np.array_equal(np.signbit(getattr(got, part)),
                                              np.signbit(getattr(want, part)))

    def test_off_diagonal_decisions_match_the_shift_loop(self):
        # each off-diagonal part is scaled to a factor of the threshold
        # tol * max(1, norm), just below and just above it among others
        rng = np.random.default_rng(24)
        tol = 1e-6
        factors = (1 - 1e-9, 1 + 1e-9, 0.5, 2.0, 1 - 1e-6, 1 + 1e-6)
        decided = set()
        for n, r in ((1, 2), (2, 3), (3, 4), (3, 6)):
            for _ in range(20):
                norms = rng.uniform(0.2, 5.0, n)  # both sides of max(1, norm)
                es = np.empty((n, r, r), dtype=complex)
                for k in range(n):
                    off = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
                    off[np.diag_indices(r)] = 0.0
                    scale = rng.choice(factors) * tol * max(1.0, norms[k]) / np.linalg.norm(off)
                    diag = np.diag(rng.standard_normal(r) + 1j * rng.standard_normal(r))
                    es[k] = diag + scale * off
                loop = [_shift_off_diagonal(e, norm, tol) for e, norm in zip(es, norms)]
                got = extraction._off_diagonal(es, norms, tol)
                assert got.shape == (n,) and list(got) == loop
                assert got.any() == any(loop)
                assert [bool(extraction._off_diagonal(e, norm, tol))
                        for e, norm in zip(es, norms)] == loop
                decided.update(loop)
        assert decided == {False, True}


class TestSimultaneousDiagonalize:
    def test_example3_printed_combination(self):
        from momext.extraction import ShiftFamily, _unitary_diagonalizer

        t1, t2 = pd.EX3_T1, pd.EX3_T2
        a = pd.EX3_COMBO[0] * t1 + pd.EX3_COMBO[1] * t2
        p = _unitary_diagonalizer(a.astype(complex), 1e-3)
        assert p is not None
        np.testing.assert_allclose(np.abs(p), np.abs(pd.EX3_P), atol=1e-3)
        coords = np.sort_complex(np.diag(p.conj().T @ t1 @ p))
        np.testing.assert_allclose(
            coords, sorted([a[0] for a in pd.EX3_ATOMS], key=lambda z: (z.real, z.imag)),
            atol=1e-3)

    def test_diagonal_shifts_trivial(self):
        fam_shifts = [np.diag([1.0 + 0j, 2.0]), np.diag([3.0 + 0j, -1.0])]
        from momext.extraction import ShiftFamily

        fam = ShiftFamily(fam_shifts, CONJUGATE, 2, 0.0)
        p, coords = simultaneous_diagonalize(fam, seed=0)
        np.testing.assert_allclose(np.abs(p), np.eye(2), atol=1e-10)
        np.testing.assert_allclose(sorted(coords[0].real), [1.0, 2.0], atol=1e-12)

    def test_example7_printed_combination(self):
        from momext.extraction import _orthogonal_diagonalizer

        a = pd.EX7_COMBO[0] * pd.EX7_T1 + pd.EX7_COMBO[1] * pd.EX7_T2
        status, p = _orthogonal_diagonalizer(a.astype(complex), 1e-4)
        assert status == "ok"
        np.testing.assert_allclose(p.T @ p, np.eye(2), atol=1e-4)
        coords1 = np.diag(p.T @ pd.EX7_T1 @ p)
        np.testing.assert_allclose(sorted(coords1, key=lambda z: z.real),
                                   sorted(pd.EX7_COORDS1, key=lambda z: z.real),
                                   atol=1e-3)
        coords2 = np.diag(p.T @ pd.EX7_T2 @ p)
        np.testing.assert_allclose(sorted(coords2, key=lambda z: z.real),
                                   sorted(pd.EX7_COORDS2, key=lambda z: z.real),
                                   atol=1e-3)


class TestExtractMeasure:
    def test_one_eigendecomposition_of_the_moment_matrix(self, monkeypatch):
        # M_3 is 10x10 for n = 2; every other matrix decomposed here is smaller
        seq = pd.brute_moments_paired(pd.EX3_ATOMS, [0.3, 0.7], n=2, d=3)
        sizes = []
        original = linalg.hermitian_eig

        def counting(a, *args, **kwargs):
            sizes.append(len(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "hermitian_eig", counting)
        _, rep = extract_measure(seq, dk=1)
        assert rep.certification == "certified"
        assert sizes.count(10) == 1

    def test_leading_moment_matrices_are_ranked_from_values_alone(self, monkeypatch):
        # M_d's eigenvectors give the root factor; M_0 .. M_{d-1} only give ranks
        seq = pd.brute_moments_paired(pd.EX3_ATOMS, [0.3, 0.7], n=2, d=3)
        calls = {"hermitian_eig": [], "hermitian_eigvals": []}

        def recording(name):  # linalg.<name>, appending each matrix it is passed
            original = getattr(linalg, name)

            def wrapper(a, *args, **kwargs):
                calls[name].append(a)
                return original(a, *args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(linalg, name, recording(name))
        _, rep = extract_measure(seq, dk=1)
        assert rep.certification == "certified"

        def orders(name):  # the order t of each M_t(y) passed to linalg.<name>
            return [t for a in calls[name] for t in range(seq.d + 1) if a is seq.matrix(t).matrix]

        assert orders("hermitian_eig") == [seq.d] and len(calls["hermitian_eig"]) == 1
        assert sorted(orders("hermitian_eigvals")) == list(range(seq.d))
        for seen in calls.values():
            seen.clear()
        assert check_flatness(seq, seq.d, 1, Tolerances().rank_tol).ranks == rep.ranks
        assert calls == {"hermitian_eig": [], "hermitian_eigvals": []}

    @pytest.mark.parametrize("hankel", [False, True])
    def test_each_moment_matrix_gathered_once(self, monkeypatch, hankel):
        # the sequence keeps M_t next to its decompositions; the extraction
        # and its ranks read it from there, and the leading M_t are slices
        # of the gathered M_d
        from momext import moment
        from momext.interp import sample_grid

        seq = (sample_grid(pd.ex7_model(), 2) if hankel
               else pd.brute_moments_paired(pd.EX3_ATOMS, [0.3, 0.7], n=2, d=3))
        orders = []
        original = moment.moment_matrix

        def counting(s, t):
            orders.append(t)
            return original(s, t)

        monkeypatch.setattr(moment, "moment_matrix", counting)
        _, rep = extract_measure(seq, dk=1)
        assert rep.certification == "certified"
        assert orders == [seq.d]
        assert seq.matrix(seq.d) is seq.matrix(seq.d)
        for t in range(seq.d + 1):
            assert not seq.matrix(t).matrix.flags.writeable

    def test_one_takagi_of_the_hankel_matrix_in_transpose_mode(self, monkeypatch):
        # H_2 is 6x6 for n = 2: its Takagi factorization gives both the rank
        # at order 2 and the factor
        from momext.interp import sample_grid

        seq = sample_grid(pd.ex7_model(), 2)
        sizes = []
        original = linalg.takagi

        def counting(a, *args, **kwargs):
            sizes.append(len(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "takagi", counting)
        meas, rep = extract_measure(seq, mode=TRANSPOSE)
        assert len(meas.atoms) == 2 and rep.ranks == [1, 2, 2]
        assert sizes.count(6) == 1

    def test_smallest_eigenvalue_reported_in_conjugate_mode_only(self):
        # transpose mode reads the Takagi factorization alone: no eigenvalues
        from momext.interp import sample_grid

        _, rep = extract_measure(sample_grid(pd.ex7_model(), 2), mode=TRANSPOSE)
        assert rep.min_moment_eig is None and rep.certification == "certified"
        _, rep = extract_measure(pd.ex3_seq(), dk=2, tol=PRINTED)
        assert isinstance(rep.min_moment_eig, float)

    @pytest.mark.parametrize("mode", [CONJUGATE, TRANSPOSE])
    def test_order_zero_raises_order_too_small(self, mode):
        # M_0 has no shifted column; the order, not the basis, is at fault
        seq = pd.brute_moments_paired([(0.5,)], [1.0], n=1, d=1)
        with pytest.raises(OrderTooSmall):
            extract_measure(seq, d=0, mode=mode)

    def test_nonhermitian_moment_matrix_rejected(self):
        # one off-diagonal moment nudged without its mirror: the ranks of the
        # Hermitian part ignore it at this rank_tol, the root factor must not
        exact = pd.brute_moments_paired([(0.5 + 0.5j,)], [1.0], n=1, d=2)
        values = dict(exact.values)
        values[((0,), (1,))] += 1e-4
        seq = MomentSequence(n=1, d=2, mode="paired", values=values)
        with pytest.raises(NotHermitian):
            extract_measure(seq, dk=1, tol=Tolerances(rank_tol=1e-2))

    def test_example3(self):
        meas, rep = extract_measure(pd.ex3_seq(), dk=2, tol=PRINTED)
        assert len(meas.atoms) == 2
        got = sorted_atoms(meas)
        want = sorted(pd.EX3_ATOMS, key=lambda a: (a[0].real, a[0].imag))
        for g, w in zip(got, want):
            assert max(abs(x - y) for x, y in zip(g, w)) < 5e-3
        np.testing.assert_allclose(meas.weights, [0.5, 0.5], atol=5e-3)
        assert rep.certification == "certified"

    def test_example5(self):
        meas, rep = extract_measure(pd.ex5_seq(3), dk=3)
        got = sorted_atoms(meas)
        want = sorted(pd.EX5_ATOMS, key=lambda a: (a[0].real, a[0].imag))
        for g, w in zip(got, want):
            assert abs(g[0] - w[0]) < 1e-8
        np.testing.assert_allclose(meas.weights, [0.5, 0.5], atol=1e-8)
        # flatness holds one step down but not at the constraint gap
        assert rep.flat_1 and not rep.flat_dk
        assert rep.certification == "rank_preserved_uncertified"

    def test_example6(self):
        meas, rep = extract_measure(pd.ex6_seq(), dk=1, tol=PRINTED)
        assert len(meas.atoms) == 3
        got = {tuple(np.round(np.real(a), 2)) for a in meas.atoms}
        assert got == {(1.0, 2.0), (2.0, 2.0), (2.0, 3.0)}
        for atom, w in zip(meas.atoms, meas.weights):
            key = tuple(np.round(np.real(atom), 2))
            assert abs(w - pd.EX6_WEIGHTS_BY_ATOM[key]) < 5e-3
        # four-decimal fixture: the weight sum matches y[0,0] to print accuracy
        assert abs(sum(meas.weights) - 1.0) < 1e-4
        assert rep.certification == "certified"
        assert rep.structure.hankel

    def test_example4_enforced_dirac(self):
        meas, rep = extract_measure(pd.ex4_enforced_seq(), dk=2, tol=PRINTED)
        assert len(meas.atoms) == 1
        assert abs(meas.atoms[0][0] - pd.EX4_ATOM[0]) < 5e-3
        assert abs(meas.atoms[0][1] - pd.EX4_ATOM[1]) < 5e-3
        assert abs(meas.weights[0] - 1.0) < 5e-3

    def test_example1_refuses(self):
        with pytest.raises(ShiftInconsistent):
            extract_measure(pd.ex1_seq(), dk=1)

    def test_example2_refuses(self):
        with pytest.raises(NotHyponormal) as err:
            extract_measure(pd.ex2_seq(), dk=1, tol=PRINTED)
        assert abs(err.value.report.hypo_min_eig - pd.EX2_OPERATOR_MIN_EIG) < 1e-2

    def test_example4_plain_refuses(self):
        with pytest.raises(NotHyponormal) as err:
            extract_measure(pd.ex4_plain_seq(), dk=1, tol=PRINTED)
        assert abs(err.value.report.hypo_min_eig - pd.EX4_PLAIN_OPERATOR_MIN_EIG) < 1e-2

    def test_not_flat(self):
        seq = pd.brute_moments_paired([(0.0,), (1.0,), (2.0,)], [1.0, 1.0, 1.0],
                                      n=1, d=1)
        with pytest.raises(NotFlat):
            extract_measure(seq, dk=1)

    def test_round_trip_small(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3):
            for r in (1, 2, 3):
                atoms = _separated_atoms(rng, n, r)
                weights = rng.uniform(0.2, 1.0, r)
                seq = pd.brute_moments_paired(atoms, weights, n=n, d=r)
                meas, rep = extract_measure(seq, d=r, dk=1, seed=3)
                _assert_measures_match(meas, atoms, weights, 1e-6)

    def test_atoms_below_the_weight_floor_are_dropped(self, monkeypatch):
        monkeypatch.setattr(extraction, "WEIGHT_FLOOR", 0.5)  # times y00 = 1
        seq = pd.brute_moments_paired([(0.5 + 0.5j,), (-0.5 + 0j,)], [0.3, 0.7], n=1, d=2)
        meas, rep = extract_measure(seq, dk=1)
        assert rep.atom_count == 1
        _assert_measures_match(meas, [(-0.5 + 0j,)], [0.7], 1e-9)

    def test_seed_invariance(self):
        rng = np.random.default_rng(23)
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


# Two (n, d, r) = (2, 3, 6) measures whose M_2 has a sixth eigenvalue just
# below rank_tol * ||M_2|| (1.578e-7 against 1e-7 * 15.23 in the first),
# while M_3 discards nothing above 1.8e-15. Ranked on its own, M_2 had rank 5
# against rank 6 of M_3, and extraction raised NotFlat. Each entry holds the
# atoms, the weights and the extraction seed.
ILL_CONDITIONED_M2 = [
    (
        [((0.7219175176966114 + 0.8277984383940025j), (-0.35858128724567473 + 0.6468709346604429j)),
         ((0.614010612067691 - 0.7677812409424155j), (0.6331542449814295 + 0.9065613107961196j)),
         ((-0.3629544190223889 + 0.8124030111365717j), (-0.1520018963413642 - 0.5105379105698629j)),
         ((-0.13017630678918876 + 0.9910080290181108j), (0.9341640088274209 - 0.6289633925399377j)),
         ((-0.55857028171224 + 0.3908319439120183j), (0.7971745185322172 - 0.1470610450512249j)),
         ((0.7577915802382171 + 0.229062906053476j), (1.0385591246129349 - 0.6853705346946745j))],
        [0.9048478111263398, 0.7493021970527951, 0.23015229094011627, 0.7616819285947602,
         1.2103377481436548, 1.4248923490933947],
        993145729,
    ),
    (
        [((-0.5572639749544989 - 0.8347084621580155j), (-0.38829834337306174 - 0.4996014644858543j)),
         ((-0.5755575352640067 - 0.7284214194876466j), (-0.06707484253464586 - 0.9281157792948147j)),
         ((0.7164239944489248 - 0.26203369453500847j), (-0.8706785177295296 - 0.6696095876258052j)),
         ((-0.3285139359225935 - 0.6039306454229963j), (-0.7449928686054748 - 0.9319359638378346j)),
         ((-0.32765835514291936 + 0.5999417239593932j), (0.19868874072065215 - 1.04140179883016j)),
         ((0.7809530519995541 - 0.8712340430735322j), (-0.5687954798099533 + 0.4749201272575972j))],
        [1.0913571435818321, 0.31686378897733447, 0.25896486424746695, 1.3222280598306746,
         0.7616135981037089, 1.141508491553173],
        228230654,
    ),
]


class TestIllConditionedLeadingMatrix:
    @pytest.mark.parametrize("atoms, weights, seed", ILL_CONDITIONED_M2)
    def test_recovered(self, atoms, weights, seed):
        seq = pd.brute_moments_paired(atoms, weights, n=2, d=3)
        meas, rep = extract_measure(seq, dk=1, mode=CONJUGATE, seed=seed)
        assert rep.ranks == [1, 3, 6, 6]
        _assert_measures_match(meas, atoms, weights, 1e-6)


class TestAtomicMeasureSorted:
    def test_round_off_in_a_coordinate_does_not_decide_the_order(self):
        # the real parts are equal up to round-off, so the imaginary parts
        # decide, in either input order
        a, b = (complex(-0.10000000000000021, 0.5),), (complex(-0.1, -0.5),)
        for atoms in ([a, b], [b, a]):
            meas = AtomicMeasure(atoms, [1.0, 2.0] if atoms[0] == a else [2.0, 1.0], CONJUGATE)
            got = meas.sorted()
            assert got.atoms == [b, a] and got.weights == [2.0, 1.0]


def _separated_atoms(rng, n, r, min_sep=0.35, box=1.2):
    while True:
        atoms = [tuple(box * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)))
                 for _ in range(r)]
        if r == 1 or min(
            max(abs(x - y) for x, y in zip(a, b))
            for i, a in enumerate(atoms) for b in atoms[i + 1:]
        ) > min_sep:
            return atoms


def _assert_measures_match(meas, atoms, weights, tol):
    assert len(meas.atoms) == len(atoms)
    want = sorted(zip(atoms, weights),
                  key=lambda aw: tuple((z.real, z.imag) for z in aw[0]))
    got = meas.sorted()
    for (atom, w), g_atom, g_w in zip(want, got.atoms, got.weights):
        assert max(abs(x - y) for x, y in zip(atom, g_atom)) < tol
        assert abs(complex(w) - complex(g_w)) < tol


class TestStructureFastPaths:
    def test_toeplitz_gives_unitary_shifts(self):
        meas, rep = extract_measure(pd.ex5_seq(3), dk=3)
        # recompute the shift to probe unitarity directly
        x = linalg.psd_root_factor(moment_matrix(pd.ex5_seq(3), 3).matrix)
        fam = compute_shifts(x, enumerate_indices(1, 3),
                             linalg.column_basis(x), CONJUGATE)
        t = fam.shifts[0]
        assert np.linalg.norm(t.conj().T @ t - np.eye(2)) <= 1e-8

    def test_hankel_gives_real_symmetric_shifts(self):
        # exact real atomic data (same atoms as the triangle example)
        seq = pd.brute_moments_paired(
            [(1.0, 2.0), (2.0, 2.0), (2.0, 3.0)], [0.5, 0.3, 0.2], n=2, d=2
        )
        x = linalg.psd_root_factor(moment_matrix(seq, 2).matrix)
        fam = compute_shifts(x, enumerate_indices(2, 2),
                             linalg.column_basis(x), CONJUGATE)
        for t in fam.shifts:
            assert np.linalg.norm(t - t.T) <= 1e-8 * max(1, np.linalg.norm(t))
            assert np.linalg.norm(np.imag(t)) <= 1e-8

    def test_printed_hankel_fixture_nearly_symmetric(self):
        seq = pd.ex6_seq()
        x = linalg.psd_root_factor(moment_matrix(seq, 2).matrix,
                                   tol=1e-3, rank_tol=1e-3)
        fam = compute_shifts(x, enumerate_indices(2, 2),
                             linalg.column_basis(x, 1e-3), CONJUGATE, tol=5e-3)
        for t in fam.shifts:
            assert np.linalg.norm(t - t.T) <= 1e-3 * max(1, np.linalg.norm(t))

    def test_transpose_mode_shifts_complex_symmetric(self):
        from momext.interp import sample_grid

        seq = sample_grid(pd.ex7_model(), 2)
        _, rep = extract_measure(seq, mode=TRANSPOSE)
        assert rep.shift_symmetry <= 1e-8


class TestVerifyMeasure:
    def test_example3_residual(self):
        meas, _ = extract_measure(pd.ex3_seq(), dk=2, tol=PRINTED)
        assert verify_measure(meas, pd.ex3_seq()) <= 5e-3

    def test_dirac_at_zero(self):
        seq = pd.brute_moments_paired([(0.0,)], [1.0], n=1, d=0)
        meas = AtomicMeasure([(0.0 + 0j,)], [1.0], CONJUGATE)
        assert verify_measure(meas, seq) == 0.0

    def test_perturbed_weight(self):
        seq = pd.brute_moments_paired([(0.5,), (-0.5,)], [1.0, 1.0], n=1, d=2)
        meas = AtomicMeasure([(0.5 + 0j,), (-0.5 + 0j,)], [1.1, 1.0], CONJUGATE)
        assert verify_measure(meas, seq) >= 0.1 * (1 - 1e-9)

    def test_matches_a_loop_over_keys_and_atoms(self):
        # reference: one moment at a time, summed over the atoms
        def reference(meas, seq):
            worst = 0.0
            for key, v in seq.values.items():
                a, b = key if seq.mode == "paired" else ((0,) * seq.n, key)
                acc = sum(w * np.prod(np.conj(z) ** np.array(a)) * np.prod(np.array(z) ** np.array(b))
                          for z, w in zip(meas.atoms, meas.weights))
                worst = max(worst, abs(acc - v))
            return worst

        rng = np.random.default_rng(11)
        for n, r, d in [(1, 3, 2), (2, 4, 3), (3, 2, 2), (2, 0, 1)]:
            atoms = [tuple(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) for _ in range(r)]
            weights = list(rng.uniform(0.2, 1.0, r))
            for seq, mode in [(pd.brute_moments_paired(atoms, weights, n=n, d=d), CONJUGATE),
                              (pd.brute_moments_hankel(atoms, weights, n=n, d=d), TRANSPOSE)]:
                meas = AtomicMeasure(atoms, [1.01 * w for w in weights], mode)
                got, want = verify_measure(meas, seq), reference(meas, seq)
                assert abs(got - want) <= 1e-14 * max(1.0, want)


class TestFeasibilityReport:
    def test_example5_roots_of_unity(self):
        from momext.hierarchy import parse_problem

        problem = parse_problem(_demo("torus.pop"))
        meas, _ = extract_measure(pd.ex5_seq(3), dk=3)
        rows = feasibility_report(meas, problem, tol=1e-6, seq=pd.ex5_seq(3), dk=3)
        assert all(not row.violations for row in rows)
        assert all(row.zero_atom_count == 2 for row in rows)

    def test_example6_triangle(self):
        from momext.hierarchy import parse_problem

        problem = parse_problem(_demo("triangle.pop"))
        meas, _ = extract_measure(pd.ex6_seq(), dk=1, tol=PRINTED)
        rows = feasibility_report(meas, problem, tol=1e-3)
        assert all(not row.violations for row in rows)

    def test_violation_flagged(self):
        from momext.hierarchy import parse_problem

        problem = parse_problem(_demo("triangle.pop"))
        meas = AtomicMeasure([(5.0 + 0j, 5.0 + 0j)], [1.0], CONJUGATE)
        rows = feasibility_report(meas, problem, tol=1e-6)
        assert any(row.violations for row in rows)
        bad = next(row for row in rows if row.violations)
        assert bad.violations[0][0] == 0 and bad.violations[0][1] < 0


class TestLemmas:
    def test_vandermonde_independence(self):
        # d distinct points give d independent truncated monomial vectors
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 5))
            pts = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                   for _ in range(d)]
            labels = enumerate_indices(n, d - 1)
            v = np.array([[np.prod(z ** np.asarray(a)) for a in labels]
                          for z in pts])
            assert np.linalg.matrix_rank(v, tol=1e-8) == d

    def test_range_of_weighted_outer_sums(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, n + 1))
            u = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
            while np.linalg.matrix_rank(u) < d:
                u = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
            c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            c[np.abs(c) < 0.2] += 0.5
            m_t = sum(c[i] * np.outer(u[:, i], u[:, i]) for i in range(d))
            m_h = sum(c[i] * np.outer(u[:, i], u[:, i].conj()) for i in range(d))
            for m in (m_t, m_h):
                assert np.linalg.matrix_rank(m, tol=1e-8) == d
                # range equals span{u_i}: projecting columns onto span changes nothing
                q, _ = np.linalg.qr(u)
                proj = q @ q.conj().T
                assert np.linalg.norm(proj @ m - m) <= 1e-8 * np.linalg.norm(m)


class TestMeasureIO:
    def test_round_trip(self, tmp_path):
        meas, _ = extract_measure(pd.ex3_seq(), dk=2, tol=PRINTED)
        path = str(tmp_path / "m.measure")
        write_measure(meas, path)
        back = read_measure(path)
        assert back.mode == meas.mode
        for a, b in zip(meas.atoms, back.atoms):
            assert max(abs(x - y) for x, y in zip(a, b)) == 0.0
        np.testing.assert_allclose(back.weights, meas.weights)

    def test_path_objects_read_and_write(self, tmp_path):
        meas, _ = extract_measure(pd.ex3_seq(), dk=2, tol=PRINTED)
        path = tmp_path / "m.measure"
        write_measure(meas, path)
        back = read_measure(path)
        assert back.atoms == read_measure(str(path)).atoms and back.mode == meas.mode
        np.testing.assert_array_equal(back.weights, read_measure(str(path)).weights)

    def test_empty_measure_round_trip(self, tmp_path):
        meas = AtomicMeasure([], [], CONJUGATE)
        path = str(tmp_path / "empty.measure")
        write_measure(meas, path)
        back = read_measure(path)
        assert (back.atoms, back.weights, back.mode) == ([], [], CONJUGATE)
        with pytest.raises(ParseError):
            read_measure("measure 1\nmode transpose\nn 0\natom w 1 0\n")

    def test_parse_errors(self):
        for text in (
            "mode conjugate_transpose\nn 1\natom 1 0 w 1 0\n",            # no header
            "measure 9\nmode conjugate_transpose\nn 1\natom 1 0 w 1 0\n",  # version
            "measure 1\nmode conjugate_transpose\nn 1\natom 1 w 1 0\n",    # coordinates
            "measure 1\nmode conjugate_transpose\nn 1\natom 1 0 w 1 0\nn 2\n",  # n after atoms
            "measure 1\nmode transpose\nmode transpose\nn 1\n",         # mode given twice
        ):
            with pytest.raises(ParseError):
                read_measure(text)


def _demo(name):
    import os

    return os.path.join(os.path.dirname(__file__), "..", "demo", name)
