import numpy as np
import pytest

from momext import linalg
from momext.errors import NoConvergence, NotHermitian, NotPSD, NotSymmetric

import paperdata as pd


class TestHermitianEig:
    def test_identity(self):
        vals, vecs = linalg.hermitian_eig(np.eye(2, dtype=complex))
        np.testing.assert_allclose(vals, [1.0, 1.0])
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-14)

    def test_rank_one_example_matrix(self):
        vals, _ = linalg.hermitian_eig(pd.EX1_M2)
        np.testing.assert_allclose(vals, [0.0, 0.0, 6.0], atol=1e-12)

    def test_swap_matrix(self):
        vals, _ = linalg.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)

    def test_matches_lapack_and_reconstructs(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 11, 24):
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = b @ b.conj().T + (b + b.conj().T)
            vals, vecs = linalg.hermitian_eig(a)
            np.testing.assert_allclose(vals, np.linalg.eigvalsh(a),
                                       atol=1e-10 * max(1, n))
            assert np.all(np.diff(vals) >= -1e-12)
            # unitary vectors, reconstruction within 10*tol*||A||
            assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)) <= 1e-12 * n
            resid = np.linalg.norm(vecs @ np.diag(vals) @ vecs.conj().T - a)
            assert resid <= 10 * 1e-9 * np.linalg.norm(a)

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitian):
            linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NoConvergence):
            linalg.hermitian_eig(np.eye(3))

    def test_hermitian_tolerance_is_relative(self):
        a = np.array([[1.0, 1.0 + 1e-12j], [1.0, 1.0]])
        vals, _ = linalg.hermitian_eig(a, tol=1e-9)
        np.testing.assert_allclose(vals, [0.0, 2.0], atol=1e-9)


class TestHermitianEigvals:
    """The values-only solver against `hermitian_eig`, whose values it replaces."""

    def test_matches_hermitian_eig(self):
        rng = np.random.default_rng(5)
        for n in (0, 1, 2, 5, 11, 24, 80):
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            # indefinite and Hermitian up to 1e-12: both read the Hermitian part
            a = b @ b.conj().T - 0.5 * n * np.eye(n) + 1e-12 * b
            vals = linalg.hermitian_eigvals(a, 1e-9)
            ref = linalg.hermitian_eig(a, 1e-9).values
            assert vals.shape == ref.shape == (n,) and vals.dtype == ref.dtype == float
            assert np.all(np.abs(vals - ref) <= 1e-13 * np.linalg.norm(a))
            assert np.all(np.diff(vals) >= 0.0)

    @pytest.mark.parametrize("a, error", [
        (np.array([[0.0, 1.0], [0.0, 0.0]]), NotHermitian),
        (np.array([[2.0]]) + 1j, NotHermitian),
        (np.ones((2, 3)), ValueError),
        (np.ones(3), ValueError),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), ValueError),
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), ValueError),
    ])
    def test_raises_what_hermitian_eig_raises(self, a, error):
        for solver in (linalg.hermitian_eig, linalg.hermitian_eigvals):
            with pytest.raises(error):
                solver(a, 1e-9)

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(NoConvergence):
            linalg.hermitian_eigvals(np.eye(3), 1e-9)


class TestHermitianPart:
    @pytest.mark.parametrize("a", [
        np.ones((2, 3)),
        np.ones(3),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[1.0, np.inf], [np.inf, 1.0]]),
    ])
    def test_an_infinite_tolerance_still_checks_shape_and_finiteness(self, a):
        with pytest.raises(ValueError):
            linalg._hermitian_part(a, np.inf)

    def test_an_infinite_tolerance_accepts_any_asymmetry(self):
        a = np.array([[1.0, 4.0], [0.0, 1.0j]])
        np.testing.assert_array_equal(linalg._hermitian_part(a, np.inf),
                                      [[1.0, 2.0], [2.0, 0.0]])
        with pytest.raises(NotHermitian):
            linalg._hermitian_part(a, 1e-9)


def _rowwise_phase_normalize(x, eps):
    """`_phase_normalize_rows` one row at a time, as the reference."""
    x = x.copy()
    for i in range(x.shape[0]):
        row = x[i]
        idx = np.nonzero(np.abs(row) > eps)[0]
        if idx.size == 0:
            continue
        lead = row[idx[0]]
        x[i] = row * (np.conj(lead) / abs(lead))
    return x


class TestPhaseNormalizeRows:
    def test_equals_the_row_loop_bit_for_bit(self):
        rng = np.random.default_rng(9)
        eps = 1e-13
        x = rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6))
        x[0] = 0.0                                            # zero row
        x[1] = np.array([-0.0, 0.0, -0.0, 0.0, -0.0, 0.0]) * (1 - 1j)  # signed zeros
        x[2] = 1e-14 * (rng.standard_normal(6) - 1j)          # every entry below eps
        x[3, :2] = 0.0                                        # lead in the third column
        x[3, 2] = -2.5                                        # negative real lead
        x[4, 0] = -1.5j                                       # imaginary lead
        x[5, :3] = 1e-14                                      # entries below eps before the lead
        x[6] = rng.standard_normal(6)                         # real row
        x[7, 0] = complex(-0.0, -2.0)                         # imaginary lead, real part -0
        x[8, 0] = complex(-3.0, -0.0)
        for rows in (x, np.asfortranarray(x), x[:, ::-1], x.real.astype(complex), x[:1], x[2:3]):
            got = linalg._phase_normalize_rows(rows, eps)
            want = _rowwise_phase_normalize(rows, eps)
            assert np.array_equal(got, want)
            for part in ("real", "imag"):
                assert np.array_equal(np.signbit(getattr(got, part)),
                                      np.signbit(getattr(want, part)))
        assert linalg._phase_normalize_rows(x, eps) is not x


class TestNumericRank:
    def test_example_spectrum(self):
        assert linalg.numeric_rank([0, 0, 6], 1e-8) == 1

    def test_all_zero(self):
        assert linalg.numeric_rank([0.0, 0.0, 0.0]) == 0
        assert linalg.numeric_rank([]) == 0

    def test_threshold_case(self):
        assert linalg.numeric_rank([1e-12, 0.5, 2.0], 1e-8) == 2


class TestPsdRootFactor:
    def test_example_rank_one(self):
        x = linalg.psd_root_factor(pd.EX1_M2)
        assert x.shape == (1, 3)
        # up to a unimodular scalar, fixed here by the leading-positive rule
        np.testing.assert_allclose(x[0], [1.0, 1.0, 2.0], atol=1e-12)

    def test_identity(self):
        x = linalg.psd_root_factor(np.eye(3, dtype=complex))
        assert x.shape == (3, 3)
        np.testing.assert_allclose(x.conj().T @ x, np.eye(3), atol=1e-12)

    def test_gram_oracle(self):
        # oracle: a = B^*B for random 4x3 B has rank 3 and X^*X must return it
        rng = np.random.default_rng(11)
        for _ in range(25):
            b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            a = b.conj().T @ b
            x = linalg.psd_root_factor(a)
            assert x.shape[0] == np.linalg.matrix_rank(b)
            assert np.linalg.norm(x.conj().T @ x - a) <= 1e-10 * np.linalg.norm(a)

    def test_echelon_leading_entries(self):
        x = linalg.psd_root_factor(pd.EX3_M3, tol=1e-3, rank_tol=1e-3)
        assert x.shape[0] == 2
        for i in range(x.shape[0]):
            lead = x[i][np.abs(x[i]) > 1e-8][0]
            assert abs(lead.imag) <= 1e-10 and lead.real > 0

    def test_precomputed_eig_still_checks_hermitian(self):
        a = np.array([[2.0, 1.0], [1.0 + 1e-3, 2.0]])
        sym = (a + a.conj().T) / 2
        eig = linalg.hermitian_eig(sym)
        np.testing.assert_allclose(linalg.psd_root_factor(sym, eig=eig),
                                   linalg.psd_root_factor(sym), atol=1e-14)
        with pytest.raises(NotHermitian):
            linalg.psd_root_factor(a, eig=eig)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            linalg.psd_root_factor(np.diag([1.0, -1.0]).astype(complex))

    def test_clamps_solver_noise(self):
        a = np.diag([1.0, -1e-12]).astype(complex)
        x = linalg.psd_root_factor(a, tol=1e-8)
        assert x.shape[0] == 1


class TestTakagi:
    def test_scalar_i(self):
        u, vals = linalg.takagi(np.array([[1j]]))
        np.testing.assert_allclose(vals, [1.0])
        assert abs(u[0, 0] * u[0, 0] - 1j) < 1e-14  # e^{i pi/4} up to sign

    def test_real_diagonal(self):
        u, vals = linalg.takagi(np.diag([2.0, 3.0]).astype(complex))
        np.testing.assert_allclose(vals, [3.0, 2.0])
        np.testing.assert_allclose(np.abs(u), [[0, 1], [1, 0]], atol=1e-12)

    def test_hankel_fixture_matches_singular_values(self):
        from momext.interp import sample_grid
        from momext.moment import hankel_matrix

        h = hankel_matrix(sample_grid(pd.ex7_model(), 2), 2).matrix
        u, vals = linalg.takagi(h)
        # oracle: singular values via the eigenvalues of H H^*
        sv = np.sqrt(np.clip(np.linalg.eigvalsh(h @ h.conj().T), 0, None))[::-1]
        np.testing.assert_allclose(vals, sv, atol=1e-8 * max(1, sv.max()))
        resid = np.linalg.norm(u @ np.diag(vals) @ u.T - h)
        assert resid <= 1e-8 * np.linalg.norm(h)

    def test_random_and_degenerate(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = int(rng.integers(1, 9))
            if trial % 3 == 0:
                q = np.linalg.qr(rng.standard_normal((n, n))
                                 + 1j * rng.standard_normal((n, n)))[0]
                d = np.sort(rng.integers(0, 3, n))[::-1].astype(float)
                s = q @ np.diag(d) @ q.T
            else:
                b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                s = (b + b.T) / 2
            u, vals = linalg.takagi(s)
            assert np.all(vals >= 0) and np.all(np.diff(vals) <= 1e-12)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10
            assert np.linalg.norm(u @ np.diag(vals) @ u.T - s) <= 1e-9 * max(
                1, np.linalg.norm(s)
            )

    def test_small_singular_values_keep_full_absolute_accuracy(self):
        # the eigenvalues of S S^* square the singular values, which loses
        # those below sqrt(eps) * ||S||; the SVD keeps them to eps * ||S||
        rng = np.random.default_rng(7)
        sv = np.array([3.0, 1.0, 1e-3, 1e-6, 1e-9, 1e-12])
        for _ in range(10):
            q = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
            u, vals = linalg.takagi(q @ np.diag(sv) @ q.T)
            assert np.abs(vals - sv).max() <= 1e-14 * sv.max()

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(NoConvergence):
            linalg.takagi(np.diag([2.0, 1.0]).astype(complex))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetric):
            linalg.takagi(np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex))


class TestColumnBasis:
    def test_example3_factor(self):
        x = linalg.psd_root_factor(pd.EX3_M3, tol=1e-3, rank_tol=1e-3)
        assert linalg.column_basis(x, 1e-3) == [0, 1]  # columns 1 and z1

    def test_example6_factor(self):
        from momext.moment import moment_matrix

        x = linalg.psd_root_factor(pd.ex6_seq().values and moment_matrix(pd.ex6_seq(), 2).matrix,
                                   tol=1e-3, rank_tol=1e-3)
        assert x.shape[0] == 3
        assert linalg.column_basis(x, 1e-3) == [0, 1, 2]  # 1, x1, x2

    def test_zero_matrix(self):
        assert linalg.column_basis(np.zeros((3, 5))) == []

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        x[:, 4] = 2.0 * x[:, 1] - x[:, 2]  # dependent column
        base = linalg.column_basis(x)
        scales = rng.uniform(0.01, 100.0, 7)
        assert linalg.column_basis(x * scales) == base
