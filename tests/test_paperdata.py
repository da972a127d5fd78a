"""Self-checks of the transcribed reference fixtures.

These pin the transcription itself: internal consistency of the printed
matrices, agreement between printed factors and printed data, and the few
reference spectra not exercised elsewhere.
"""

import numpy as np

from momext import linalg
from momext.moment import hyponormality_block, moment_matrix

import paperdata as pd


def test_fixture_matrices_hermitian():
    for m in (pd.EX1_M2, pd.EX2_M2, pd.EX3_M3, pd.EX4_M2_PLAIN, pd.EX4_M2_ENFORCED):
        assert np.linalg.norm(m - m.conj().T) <= 1e-12


def test_printed_factor_example2_matches_conjugate_data():
    # the printed factor in this example satisfies X^*X = conj(M), not M;
    # all of its printed spectra are conjugation-invariant, so conclusions
    # carry over, but the transcription must respect the flip
    gram = pd.EX2_X.conj().T @ pd.EX2_X
    assert np.abs(gram - pd.EX2_M2.conj()).max() <= 2e-3
    assert np.abs(gram - pd.EX2_M2).max() > 1.0


def test_printed_factor_example3_matches_data():
    gram = pd.EX3_X.conj().T @ pd.EX3_X
    assert np.abs(gram - pd.EX3_M3).max() <= 2e-3


def test_printed_factor_example7_matches_samples():
    from momext.interp import sample_grid
    from momext.moment import hankel_matrix

    h = hankel_matrix(sample_grid(pd.ex7_model(), 2), 2).matrix
    gram = pd.EX7_X.T @ pd.EX7_X
    assert np.abs(gram - h).max() <= 2e-3


def test_example4_plain_data_block_spectrum():
    blk = hyponormality_block(pd.ex4_plain_seq(), dk=1).matrix
    vals, _ = linalg.hermitian_eig((blk + blk.conj().T) / 2.0, tol=np.inf)
    assert abs(vals[0] - pd.EX4_PLAIN_DATA_MIN_EIG) <= 1e-2
    assert abs(vals[-1] - 8.1869) <= 1e-2


def test_example4_enforced_data_block_concentrates():
    # the enforced rank-one solution puts the whole data-block mass on one
    # eigenvalue (reference spectrum: eight zeros and 16.0)
    blk = hyponormality_block(pd.ex4_enforced_seq(), dk=1).matrix
    vals, _ = linalg.hermitian_eig((blk + blk.conj().T) / 2.0, tol=np.inf)
    assert abs(vals[-1] - 16.0) <= 1e-2
    assert np.abs(vals[:-1]).max() <= 1e-2


def test_example5_matrix_is_measure_exact():
    m = moment_matrix(pd.ex5_seq(3), 3).matrix
    v = np.array([[1.0, 1.0, 1.0, 1.0],
                  [1.0, pd.OMEGA, pd.OMEGA**2, pd.OMEGA**3]])
    gram = v.conj().T @ np.diag([0.5, 0.5]) @ v
    assert np.abs(m - gram).max() <= 1e-12


def test_example6_hankel_consistency():
    # the printed matrix must agree wherever index sums collide
    m = moment_matrix(pd.ex6_seq(), 2).matrix
    # (x1^2, x2) vs (x1, x1 x2): common value 4.9625
    assert abs(m[3, 2] - 4.9625) <= 1e-12
    assert abs(m[1, 4] - 4.9625) <= 1e-12
