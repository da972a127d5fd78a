
import numpy as np
import pytest

from momext import linalg
from momext.errors import MissingMoment, OrderTooSmall, ParseError
from momext.moment import (
    HermitianPoly,
    MomentMatrix,
    MomentSequence,
    MomentTable,
    classify_structure,
    enumerate_indices,
    hankel_matrix,
    hyponormality_block,
    index_add,
    localizing_matrix,
    moment_matrix,
    read_sequence,
    sequence_to_text,
    write_sequence,
)

import paperdata as pd


class TestEnumerateIndices:
    def test_univariate(self):
        assert enumerate_indices(1, 2) == [(0,), (1,), (2,)]

    def test_bivariate_matches_table_headers(self):
        # 1, z1, z2, z1^2, z1 z2, z2^2
        assert enumerate_indices(2, 2) == [
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)
        ]

    def test_count(self):
        assert len(enumerate_indices(3, 2)) == 10


class TestMomentMatrix:
    def test_example5_entry(self):
        m = moment_matrix(pd.ex5_seq(3), 3)
        assert m.matrix.shape == (4, 4)
        # row conj(z), column z^2
        assert abs(m.matrix[1, 2] - pd.EX5_M3_ENTRY_ZBAR_Z2) < 1e-4

    def test_dirac_at_one(self):
        seq = pd.brute_moments_paired([(1.0,)], [1.0], n=1, d=2)
        m = moment_matrix(seq, 2).matrix
        np.testing.assert_allclose(m, np.ones((3, 3)), atol=1e-14)

    def test_matches_gram_oracle(self):
        # oracle: V^* diag(w) V with V the monomial Vandermonde of the atoms
        rng = np.random.default_rng(8)
        atoms = [tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
                 for _ in range(3)]
        weights = rng.uniform(0.2, 1.0, 3)
        seq = pd.brute_moments_paired(atoms, weights, n=2, d=2)
        labels = enumerate_indices(2, 2)
        v = np.array([[np.prod(np.asarray(z) ** np.asarray(a)) for a in labels]
                      for z in atoms])
        gram = v.conj().T * 0
        gram = v.T.conj() @ np.diag(weights) @ v
        gram = (v.T * weights) @ v.conj()
        # direct double-check path: entry = sum w conj(z)^a z^b
        m = moment_matrix(seq, 2).matrix
        ref = np.array([[sum(w * np.prod(np.conj(np.asarray(z)) ** np.asarray(a))
                             * np.prod(np.asarray(z) ** np.asarray(b))
                             for z, w in zip(atoms, weights))
                         for b in labels] for a in labels])
        np.testing.assert_allclose(m, ref, atol=1e-12)

    def test_missing_moment(self):
        seq = MomentSequence(n=1, d=2, mode="paired", values={((0,), (0,)): 1.0})
        with pytest.raises(MissingMoment):
            moment_matrix(seq, 1)


class TestLocalizingMatrix:
    def test_constant_one_gives_moment_matrix(self):
        seq = pd.ex5_seq(3)
        one = HermitianPoly(1, {((0,), (0,)): 1.0})
        loc = localizing_matrix(seq, one, 2)
        np.testing.assert_allclose(loc.matrix, moment_matrix(seq, 2).matrix)

    def test_example1_ball_localizer_negative(self):
        # M_1[(R^2-|z|^2) y] for the rank-one fixture with R^2 = 4:
        # [[3, 2], [2, 0]], eigenvalues {-1, 4}; one is negative for every R
        seq = pd.ex1_seq()
        g = HermitianPoly(1, {((0,), (0,)): 4.0, ((1,), (1,)): -1.0})
        loc = localizing_matrix(seq, g, 2)
        np.testing.assert_allclose(loc.matrix.real, [[3.0, 2.0], [2.0, 0.0]], atol=1e-12)
        vals, _ = linalg.hermitian_eig(loc.matrix)
        np.testing.assert_allclose(vals, [-1.0, 4.0], atol=1e-12)

    def test_positive_on_atoms_is_psd(self):
        # Theorem direction: g(atom) > 0 for all atoms makes the localizer PSD
        rng = np.random.default_rng(4)
        atoms = [tuple(0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)))
                 for _ in range(3)]
        weights = rng.uniform(0.2, 1.0, 3)
        seq = pd.brute_moments_paired(atoms, weights, n=2, d=2)
        # g = 9 - |z1|^2 - |z2|^2 is positive on the unit-ball-ish atoms
        g = HermitianPoly(2, {((0, 0), (0, 0)): 9.0,
                              ((1, 0), (1, 0)): -1.0,
                              ((0, 1), (0, 1)): -1.0})
        loc = localizing_matrix(seq, g, 2)
        vals, _ = linalg.hermitian_eig(loc.matrix, tol=1e-8)
        assert vals[0] >= -1e-9 * max(1.0, vals[-1])

    def test_order_too_small(self):
        seq = pd.ex1_seq()
        g = HermitianPoly(1, {((3,), (0,)): 0.5, ((0,), (3,)): 0.5})
        with pytest.raises(OrderTooSmall):
            localizing_matrix(seq, g, 2)


class TestHankelMatrix:
    def test_example7_corner(self):
        from momext.interp import sample_grid

        h = hankel_matrix(sample_grid(pd.ex7_model(), 2), 2)
        assert abs(h.matrix[1, 1] - pd.EX7_H2_ENTRY_00 * 0 - h.matrix[0, 3]) < 1e-12
        assert abs(h.matrix[0, 0] - pd.EX7_H2_ENTRY_00) < 1e-4

    def test_constant_signal(self):
        seq = MomentSequence(n=1, d=1, mode="hankel",
                             values={(0,): 1.0, (1,): 1.0, (2,): 1.0})
        h = hankel_matrix(seq, 1).matrix
        np.testing.assert_allclose(h, np.ones((2, 2)))
        assert np.linalg.matrix_rank(h) == 1

    def test_vandermonde_gram_oracle(self):
        # oracle: H_d(y) = V^T diag(w) V with V the node Vandermonde
        rng = np.random.default_rng(9)
        nodes = [tuple(np.exp(rng.standard_normal(2) * 0.2
                              + 1j * rng.uniform(-2, 2, 2))) for _ in range(2)]
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        seq = pd.brute_moments_hankel(nodes, w, n=2, d=2)
        labels = enumerate_indices(2, 2)
        v = np.array([[np.prod(np.asarray(z) ** np.asarray(a)) for a in labels]
                      for z in nodes])
        np.testing.assert_allclose(hankel_matrix(seq, 2).matrix,
                                   v.T @ np.diag(w) @ v, atol=1e-12)
        assert np.linalg.norm(hankel_matrix(seq, 2).matrix
                              - hankel_matrix(seq, 2).matrix.T) == 0.0


def _sum_key(a, b):
    return index_add(a, b)


def _difference_key(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _first_of_key_reference(m, tol):
    """[hankel, toeplitz] by brute force: the first entry in row-major order
    with a key sets the value that every later entry with it must match."""
    flags = []
    for key in (_sum_key, _difference_key):
        first, ok = {}, True
        for i, ra in enumerate(m.row_labels):
            for j, cb in enumerate(m.col_labels):
                v = first.setdefault(key(ra, cb), m.matrix[i, j])
                ok = ok and abs(m.matrix[i, j] - v) <= tol
        flags.append(ok)
    return flags


def _keyed(rng, labels, key):
    """A matrix with one random value per key, so a code shared by two keys shows."""
    values = {}
    m = np.array([[values.setdefault(key(a, b), rng.uniform(-1, 1)) for b in labels]
                  for a in labels])
    return MomentMatrix(m, labels, labels, "moment")


class TestClassifyStructure:
    def test_example5_toeplitz(self):
        flags = classify_structure(moment_matrix(pd.ex5_seq(3), 3))
        assert flags.hermitian and flags.toeplitz and not flags.hankel

    def test_example6_hankel(self):
        flags = classify_structure(moment_matrix(pd.ex6_seq(), 2))
        assert flags.hermitian and flags.hankel and not flags.toeplitz

    def test_example2_neither(self):
        flags = classify_structure(moment_matrix(pd.ex2_seq(), 2), tol=1e-3)
        assert flags.hermitian and not flags.hankel and not flags.toeplitz

    def test_each_entry_is_compared_with_the_first_of_its_key(self):
        rng = np.random.default_rng(9)
        big = enumerate_indices(3, 6)
        bases = [moment_matrix(seq, seq.d) for seq in (pd.ex5_seq(3), pd.ex6_seq(), pd.ex2_seq())]
        bases += [_keyed(rng, big, _sum_key), _keyed(rng, big, _difference_key)]
        for base in bases:
            for scale in (0.0, 0.6e-3, 1.2e-3):
                m = MomentMatrix(base.matrix + scale * rng.uniform(-1, 1, base.matrix.shape),
                                 base.row_labels, base.col_labels, base.kind)
                flags = classify_structure(m, tol=1e-3)
                assert [flags.hankel, flags.toeplitz] == _first_of_key_reference(m, 1e-3)

    def test_codes_of_many_variables_do_not_overflow(self):
        # 40 variables: the sum keys alone take 3**40 > 2**63 mixed-radix codes
        rng = np.random.default_rng(10)
        labels = enumerate_indices(40, 1)
        for key, want in ((_sum_key, [True, False]), (_difference_key, [False, True])):
            m = _keyed(rng, labels, key)
            flags = classify_structure(m, tol=1e-3)
            assert [flags.hankel, flags.toeplitz] == _first_of_key_reference(m, 1e-3) == want

    def test_toeplitz_hermitian_diagonal_constant_real(self):
        m = moment_matrix(pd.ex5_seq(3), 3).matrix
        d = np.diag(m)
        assert np.allclose(d, d[0]) and np.allclose(d.imag, 0.0)


class TestHyponormalityBlock:
    def test_example3_spectrum(self):
        blk = hyponormality_block(pd.ex3_seq(), dk=2, i=1, j=2)
        assert blk.matrix.shape == (9, 9)
        vals, _ = linalg.hermitian_eig((blk.matrix + blk.matrix.conj().T) / 2,
                                       tol=np.inf)
        assert vals[0] > -5e-4
        np.testing.assert_allclose(vals[-2:], pd.EX3_DATA_SPECTRUM_TOP, atol=1e-3)

    def test_example2_spectrum(self):
        blk = hyponormality_block(pd.ex2_seq(), dk=1, i=1, j=2)
        vals, _ = linalg.hermitian_eig((blk.matrix + blk.matrix.conj().T) / 2,
                                       tol=np.inf)
        np.testing.assert_allclose(vals, pd.EX2_DATA_SPECTRUM, atol=1e-3)

    def test_univariate_dirac_rank_one_psd(self):
        c = 0.7 - 0.3j
        seq = pd.brute_moments_paired([(c,)], [1.3], n=1, d=2)
        blk = hyponormality_block(seq, dk=1, i=1, j=1)
        vals, _ = linalg.hermitian_eig(blk.matrix, tol=1e-8)
        assert vals[0] >= -1e-12
        assert linalg.numeric_rank(vals, 1e-10) == 1

    def test_measure_data_always_psd(self):
        rng = np.random.default_rng(12)
        for n in (2, 3):
            atoms = [tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n))
                     for _ in range(3)]
            weights = rng.uniform(0.1, 1.0, 3)
            seq = pd.brute_moments_paired(atoms, weights, n=n, d=2)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    blk = hyponormality_block(seq, 1, i, j).matrix
                    vals, _ = linalg.hermitian_eig((blk + blk.conj().T) / 2,
                                                   tol=1e-8)
                    assert vals[0] >= -1e-9 * max(1.0, abs(vals).max())

    def test_gap_too_large(self):
        with pytest.raises(OrderTooSmall):
            hyponormality_block(pd.ex1_seq(), dk=3, i=1, j=1)


def _unit(n, k):
    return tuple(int(i == k - 1) for i in range(n))


def _multi_term_poly(n):
    """g = 3 - sum |z_k|^2 + c conj(z_1) z_n + conj(c) conj(z_n) z_1 + |z_1|^4 / 4."""
    zero = (0,) * n
    e1, en = _unit(n, 1), _unit(n, n)
    terms = {(zero, zero): 3.0}
    for k in range(1, n + 1):
        terms[(_unit(n, k), _unit(n, k))] = -1.0
    c = 0.3 + 0.2j
    terms[(e1, en)] = terms.get((e1, en), 0.0) + c
    terms[(en, e1)] = terms.get((en, e1), 0.0) + np.conj(c)
    terms[(index_add(e1, e1), index_add(e1, e1))] = 0.25
    return HermitianPoly(n, terms)


def _random_sequence(rng, n, d, mode):
    atoms = [tuple(0.8 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
             for _ in range(3)]
    weights = rng.uniform(0.2, 1.0, 3)
    if mode == "paired":
        return pd.brute_moments_paired(atoms, weights, n=n, d=d)
    return pd.brute_moments_hankel(atoms, weights, n=n, d=d)


class TestGathersMatchBruteForce:
    """moment, localizing and hyponormality matrices against seq.get loops.

    Every order t <= d, each read both from the sequence and through one
    MomentTable of it.
    """

    @pytest.mark.parametrize("mode", ["paired", "hankel"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_matrix(self, n, mode):
        d = 3
        seq = _random_sequence(np.random.default_rng(10 + n), n, d, mode)
        table = MomentTable(seq)
        g = _multi_term_poly(n)
        for t in range(d + 1):
            labels = enumerate_indices(n, t)
            ref = np.array([[seq.get(a, b) for b in labels] for a in labels])
            for source in (seq, table):
                np.testing.assert_array_equal(moment_matrix(source, t).matrix, ref)
            if t < g.k:
                continue
            small = enumerate_indices(n, t - g.k)
            ref = np.zeros((len(small), len(small)), dtype=complex)
            for (gamma, delta), c in g.terms.items():
                for i, a in enumerate(small):
                    for j, b in enumerate(small):
                        ref[i, j] += c * seq.get(index_add(a, gamma), index_add(b, delta))
            for source in (seq, table):
                np.testing.assert_allclose(localizing_matrix(source, g, t).matrix, ref,
                                           rtol=0, atol=1e-13)

        pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        for dk in range(1, d + 1):  # blocks of every order d - dk < d
            sub = enumerate_indices(n, d - dk)
            for i, j in pairs:
                units = [_unit(n, i)] if i == j else [_unit(n, i), _unit(n, j)]
                shifts = [(0,) * n] + units
                ref = np.array([
                    [seq.get(index_add(a, gamma), index_add(b, delta))
                     for gamma in shifts for b in sub]
                    for delta in shifts for a in sub
                ])
                for source in (seq, table):
                    blk = hyponormality_block(source, dk, i, j)
                    np.testing.assert_array_equal(blk.matrix, ref)
                    assert blk.row_labels == sub * len(shifts)

    @pytest.mark.parametrize("mode", ["paired", "hankel"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_first_absent_key_in_row_major_order_is_raised(self, n, mode):
        d = 2
        rng = np.random.default_rng(20 + n)
        seq = _random_sequence(rng, n, d, mode)
        keys = sorted(seq.values)
        for k in rng.choice(len(keys), 3, replace=False):
            del seq.values[keys[k]]
        labels = enumerate_indices(n, d)
        wanted = [(a, b) if mode == "paired" else index_add(a, b)
                  for a in labels for b in labels]
        first = next(key for key in wanted if key not in seq.values)
        for source in (seq, MomentTable(seq)):
            with pytest.raises(MissingMoment) as exc:
                moment_matrix(source, d)
            assert exc.value.key == first

    def test_a_table_serves_no_order_above_its_own(self):
        seq = _random_sequence(np.random.default_rng(3), 2, 3, "paired")
        with pytest.raises(ValueError):
            moment_matrix(MomentTable(seq, 2), 3)

    def test_builders_read_the_current_values(self):
        # no table outlives its call: a changed sequence is read anew
        seq = _random_sequence(np.random.default_rng(4), 2, 2, "paired")
        before = moment_matrix(seq, 2).matrix
        key = ((1, 0), (0, 1))
        seq.values[key] += 0.5
        after = moment_matrix(seq, 2).matrix
        p, q = enumerate_indices(2, 2).index(key[0]), enumerate_indices(2, 2).index(key[1])
        assert after[p, q] == before[p, q] + 0.5
        after[p, q] = before[p, q]
        np.testing.assert_array_equal(after, before)


class TestSequenceIO:
    def test_round_trip_bit_faithful(self):
        seq = pd.ex3_seq()
        text = sequence_to_text(seq)
        back = read_sequence(text)
        assert back.n == seq.n and back.d == seq.d and back.mode == seq.mode
        assert set(back.values) == set(seq.values)
        for k, v in seq.values.items():
            assert complex(back.values[k]) == complex(v)
        # writer is deterministic
        assert sequence_to_text(back) == text

    def test_hankel_round_trip(self):
        from momext.interp import sample_grid

        seq = sample_grid(pd.ex7_model(), 2)
        back = read_sequence(sequence_to_text(seq))
        for k, v in seq.values.items():
            assert complex(back.values[k]) == complex(v)

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "seq.momseq")
        write_sequence(pd.ex1_seq(), path)
        back = read_sequence(path)
        assert complex(back.values[((2,), (2,))]) == 4.0

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            read_sequence("mode paired\nn 1\nd 1\ny 0 0 1 0\n")  # missing header
        with pytest.raises(ParseError):
            read_sequence("momseq 1\nmode paired\nn 1\nd 1\ny 0 0 xx 0\n")
        with pytest.raises(ParseError):
            read_sequence("momseq 2\nmode paired\nn 1\nd 0\n")

    def test_parse_rejects_degenerate_headers_and_values(self):
        for text in (
            "momseq 1\nmode\nn 1\nd 0\n",                      # truncated field
            "momseq 1\nmode sideways\nn 1\nd 0\n",             # unknown mode
            "momseq 1\nmode paired\nn 0\nd 0\n",               # n < 1
            "momseq 1\nmode paired\nn 1\nd 0\ny 0 0 nan 0\n",  # non-finite
            "momseq 1\nmode paired\nn 1\nd 0\ny 0 0 1 inf\n",
            "momseq 1\nmode paired\nn 1\nd -1\n",             # d < 0
            "momseq 1\nmode paired\nn 1\nd 0\ny 0 0 1 0\nn 2\n",  # n after the entries
            "momseq 1\nmode hankel\nn 1\nn 2\nd 0\n",        # n given twice
            "mode paired\nmomseq 1\nn 1\nd 0\n",              # header line not first
            "momseq 1\nmode paired\nd 0\ny 0 0 1 0\n",        # no n
            "momseq 1\nmode paired\nn 1\nd 1\ny 2 0 1 0\n",    # |alpha| > d
            "momseq 1\nmode hankel\nn 2\nd 1\ny 2,1 1 0\n",    # |alpha| > 2d
        ):
            with pytest.raises(ParseError):
                read_sequence(text)

    def test_comments_start_anywhere_on_a_line(self):
        seq = read_sequence("# a hankel sequence\nmomseq 1  # version 1\nmode hankel\n"
                            "n 1 # one variable\nd 0\n\ny 0 2 0.5 #y0\n# end\n")
        assert (seq.n, seq.d, seq.mode) == (1, 0, "hankel")
        assert seq.values == {(0,): 2 + 0.5j}

    def test_hermitian_check(self):
        assert pd.ex3_seq().is_hermitian(1e-9)
        bad = MomentSequence(n=1, d=0, mode="paired",
                             values={((0,), (0,)): 1.0 + 0.5j})
        assert not bad.is_hermitian(1e-9)
