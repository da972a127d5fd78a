
import numpy as np
import pytest

from momext import linalg
from momext.errors import MissingMoment, NotSymmetric, OrderTooSmall, ParseError
from momext.interp import sample_grid
from momext.moment import (
    HermitianPoly,
    MomentMatrix,
    MomentSequence,
    classify_structure,
    enumerate_indices,
    hankel_matrix,
    hyponormality_block,
    hyponormality_grid,
    index_add,
    layout,
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

    def test_layout_exponents_are_one_read_only_table(self):
        for n, d in ((1, 3), (2, 2), (3, 4)):
            lay = layout(n, d)
            assert lay.exponents is lay.exponents
            np.testing.assert_array_equal(lay.exponents, np.array(lay.labels))
            assert lay.exponents.shape == (len(lay.labels), n) and lay.exponents.dtype.kind == "i"
            with pytest.raises(ValueError):
                lay.exponents[0, 0] = 1


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
    return MomentMatrix(m, labels, labels)


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
                                 base.row_labels, base.col_labels)
                flags = classify_structure(m, tol=1e-3)
                assert [flags.hankel, flags.toeplitz] == _first_of_key_reference(m, 1e-3)

    def test_entries_just_within_and_just_beyond_tol(self):
        # one entry of a key shared by several entries moves by tol * (1 -+ 1e-6),
        # in a complex direction: the layout's tables and the brute-force rule
        # agree on both sides of tol
        rng = np.random.default_rng(11)
        labels, tol = enumerate_indices(2, 3), 1e-3
        for which, key in enumerate((_sum_key, _difference_key)):
            base = _keyed(rng, labels, key)
            keys = [key(a, b) for a in labels for b in labels]
            shared = [k for k, value in enumerate(keys) if keys.count(value) > 1]
            for flat in rng.choice(shared, size=4, replace=False):
                for factor, agrees in ((1 - 1e-6, True), (1 + 1e-6, False)):
                    m = base.matrix.astype(complex)
                    m.flat[flat] += factor * tol * np.exp(2j * np.pi * rng.uniform())
                    moved = MomentMatrix(m, labels, labels)
                    flags = classify_structure(moved, tol)
                    reference = _first_of_key_reference(moved, tol)
                    assert [flags.hankel, flags.toeplitz] == reference
                    assert reference[which] == agrees

    def test_rejects_labels_of_no_layout(self):
        labels = enumerate_indices(2, 2)
        m = np.eye(len(labels))
        swapped = labels[:1] + labels[2:3] + labels[1:2] + labels[3:]
        for rows, cols in ((labels[::-1], labels[::-1]), (labels, swapped), (swapped, swapped)):
            with pytest.raises(ValueError):
                classify_structure(MomentMatrix(m, rows, cols))

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
        blk = hyponormality_block(pd.ex3_seq(), dk=2)
        assert blk.matrix.shape == (9, 9)
        vals, _ = linalg.hermitian_eig((blk.matrix + blk.matrix.conj().T) / 2,
                                       tol=np.inf)
        assert vals[0] > -5e-4
        np.testing.assert_allclose(vals[-2:], pd.EX3_DATA_SPECTRUM_TOP, atol=1e-3)

    def test_example2_spectrum(self):
        blk = hyponormality_block(pd.ex2_seq(), dk=1)
        vals, _ = linalg.hermitian_eig((blk.matrix + blk.matrix.conj().T) / 2,
                                       tol=np.inf)
        np.testing.assert_allclose(vals, pd.EX2_DATA_SPECTRUM, atol=1e-3)

    def test_univariate_dirac_rank_one_psd(self):
        c = 0.7 - 0.3j
        seq = pd.brute_moments_paired([(c,)], [1.3], n=1, d=2)
        blk = hyponormality_block(seq, dk=1)
        assert blk.matrix.shape == (4, 4)  # the 2x2 univariate grid of M_1-sized cells
        vals, _ = linalg.hermitian_eig(blk.matrix, tol=1e-8)
        assert vals[0] >= -1e-12
        assert linalg.numeric_rank(vals, 1e-10) == 1

    def test_measure_data_always_psd(self):
        # the one joint block of all n variables: (n+1) x (n+1) cells of
        # M_{d-dk} size, at every gap
        rng = np.random.default_rng(12)
        draws = [(2, 3, 2), (3, 3, 2)] + [(3, r, 3) for r in (1, 2, 3, 4) for _ in range(5)]
        for n, r, d in draws:
            atoms = [tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n))
                     for _ in range(r)]
            weights = rng.uniform(0.1, 1.0, r)
            seq = pd.brute_moments_paired(atoms, weights, n=n, d=d)
            for dk in range(1, d):
                blk = hyponormality_block(seq, dk).matrix
                assert blk.shape == ((n + 1) * len(enumerate_indices(n, d - dk)),) * 2
                vals, _ = linalg.hermitian_eig((blk + blk.conj().T) / 2, tol=1e-8)
                assert vals[0] >= -1e-9 * max(1.0, abs(vals).max())

    def test_each_pair_block_is_a_principal_submatrix(self):
        # the 3x3 grid over 0, e_i, e_j of a pair, gathered by brute force,
        # is the joint block restricted to its cells 0, i, j
        n, d, dk = 3, 3, 1
        seq = _random_sequence(np.random.default_rng(31), n, d, "paired")
        sub = enumerate_indices(n, d - dk)
        m = len(sub)
        joint = hyponormality_block(seq, dk).matrix
        for i, j in ((1, 2), (1, 3), (2, 3)):
            shifts = [(0,) * n, _unit(n, i), _unit(n, j)]
            pair = np.array([[seq.get(index_add(a, gamma), index_add(b, delta))
                              for gamma in shifts for b in sub]
                             for delta in shifts for a in sub])
            cells = np.concatenate([np.arange(c * m, (c + 1) * m) for c in (0, i, j)])
            np.testing.assert_array_equal(joint[np.ix_(cells, cells)], pair)

    def test_gap_too_large(self):
        with pytest.raises(OrderTooSmall):
            hyponormality_block(pd.ex1_seq(), dk=3)


def _cellwise_block(seq, dk):
    """The hyponormality block gathered one cell at a time and joined by np.block."""
    h = seq.d - dk
    lay = layout(seq.n, seq.d)
    return np.block([[seq.read(lay.shift(gamma, h)[:, None], lay.shift(delta, h), seq.d)
                      for gamma, delta in row] for row in hyponormality_grid(seq.n)])


class TestOneGatherBlock:
    """`hyponormality_block`'s single gather against the cell-by-cell one."""

    @pytest.mark.parametrize("mode", ["paired", "hankel"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_cellwise_block(self, n, mode):
        d = 3
        seq = _random_sequence(np.random.default_rng(40 + n), n, d, mode)
        for dk in range(1, d + 1):
            np.testing.assert_array_equal(hyponormality_block(seq, dk).matrix,
                                          _cellwise_block(seq, dk))

    @pytest.mark.parametrize("mode", ["paired", "hankel"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_removed_moment_raises_the_cellwise_key(self, n, mode):
        # at gap 1 the block reads every key, so each removal raises; with two
        # keys removed, both gathers name the first one in cell order
        d = 3
        rng = np.random.default_rng(50 + n)
        seq = _random_sequence(rng, n, d, mode)
        keys = list(seq.values)
        for count in (1, 1, 2, 2, 2, 2):
            drop = {keys[k] for k in rng.choice(len(keys), size=count, replace=False)}
            holed = MomentSequence(n=n, d=d, mode=mode, values={
                key: v for key, v in seq.values.items() if key not in drop})
            with pytest.raises(MissingMoment) as want:
                _cellwise_block(holed, 1)
            with pytest.raises(MissingMoment) as got:
                hyponormality_block(holed, 1)
            assert want.value.key in drop
            assert got.value.key == want.value.key


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
    """moment, localizing and hyponormality matrices against seq.get loops,
    for every order t <= d."""

    @pytest.mark.parametrize("mode", ["paired", "hankel"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_matrix(self, n, mode):
        d = 3
        seq = _random_sequence(np.random.default_rng(10 + n), n, d, mode)
        g = _multi_term_poly(n)
        for t in range(d + 1):
            labels = enumerate_indices(n, t)
            ref = np.array([[seq.get(a, b) for b in labels] for a in labels])
            np.testing.assert_array_equal(moment_matrix(seq, t).matrix, ref)
            if t < g.k:
                continue
            small = enumerate_indices(n, t - g.k)
            ref = np.zeros((len(small), len(small)), dtype=complex)
            for (gamma, delta), c in g.terms.items():
                for i, a in enumerate(small):
                    for j, b in enumerate(small):
                        ref[i, j] += c * seq.get(index_add(a, gamma), index_add(b, delta))
            np.testing.assert_allclose(localizing_matrix(seq, g, t).matrix, ref,
                                       rtol=0, atol=1e-13)

        shifts = [(0,) * n] + [_unit(n, k) for k in range(1, n + 1)]
        for dk in range(1, d + 1):  # blocks of every order d - dk < d
            sub = enumerate_indices(n, d - dk)
            ref = np.array([
                [seq.get(index_add(a, gamma), index_add(b, delta))
                 for gamma in shifts for b in sub]
                for delta in shifts for a in sub
            ])
            blk = hyponormality_block(seq, dk)
            np.testing.assert_array_equal(blk.matrix, ref)
            assert blk.row_labels == sub * len(shifts)

    @pytest.mark.parametrize("mode", ["paired", "hankel"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_first_absent_key_in_row_major_order_is_raised(self, n, mode):
        d = 2
        rng = np.random.default_rng(20 + n)
        full = _random_sequence(rng, n, d, mode)
        keys = sorted(full.values)
        dropped = {keys[k] for k in rng.choice(len(keys), 3, replace=False)}
        seq = MomentSequence(n=n, d=d, mode=mode, values={
            key: v for key, v in full.values.items() if key not in dropped})
        labels = enumerate_indices(n, d)
        wanted = [(a, b) if mode == "paired" else index_add(a, b)
                  for a in labels for b in labels]
        first = next(key for key in wanted if key not in seq.values)
        with pytest.raises(MissingMoment) as exc:
            moment_matrix(seq, d)
        assert exc.value.key == first

    @pytest.mark.parametrize("mode", ["paired", "hankel"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_first_key_beyond_the_order_is_raised(self, n, mode):
        d = 2
        seq = _random_sequence(np.random.default_rng(30 + n), n, d, mode)
        labels = enumerate_indices(n, d + 1)
        wanted = [(a, b) if mode == "paired" else index_add(a, b)
                  for a in labels for b in labels]
        first = next(key for key in wanted if key not in seq.values)
        with pytest.raises(MissingMoment) as exc:
            moment_matrix(seq, d + 1)
        assert exc.value.key == first


class TestReadOnlyStore:
    @pytest.mark.parametrize("mode", ["paired", "hankel"])
    def test_values_cannot_be_assigned(self, mode):
        seq = _random_sequence(np.random.default_rng(5), 2, 2, mode)
        key = next(iter(seq.values))
        with pytest.raises(TypeError):
            seq.values[key] = 0.0
        with pytest.raises(TypeError):
            del seq.values[key]

    def test_values_are_copied_from_the_given_dict(self):
        values = {((0,), (0,)): 1.0}
        seq = MomentSequence(n=1, d=1, mode="paired", values=values)
        values[((0,), (0,))] = 2.0
        assert seq.values[((0,), (0,))] == 1.0
        assert moment_matrix(seq, 0).matrix[0, 0] == 1.0

    @pytest.mark.parametrize("mode, key", [
        ("paired", ((2,), (0,))),
        ("paired", ((0,), (2,))),
        ("hankel", (3,)),
    ])
    def test_a_key_beyond_the_order_raises(self, mode, key):
        with pytest.raises(ValueError):
            MomentSequence(n=1, d=1, mode=mode, values={key: 1.0})


def _recording(monkeypatch, name):
    """Wrap linalg.<name>; returns the list of (size, tol) of its calls."""
    calls = []
    original = getattr(linalg, name)

    def wrapper(a, tol):
        calls.append((len(a), tol))
        return original(a, tol)

    monkeypatch.setattr(linalg, name, wrapper)
    return calls


class TestKeptDecompositions:
    def test_eig_decomposes_each_order_once(self, monkeypatch):
        seq = pd.brute_moments_paired(pd.EX3_ATOMS, [0.3, 0.7], n=2, d=3)
        expected = {t: linalg.hermitian_eig(moment_matrix(seq, t).matrix) for t in (1, 3)}
        calls = _recording(monkeypatch, "hermitian_eig")
        for t in (3, 1, 3, 1):
            values, vectors = seq.eig(t)
            np.testing.assert_array_equal(values, expected[t].values)
            np.testing.assert_array_equal(vectors, expected[t].vectors)
        assert calls == [(10, np.inf), (3, np.inf)]
        assert seq.eig(3) is seq.eig(3)
        with pytest.raises(ValueError):
            seq.eig(3).values[0] = 0.0  # shared between callers, so read-only

    def test_eigvals_are_kept_per_order_apart_from_eig(self, monkeypatch):
        seq = pd.brute_moments_paired(pd.EX3_ATOMS, [0.3, 0.7], n=2, d=3)
        expected = {t: linalg.hermitian_eigvals(moment_matrix(seq, t).matrix, np.inf)
                    for t in (1, 2)}
        values_only = _recording(monkeypatch, "hermitian_eigvals")
        full = _recording(monkeypatch, "hermitian_eig")
        seq.eig(2)
        for t in (2, 1, 2, 1):
            np.testing.assert_array_equal(seq.eigvals(t), expected[t])
        assert values_only == [(6, np.inf), (3, np.inf)] and full == [(6, np.inf)]
        seq.eig(1)  # the kept values do not serve a full decomposition either
        assert full == [(6, np.inf), (3, np.inf)]
        assert seq.eigvals(1) is seq.eigvals(1)
        with pytest.raises(ValueError):
            seq.eigvals(1)[0] = 0.0  # shared between callers, so read-only

    def test_takagi_is_served_by_a_factorization_checked_as_strictly(self, monkeypatch):
        seq = sample_grid(pd.ex7_model(), 2)
        expected = linalg.takagi(hankel_matrix(seq, 2).matrix)
        calls = _recording(monkeypatch, "takagi")
        first = seq.takagi(2, 1e-8)
        assert seq.takagi(2) is first and seq.takagi(2, 1e-6) is first
        np.testing.assert_array_equal(first.values, expected.values)
        np.testing.assert_array_equal(first.u, expected.u)
        assert calls == [(6, 1e-8)]
        # an unchecked factorization does not serve a checked request
        unchecked = seq.takagi(1)
        assert seq.takagi(1, 1e-8) is not unchecked
        assert seq.takagi(1, 1e-8) is seq.takagi(1)
        assert calls == [(6, 1e-8), (3, np.inf), (3, 1e-8)]

    def test_a_failed_symmetry_check_keeps_nothing(self, monkeypatch):
        # paired data with a complex atom: M_1 is Hermitian, not symmetric
        seq = pd.brute_moments_paired([(0.5 + 0.5j,)], [1.0], n=1, d=2)
        calls = _recording(monkeypatch, "takagi")
        for _ in range(2):
            with pytest.raises(NotSymmetric):
                seq.takagi(1, 1e-8)
        assert len(calls) == 2
        seq.takagi(1)  # unchecked: a new factorization, which then is kept
        with pytest.raises(NotSymmetric):
            seq.takagi(1, 1e-8)
        assert calls == [(2, 1e-8), (2, 1e-8), (2, np.inf), (2, 1e-8)]


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

    def test_path_objects_read_and_write(self, tmp_path):
        path = tmp_path / "seq.momseq"
        write_sequence(pd.ex1_seq(), path)
        back = read_sequence(path)
        assert back.values == read_sequence(str(path)).values
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
