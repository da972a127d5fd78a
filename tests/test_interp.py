from dataclasses import replace

import numpy as np
import pytest

from momext.errors import (
    AtomAtZero,
    OrderTooSmall,
    ParseError,
    RankNotStabilized,
    TooManyVariables,
)
from momext.interp import (
    ExpSumModel,
    ExpTerm,
    emit_signal,
    eval_expsum,
    interpolate,
    read_model,
    sample_grid,
    write_model,
)
from momext.moment import hankel_matrix

import paperdata as pd


def random_separated_model(rng, n, r, node_sep=5e-2):
    """Model with distinct nodes and canonical imaginary parts."""
    while True:
        terms = [
            ExpTerm(
                complex(rng.uniform(0.3, 1.2), rng.uniform(-1, 1)),
                tuple(complex(rng.uniform(-0.4, 0.4), rng.uniform(-2.8, 2.8))
                      for _ in range(n)),
            )
            for _ in range(r)
        ]
        model = ExpSumModel(n, terms).canonical()
        if len(model.terms) != r:
            continue
        nodes = [tuple(np.exp(np.asarray(t.frequencies)) ) for t in model.terms]
        if r == 1 or min(
            max(abs(a - b) for a, b in zip(x, y))
            for i, x in enumerate(nodes) for y in nodes[i + 1:]
        ) > node_sep:
            return model


def assert_models_match(a, b, tol):
    assert a.n == b.n and len(a.terms) == len(b.terms)
    for ta, tb in zip(a.canonical().terms, b.canonical().terms):
        assert abs(ta.weight - tb.weight) < tol
        assert max(abs(x - y) for x, y in zip(ta.frequencies, tb.frequencies)) < tol


class TestEval:
    def test_constant_term(self):
        model = ExpSumModel(2, [ExpTerm(1.0, (0.0, 0.0))])
        for z in [(0, 0), (1.5, -2.0), (1j, 3 + 2j)]:
            assert abs(eval_expsum(model, z) - 1.0) < 1e-15

    def test_example7_origin(self):
        assert abs(eval_expsum(pd.ex7_model(), (0, 0)) - pd.EX7_H2_ENTRY_00) < 1e-4

    def test_linearity(self):
        rng = np.random.default_rng(0)
        m1 = random_separated_model(rng, 2, 2)
        m2 = random_separated_model(rng, 2, 1)
        union = ExpSumModel(2, m1.terms + m2.terms)
        z = (0.3 - 0.1j, 1.2 + 0.4j)
        assert abs(eval_expsum(union, z)
                   - eval_expsum(m1, z) - eval_expsum(m2, z)) < 1e-12


class TestSampleGrid:
    def test_all_ones(self):
        model = ExpSumModel(1, [ExpTerm(1.0, (0.0,))])
        grid = sample_grid(model, 3)
        assert all(abs(v - 1.0) < 1e-15 for v in grid.values.values())

    def test_example7_entry(self):
        grid = sample_grid(pd.ex7_model(), 2)
        assert len(grid.values) == 15
        assert abs(grid.values[(0, 0)] - pd.EX7_H2_ENTRY_00) < 1e-4

    def test_matches_dirac_moment_oracle(self):
        rng = np.random.default_rng(1)
        model = random_separated_model(rng, 2, 3)
        nodes = [tuple(np.exp(np.asarray(t.frequencies))) for t in model.terms]
        weights = [t.weight for t in model.terms]
        oracle = pd.brute_moments_hankel(nodes, weights, n=2, d=2)
        grid = sample_grid(model, 2)
        for key in oracle.values:
            assert abs(grid.values[key] - oracle.values[key]) < 1e-10


class TestInterpolate:
    def test_example7_recovery(self):
        grid = sample_grid(pd.ex7_model(), 2)
        model, report = interpolate(grid, d_max=2)
        assert report.d == 2
        assert_models_match(model, pd.ex7_model().canonical(), 1e-8)
        assert report.reconstruction_residual <= 1e-8

    def test_example7_factors_each_hankel_matrix_once(self, monkeypatch):
        # the rank search factors H_0, H_1, H_2; the extraction reuses them
        from momext import linalg

        sizes = []
        original = linalg.takagi

        def counting(a, *args, **kwargs):
            sizes.append(len(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "takagi", counting)
        model, report = interpolate(sample_grid(pd.ex7_model(), 2), d_max=2)
        assert report.ranks == [1, 2, 2]
        assert_models_match(model, pd.ex7_model().canonical(), 1e-8)
        assert sizes == [1, 3, 6]

    def test_example7_reads_no_eigenvalues_and_samples_nothing(self, monkeypatch):
        # the Takagi factorizations give every rank and the factor, and the
        # residual is the extraction's, over the samples given
        from momext import interp, linalg

        grid = sample_grid(pd.ex7_model(), 2)
        calls = []

        def count(module, name):
            original = getattr(module, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        count(linalg, "hermitian_eig")
        count(interp, "sample_grid")
        model, report = interpolate(grid, d_max=2)
        assert_models_match(model, pd.ex7_model().canonical(), 1e-8)
        assert calls == [] and report.min_moment_eig is None

    def test_order_zero_raises_order_too_small(self):
        grid = sample_grid(pd.ex7_model(), 1)
        with pytest.raises(OrderTooSmall):
            interpolate(grid, d_max=0)

    def test_samples_beyond_the_stabilized_order_change_nothing(self):
        # the extraction reads the samples themselves, not a copy cut to order 2;
        # only the residual, which also covers the order-3 samples, may differ
        model, report = interpolate(sample_grid(pd.ex7_model(), 3), d_max=3)
        expected_model, expected_report = interpolate(sample_grid(pd.ex7_model(), 2), d_max=2)
        assert report.ranks == [1, 2, 2]
        assert model == expected_model
        assert replace(report, reconstruction_residual=None) == replace(
            expected_report, reconstruction_residual=None)
        assert report.reconstruction_residual <= 1e-8

    def test_single_term_order_one(self):
        truth = ExpSumModel(2, [ExpTerm(1.0, (0.1, -0.2))]).canonical()
        model, _ = interpolate(sample_grid(truth, 1), d_max=1)
        assert_models_match(model, truth, 1e-10)

    def test_univariate_three_terms(self):
        rng = np.random.default_rng(2)
        truth = random_separated_model(rng, 1, 3)
        model, _ = interpolate(sample_grid(truth, 3), d_max=3)
        assert_models_match(model, truth, 1e-6)

    def test_rank_not_stabilized(self):
        rng = np.random.default_rng(3)
        truth = random_separated_model(rng, 1, 3)
        with pytest.raises(RankNotStabilized):
            interpolate(sample_grid(truth, 2), d_max=2)

    def test_frequencies_canonical(self):
        # imaginary part beyond pi folds back into (-pi, pi]
        truth = ExpSumModel(1, [ExpTerm(1.0, (0.1 + 5.0j,))])
        model, _ = interpolate(sample_grid(truth, 1), d_max=1)
        im = model.terms[0].frequencies[0].imag
        assert -np.pi < im <= np.pi
        assert abs(im - (5.0 - 2 * np.pi)) < 1e-10


class TestPronyUnivariate:
    def test_constant_signal(self):
        model = pd.prony_univariate(np.full(3, 2.5, dtype=complex))
        assert len(model.terms) == 1
        assert abs(model.terms[0].weight - 2.5) < 1e-10
        assert abs(model.terms[0].frequencies[0]) < 1e-10

    def test_two_term_fixture(self):
        truth = ExpSumModel(1, [ExpTerm(1.0, (0.3j,)), ExpTerm(2j, (-0.5,))]).canonical()
        y = np.array([eval_expsum(truth, (a,)) for a in range(5)])
        model = pd.prony_univariate(y)
        assert_models_match(model, truth, 1e-8)

    def test_agrees_with_takagi_route(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            r = int(rng.integers(1, 5))
            truth = random_separated_model(rng, 1, r)
            grid = sample_grid(truth, r)
            via_takagi, _ = interpolate(grid, d_max=r)
            via_prony = pd.prony_univariate(
                np.array([grid.values[(a,)] for a in range(2 * r + 1)])
            )
            assert_models_match(via_takagi, via_prony, 1e-6)

    def test_node_at_zero(self):
        # signal 0, 0, ... with a genuine zero node: y_a = 0^a pattern
        y = np.array([1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(AtomAtZero):
            pd.prony_univariate(y)


def cosine(a, sigma, w, phi):
    """A exp(sigma t) cos(w t + phi) as its conjugate pair of terms."""
    return ExpSumModel(1, [ExpTerm(a / 2 * np.exp(1j * phi), (complex(sigma, w),)),
                           ExpTerm(a / 2 * np.exp(-1j * phi), (complex(sigma, -w),))])


class TestDampedSinusoid:
    def test_degenerate_cosine_merges(self):
        model = ExpSumModel(1, [ExpTerm(0.5, (0j,)), ExpTerm(0.5, (0j,))]).canonical()
        assert len(model.terms) == 1
        assert abs(model.terms[0].weight - 1.0) < 1e-14

    def test_round_trip_through_interpolation(self):
        # the recovered pair's real parts differ by round-off, so the two
        # models sort alike only through the tolerant order
        model = cosine(2, -0.1, 1.0, np.pi / 4).canonical()
        rec, _ = interpolate(sample_grid(model, 2), d_max=2)
        assert_models_match(rec, model, 1e-8)


class TestCanonicalOrder:
    def test_round_off_in_a_real_part_does_not_decide_the_order(self):
        # a conjugate pair whose real parts differ only by round-off sorts
        # by imaginary part, in either input order
        up = ExpTerm(1.0 + 0j, (complex(-0.10000000000000021, 1.0),))
        down = ExpTerm(2.0 + 0j, (complex(-0.1, -1.0),))
        for terms in ([up, down], [down, up]):
            got = ExpSumModel(1, terms).canonical()
            assert [t.weight for t in got.terms] == [2.0, 1.0]


class TestEmitSignal:
    def test_constant_three_rows(self):
        model = ExpSumModel(1, [ExpTerm(1.0, (0.0,))])
        table = emit_signal(model, [(0.0, 2.0, 3)])
        lines = table.strip().splitlines()
        assert lines[0] == "z1,real"
        assert len(lines) == 4
        assert all(line.endswith(",1") for line in lines[1:])

    def test_example7_grid_finite(self):
        table = emit_signal(pd.ex7_model(), [(0, 9, 10), (0, 9, 10)], which="real")
        lines = table.strip().splitlines()
        assert len(lines) == 101
        values = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(np.isfinite(values))

    def test_abs_even_symmetry(self):
        model = cosine(1, 0, 2, 0)
        table = emit_signal(model, [(-3.0, 3.0, 7)], which="abs")
        vals = [float(line.split(",")[-1]) for line in table.strip().splitlines()[1:]]
        np.testing.assert_allclose(vals, vals[::-1], atol=1e-12)

    def test_rejects_trivariate(self):
        with pytest.raises(TooManyVariables):
            emit_signal(ExpSumModel(3, []), [(0, 1, 2)] * 3)


class TestHankelRankProperty:
    def test_rank_equals_term_count(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 3))
            r = int(rng.integers(1, 5))
            model = random_separated_model(rng, n, r)
            d = max(r, 1)
            h = hankel_matrix(sample_grid(model, d), d).matrix
            assert np.linalg.matrix_rank(h, tol=1e-8) == r


class TestModelIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "m.expsum")
        write_model(pd.ex7_model(), path)
        back = read_model(path)
        assert_models_match(back, pd.ex7_model(), 0.0 + 1e-16)

    def test_path_objects_read_and_write(self, tmp_path):
        path = tmp_path / "m.expsum"
        write_model(pd.ex7_model(), path)
        back = read_model(path)
        assert back == read_model(str(path))
        assert_models_match(back, pd.ex7_model(), 0.0 + 1e-16)

    def test_parse_error(self):
        with pytest.raises(ParseError):
            read_model("expsum 1\nn 2\nterm 1 0 0.5\n")
        with pytest.raises(ParseError):
            read_model("expsum 1\nn\nterm 1 0 0.5 0\n")
        with pytest.raises(ParseError):
            read_model("expsum 1\nn 1\nterm nan 0 0.5 0\n")
        with pytest.raises(ParseError):
            read_model("expsum 7\nn 1\nterm 1 0 0.5 0\n")  # unknown version
        with pytest.raises(ParseError):
            read_model("expsum 1\nn 1\nterm 1 0 0.5 0\nn 2\n")  # n after the entries
        with pytest.raises(ParseError):
            read_model("expsum 1\nn 2\nn 2\nterm 1 0 0.5 0 0 1\n")  # n given twice
