"""Hot kernels against explicit oracles: fsum over index pairs, direct
Vandermonde products, and the semicircle CDF."""

import math

import numpy as np
import pytest

from freeprob import _kernels


@pytest.fixture(scope="module")
def sample_values():
    rng = np.random.default_rng(11)
    return rng.uniform(-3.0, 3.0, size=400)


def fsum_reg(vals, eps):
    """Sum of log((v_i - v_j)^2 + eps) over every index pair i < j."""
    n = len(vals)
    return math.fsum(math.log((vals[i] - vals[j]) ** 2 + eps)
                     for i in range(n) for j in range(i + 1, n))


def fsum_skip(vals):
    """(sum of log (v_i - v_j)^2 over pairs with v_i != v_j, equal pairs)."""
    n = len(vals)
    pairs = [(vals[i], vals[j]) for i in range(n) for j in range(i + 1, n)]
    total = math.fsum(math.log((a - b) ** 2) for a, b in pairs if a != b)
    return total, sum(1 for a, b in pairs if a == b)


class TestAgainstFsum:
    def test_reg_sum_matches_fsum(self, sample_values):
        eps = 0.25
        vals = sample_values[:80]
        want = math.fsum(
            math.log((vals[i] - vals[j]) ** 2 + eps)
            for i in range(vals.size) for j in range(i + 1, vals.size))
        got = _kernels.pair_log_reg_sum(vals, eps)
        assert got == pytest.approx(want, rel=1e-13)

    def test_skip_sum_matches_fsum(self, sample_values):
        vals = np.sort(sample_values[:80])
        want = math.fsum(
            math.log((vals[i] - vals[j]) ** 2)
            for i in range(vals.size) for j in range(i + 1, vals.size)
            if vals[i] != vals[j])
        total, skipped = _kernels.pair_log_sq_skip(vals)
        assert skipped == 0
        assert total == pytest.approx(want, rel=1e-13)

    def test_vandermonde_moments(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(-0.5, 0.5, size=(64, 3))
        got_s1, got_s2 = _kernels.vandermonde_sq_moments(t)
        prods = np.prod([
            (t[:, j] - t[:, i]) ** 2
            for i in range(3) for j in range(i + 1, 3)
        ], axis=0)
        assert got_s1 == pytest.approx(float(prods.sum()), rel=1e-12)
        assert got_s2 == pytest.approx(float((prods ** 2).sum()), rel=1e-12)


class TestCompressedPairs:
    """The kernels sum over (distinct values, counts); the oracles sum
    over every index pair of the uncompressed input."""

    def test_repeats_across_blocks(self):
        # 620 distinct values span three 256-wide blocks, and one value in
        # each block repeats, so weighted pairs meet across block edges.
        rng = np.random.default_rng(23)
        distinct = np.sort(rng.uniform(-2.0, 2.0, size=620))
        vals = np.concatenate([distinct, np.repeat(distinct[[3, 300, 610]],
                                                   [4, 2, 5])])
        want_sum, want_skip = fsum_skip(vals.tolist())
        total, skipped = _kernels.pair_log_sq_skip(vals)
        assert skipped == want_skip == math.comb(5, 2) + math.comb(3, 2) \
            + math.comb(6, 2)
        assert total == pytest.approx(want_sum, rel=1e-13)
        eps = 0.01
        assert _kernels.pair_log_reg_sum(vals, eps) == pytest.approx(
            fsum_reg(vals.tolist(), eps), rel=1e-13)

    def test_all_values_equal(self):
        k = 37
        total, skipped = _kernels.pair_log_sq_skip(np.full(k, 0.7))
        assert total == 0.0
        assert skipped == math.comb(k, 2)

    def test_equal_pairs_add_log_eps(self):
        vals = [0.5, -1.0, 0.5, 2.0, -1.0, 0.5]  # four equal pairs
        n = len(vals)
        for eps in (0.3, 1.0, 4.0):
            distinct = math.fsum(
                math.log((vals[i] - vals[j]) ** 2 + eps)
                for i in range(n) for j in range(i + 1, n)
                if vals[i] != vals[j])
            got = _kernels.pair_log_reg_sum(np.array(vals), eps)
            assert got == pytest.approx(distinct + 4 * math.log(eps),
                                        rel=1e-14, abs=1e-14)
            assert got == pytest.approx(fsum_reg(vals, eps),
                                        rel=1e-14, abs=1e-14)

    def test_one_and_two_values(self):
        assert _kernels.pair_log_sq_skip(np.array([1.5])) == (0.0, 0)
        assert _kernels.pair_log_reg_sum(np.array([1.5]), 0.1) == 0.0
        total, skipped = _kernels.pair_log_sq_skip(np.array([1.5, -0.5]))
        assert skipped == 0
        assert total == pytest.approx(math.log(4.0), rel=1e-15)
        assert _kernels.pair_log_reg_sum(np.array([1.5, -0.5]), 0.25) == \
            pytest.approx(math.log(4.25), rel=1e-15)
        assert _kernels.pair_log_sq_skip(np.array([2.0, 2.0])) == (0.0, 1)
        assert _kernels.pair_log_reg_sum(np.array([2.0, 2.0]), 0.5) == \
            pytest.approx(math.log(0.5), rel=1e-15)

    def test_unsorted_input(self):
        rng = np.random.default_rng(31)
        vals = rng.choice(rng.uniform(-1.0, 1.0, size=25), size=90)
        assert np.any(np.diff(vals) < 0)
        want_sum, want_skip = fsum_skip(vals.tolist())
        total, skipped = _kernels.pair_log_sq_skip(vals)
        assert skipped == want_skip > 0
        assert total == pytest.approx(want_sum, rel=1e-13)
        assert _kernels.pair_log_reg_sum(vals, 0.05) == pytest.approx(
            fsum_reg(vals.tolist(), 0.05), rel=1e-13)

    def test_reg_sum_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            _kernels.pair_log_reg_sum(np.array([0.0, 1.0]), 0.0)


class TestSemicircleQuantile:
    def test_inverts_cdf(self):
        ps = np.linspace(0.001, 0.999, 57)
        z = _kernels.semicircle_quantile_unit(ps)
        cdf = 0.5 + (z * np.sqrt(1.0 - z * z) + np.arcsin(z)) / math.pi
        assert np.all(np.diff(z) > 0)
        assert np.allclose(cdf, ps, rtol=0.0, atol=1e-14)


    def test_mpmath_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        near = np.array([1e-300, 1e-17, 1e-12, 1e-8, 1e-4])
        us = np.concatenate([
            near, np.linspace(0.0, 1.0, 41), 0.5 + near, 0.5 - near, 1.0 - near,
            np.random.default_rng(5).random(60)])
        z = _kernels.semicircle_quantile_unit(us)

        def cdf(x):
            return 0.5 + (x * mpmath.sqrt(1 - x * x) + mpmath.asin(x)) / mpmath.pi

        for u, zi in zip(us, z):
            if u in (0.0, 1.0):
                exact = mpmath.mpf(2 * u - 1)
            else:
                exact = mpmath.findroot(lambda x: cdf(x) - mpmath.mpf(u),
                                        (-1, 1), solver="anderson")
            assert abs(float(zi - exact)) <= 4e-15, u

    def test_ends_exact_and_odd(self):
        us = np.arange(0, 1025) / 1024.0  # 1 - u is exact on this grid
        z = _kernels.semicircle_quantile_unit(us)
        assert z[0] == -1.0 and z[-1] == 1.0 and z[512] == 0.0
        assert np.array_equal(z, -z[::-1])
        assert np.all(np.diff(z) > 0)


class TestEnvironmentFlag:
    def test_default_backend_reports(self):
        assert _kernels.backend() == "numpy"

    def test_semicircle_quantile_values(self):
        # Unit quantile at p = 1/2 is 0 by symmetry; ends hit +-1.
        qs = _kernels.semicircle_quantile_unit(np.array([0.5]))
        assert abs(float(qs[0])) < 1e-12
        ends = _kernels.semicircle_quantile_unit(np.array([0.0, 1.0]))
        assert np.allclose(ends, [-1.0, 1.0], atol=1e-9)
