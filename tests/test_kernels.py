"""Hot kernels against explicit oracles: fsum over index pairs, direct
Vandermonde products, and the semicircle CDF."""

import math
import warnings
from itertools import chain

import numpy as np
import pytest

import freeprob as fp
from freeprob import _kernels, microstates
from conftest import distinct


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
        got = _kernels.pair_log_reg_sum(**distinct(vals), eps=eps)
        assert got == pytest.approx(want, rel=1e-13)

    def test_skip_sum_matches_fsum(self, sample_values):
        vals = np.sort(sample_values[:80])
        want = math.fsum(
            math.log((vals[i] - vals[j]) ** 2)
            for i in range(vals.size) for j in range(i + 1, vals.size)
            if vals[i] != vals[j])
        total, skipped = _kernels.pair_log_sq_skip(**distinct(vals))
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

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_vandermonde_moments_of_a_transposed_draw(self, k):
        # the sampler's layout: a (k, m) draw read as its (m, k) transpose
        draw = np.random.default_rng(k).random((k, 1000))
        got = _kernels.vandermonde_sq_moments(draw.T)
        assert got == _kernels.vandermonde_sq_moments(np.ascontiguousarray(
            draw.T))
        prods = np.prod([(draw[i] - draw[j]) ** 2
                         for i in range(k) for j in range(i + 1, k)], axis=0)
        assert got[0] == pytest.approx(float(prods.sum()), rel=1e-12)
        assert got[1] == pytest.approx(float((prods ** 2).sum()), rel=1e-12)


class TestCompressedPairs:
    """The kernels sum over (distinct values, counts); the oracles sum
    over every index pair of the uncompressed input."""

    def test_repeats_across_blocks(self):
        # 620 distinct values span three 256-wide blocks, and one value in
        # each block repeats, so weighted pairs meet across block edges.
        rng = np.random.default_rng(23)
        unique = np.sort(rng.uniform(-2.0, 2.0, size=620))
        vals = np.concatenate([unique, np.repeat(unique[[3, 300, 610]],
                                                 [4, 2, 5])])
        want_sum, want_skip = fsum_skip(vals.tolist())
        total, skipped = _kernels.pair_log_sq_skip(**distinct(vals))
        assert skipped == want_skip == math.comb(5, 2) + math.comb(3, 2) \
            + math.comb(6, 2)
        assert total == pytest.approx(want_sum, rel=1e-13)
        eps = 0.01
        assert _kernels.pair_log_reg_sum(**distinct(vals), eps=eps) == \
            pytest.approx(fsum_reg(vals.tolist(), eps), rel=1e-13)

    def test_all_values_equal(self):
        k = 37
        total, skipped = _kernels.pair_log_sq_skip(**distinct(np.full(k, 0.7)))
        assert total == 0.0
        assert skipped == math.comb(k, 2)

    def test_equal_pairs_add_log_eps(self):
        vals = [0.5, -1.0, 0.5, 2.0, -1.0, 0.5]  # four equal pairs
        n = len(vals)
        for eps in (0.3, 1.0, 4.0):
            unequal = math.fsum(
                math.log((vals[i] - vals[j]) ** 2 + eps)
                for i in range(n) for j in range(i + 1, n)
                if vals[i] != vals[j])
            got = _kernels.pair_log_reg_sum(**distinct(vals), eps=eps)
            assert got == pytest.approx(unequal + 4 * math.log(eps),
                                        rel=1e-14, abs=1e-14)
            assert got == pytest.approx(fsum_reg(vals, eps),
                                        rel=1e-14, abs=1e-14)

    def test_one_and_two_values(self):
        one, two, equal = (distinct(v) for v in ([1.5], [1.5, -0.5],
                                                 [2.0, 2.0]))
        assert _kernels.pair_log_sq_skip(**one) == (0.0, 0)
        assert _kernels.pair_log_reg_sum(**one, eps=0.1) == 0.0
        total, skipped = _kernels.pair_log_sq_skip(**two)
        assert skipped == 0
        assert total == pytest.approx(math.log(4.0), rel=1e-15)
        assert _kernels.pair_log_reg_sum(**two, eps=0.25) == \
            pytest.approx(math.log(4.25), rel=1e-15)
        assert _kernels.pair_log_sq_skip(**equal) == (0.0, 1)
        assert _kernels.pair_log_reg_sum(**equal, eps=0.5) == \
            pytest.approx(math.log(0.5), rel=1e-15)

    def test_reg_sum_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            _kernels.pair_log_reg_sum(**distinct([0.0, 1.0]), eps=0.0)


class TestExtremeGaps:
    """At eps = 0 each term is 2 log|d|: squaring would overflow above
    about 1.3e154 and underflow below about 1.5e-154."""

    def test_huge_gap(self):
        total, skipped = _kernels.pair_log_sq_skip(**distinct([1.0, 8.8e307]))
        assert skipped == 0
        assert total == pytest.approx(2.0 * math.log(8.8e307 - 1.0),
                                      rel=1e-15)

    def test_tiny_gaps(self):
        vals = [0.0, 1e-308, 3e-308, 5e-324]
        total, _ = _kernels.pair_log_sq_skip(**distinct(vals))
        want = math.fsum(2.0 * math.log(abs(a - b))
                         for i, a in enumerate(vals) for b in vals[i + 1:])
        assert total == pytest.approx(want, rel=1e-14)


class TestValuesWithCounts:
    def test_counts_match_the_expanded_spectrum(self):
        rng = np.random.default_rng(41)
        values = np.sort(rng.uniform(-1.0, 1.0, size=300))
        counts = rng.integers(1, 4, size=300)
        expanded = np.repeat(values, counts)
        total, skipped = _kernels.pair_log_sq_skip(values, counts)
        want_total, want_skipped = fsum_skip(expanded.tolist())
        assert skipped == want_skipped == int(
            np.sum(counts * (counts - 1) // 2))
        assert total == pytest.approx(want_total, rel=1e-13)
        few = np.repeat(values[:40], counts[:40]).tolist()
        assert _kernels.pair_log_reg_sum(values[:40], 0.2, counts[:40]) == \
            pytest.approx(fsum_reg(few, 0.2), rel=1e-13)

    def test_counts_need_strictly_ascending_values(self):
        # the cluster sum reads a leaf's span from its first and last value
        for values in ([0.5, -0.25, 1.0], [0.5, 0.5, 1.0]):
            with pytest.raises(ValueError, match="strictly ascending"):
                _kernels.pair_log_sq_skip(values, [1, 2, 1])
            with pytest.raises(ValueError, match="strictly ascending"):
                _kernels.pair_log_reg_sum(values, 0.1, [1, 2, 1])

    def test_reg_sum_rejects_infinite_eps(self):
        for eps in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                _kernels.pair_log_reg_sum(**distinct([0.0, 1.0]), eps=eps)


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


# ---------------------------------------------------------------------------
# The whole spectrum as one cluster (eps > 0).  This was the node sum; it
# is now the cluster sum's layout when eps makes the whole span smooth.

_DIFFUSE = {
    "uniform": {"lo": -1.3, "hi": 0.9},
    "arcsine": {"lo": -0.4, "hi": 1.6},
    "semicircle": {"center": 0.3, "radius": 1.1},
    "piecewise_linear_cdf": {"knots": [[-1.0, 0.0], [-0.5, 0.2],
                                       [0.4, 0.7], [1.0, 1.0]]},
}
_SUPPORT = {"uniform": [-1.3, 0.9], "arcsine": [-0.4, 1.6],
            "semicircle": [-0.8, 1.4], "piecewise_linear_cdf": [-1.0, 1.0]}


def _spec(kind, variant):
    """A diffuse family alone, with an atom, or with an atom and zeros.

    At k = 600 the padded variant has floor(0.8005 k) + floor(0.1995 k)
    = 599 entries, so one slot is a zero eigenvalue."""
    mass = {"pure": 1.0, "atom": 0.75, "padded": 0.8005}[variant]
    spec = {"support": _SUPPORT[kind],
            "diffuse": {"kind": kind, "mass": mass,
                        "params": _DIFFUSE[kind]}}
    if variant != "pure":
        spec["atoms"] = [{"location": _SUPPORT[kind][0] + 0.37,
                          "weight": 1.0 - mass}]
    return fp.measure_from_dict(spec)


def _reg_block(values, counts, eps):
    """The regularized pair sum from the full gap matrix of the distinct
    values, each term as logaddexp(2 log|d|, log eps) so that none
    overflows, and each equal pair as log eps: numpy, apart from the
    kernels."""
    if counts is None:
        values, counts = np.unique(values, return_counts=True)
    u = np.asarray(values, dtype=float)
    c = np.asarray(counts, dtype=float)
    with np.errstate(divide="ignore"):
        table = np.logaddexp(2.0 * np.log(np.abs(np.subtract.outer(u, u))),
                             math.log(eps))
    np.fill_diagonal(table, 0.0)
    equal = float(np.sum(c * (c - 1.0))) / 2.0
    return 0.5 * float(c @ (table @ c)) + equal * math.log(eps)


@pytest.fixture()
def far_pairs(monkeypatch):
    """Records the far cluster-pair matrix of each cluster sum."""
    calls = []
    original = _kernels._far_partial

    def spy(values, weights, lo, hi, far, *rest):
        calls.append(far.copy())
        return original(values, weights, lo, hi, far, *rest)

    monkeypatch.setattr(_kernels, "_far_partial", spy)
    return calls


class TestNodeSum:
    @pytest.mark.parametrize("variant", ["pure", "atom", "padded"])
    @pytest.mark.parametrize("kind", sorted(_DIFFUSE))
    def test_microstates_match_fsum_over_pairs(self, kind, variant,
                                               far_pairs):
        k, eps = 600, 0.5
        ms = microstates.build_upper_microstate(_spec(kind, variant), k)
        assert (ms.zero_count == 1) == (variant == "padded")
        assert len(ms.values) < k or variant == "pure"
        got = _kernels.pair_log_reg_sum(ms.values, eps, ms.counts)
        # the whole spectrum is one cluster, paired with itself
        assert [far.tolist() for far in far_pairs] == [[[True]]]
        assert abs(got - fsum_reg(ms.eigenvalues, eps)) <= 1e-12 * k * k
        # the raw spectrum, compressed, takes the same path to the same sum
        raw = _kernels.pair_log_reg_sum(**distinct(ms.eigenvalues), eps=eps)
        assert len(far_pairs) == 2 and far_pairs[1].shape == (1, 1)
        assert abs(raw - got) <= 1e-12 * k * k

    @pytest.mark.parametrize("eps", [0.5, 2.0])
    def test_forced_at_small_k_matches_mpmath(self, eps, monkeypatch,
                                              far_pairs):
        # leaves of 16 values let 75 values be carried as one cluster
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(_kernels, "_LEAF", 16)
        rng = np.random.default_rng(17)
        vals = rng.uniform(-1.0, 1.0, size=70).tolist() + [0.25] * 5
        k = len(vals)
        with mpmath.workdps(40):
            want = mpmath.fsum(
                mpmath.log((mpmath.mpf(a) - mpmath.mpf(b)) ** 2 + eps)
                for i, a in enumerate(vals) for b in vals[i + 1:])
        got = _kernels.pair_log_reg_sum(**distinct(vals), eps=eps)
        assert [far.tolist() for far in far_pairs] == [[[True]]]
        assert abs(got - float(want)) <= 1e-12 * k * k

    @pytest.mark.parametrize("eps", [1e-3, 1e-2, 0.1, 1.0, 10.0])
    def test_eps_range_on_both_sides_of_the_cost_rule(self, eps):
        # 150 values, one leaf, take the block kernel at every eps; 3000
        # values are carried wherever eps makes their clusters smooth
        rng = np.random.default_rng(3)
        for size in (150, 3000):
            vals = np.sort(rng.uniform(-1.0, 1.0, size=size))
            counts = rng.integers(1, 3, size=size)
            k = int(counts.sum())
            got = _kernels.pair_log_reg_sum(vals, eps, counts)
            want = _reg_block(vals, counts, eps)
            assert abs(got - want) <= 1e-12 * k * k, size

    @pytest.mark.parametrize("span", [1e-300, 1e16, 1e300])
    @pytest.mark.parametrize("eps", [1e-3, 0.5, 10.0])
    def test_extreme_spans_finite_without_warnings(self, span, eps,
                                                   far_pairs):
        vals = span * np.linspace(-0.5, 0.5, 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kernels.pair_log_reg_sum(**distinct(vals), eps=eps)
        assert math.isfinite(got)
        if span == 1e-300:
            # every gap is below 1e-300: each pair gives log eps, and the
            # whole spectrum is one smooth cluster
            assert far_pairs[0].shape == (1, 1)
            assert got == pytest.approx(math.comb(2000, 2) * math.log(eps),
                                        rel=1e-15)
        else:
            assert not np.diagonal(far_pairs[0]).any()
            assert got == pytest.approx(_reg_block(vals, None, eps),
                                        rel=1e-13)


# ---------------------------------------------------------------------------
# The cluster sum behind both entry points, against math.fsum over every
# distinct pair.


def fsum_distinct_pairs(values, counts, eps=0.0):
    """Sum of c_a c_b K(u_a - u_b) over distinct values a < b, with
    K(d) = 2 log|d| at eps = 0 and log(d^2 + eps) else (as
    2 log|d| + log1p(eps / d^2), which does not overflow): one
    math.fsum over the terms of every pair."""
    u = np.asarray(values, dtype=float)
    c = np.asarray(counts, dtype=float)

    def row(a):
        d = np.abs(u[a + 1:] - u[a])
        term = 2.0 * np.log(d)
        if eps:
            term += np.log1p(eps / d / d)
        return (term * (c[a] * c[a + 1:])).tolist()

    return math.fsum(chain.from_iterable(map(row, range(u.size - 1))))


def fsum_reg_distinct(values, counts, eps):
    """``fsum_distinct_pairs`` plus log eps for each equal-value pair."""
    equal = int(np.sum(np.asarray(counts) * (np.asarray(counts) - 1) // 2))
    return math.fsum([fsum_distinct_pairs(values, counts, eps),
                      equal * math.log(eps)])


def _quantiles_with_atom(kind, k):
    """The quantiles at j/k of a diffuse part of mass 0.6 on [-1, 1], and
    one atom of weight 0.4 repeated floor(0.4 k) times, as sorted
    distinct values and counts."""
    params = {"semicircle": {"center": 0.0, "radius": 1.0},
              "uniform": {"lo": -1.0, "hi": 1.0},
              "arcsine": {"lo": -1.0, "hi": 1.0}}[kind]
    m = fp.measure_from_dict({
        "support": [-1.0, 1.0],
        "atoms": [{"location": 0.1234567, "weight": 0.4}],
        "diffuse": {"kind": kind, "mass": 0.6, "params": params}})
    values = np.append(fp.diffuse_quantile_batch(m, k), 0.1234567)
    counts = np.append(np.ones(values.size - 1, dtype=np.int64),
                       math.floor(0.4 * k))
    order = np.argsort(values)
    values, counts = values[order], counts[order]
    assert np.all(np.diff(values) > 0)
    return values, counts


class TestClusterSum:
    @pytest.mark.parametrize("k", [5000, 21667])
    @pytest.mark.parametrize("kind", ["semicircle", "uniform", "arcsine"])
    def test_quantiles_with_an_atom_match_fsum(self, kind, k, far_pairs):
        # U = 3001 and 13001 distinct values; the arcsine's quantiles
        # crowd both ends of the span
        values, counts = _quantiles_with_atom(kind, k)
        assert values.size == math.floor(0.6 * k) + 1
        total, equal = _kernels.pair_log_sq_skip(values, counts)
        assert far_pairs and far_pairs[0].sum() > 0
        assert equal == math.comb(int(counts.max()), 2)
        want = fsum_distinct_pairs(values, counts)
        n = int(counts.sum())
        assert 2.0 * abs(total - want) / (n * n) <= 1e-14

    @pytest.mark.parametrize("center", [1e6, 1e12])
    def test_far_from_zero_matches_fsum(self, center, far_pairs):
        # the uniform quantiles moved to a far center: their spacing, 6.7e-4,
        # stays above the float spacing there (1.2e-4 at 1e12), and the
        # far gaps must not take on the rounding of the absolute positions
        values, counts = _quantiles_with_atom("uniform", 5000)
        values = values + center
        assert np.all(np.diff(values) > 0)
        total, _ = _kernels.pair_log_sq_skip(values, counts)
        assert far_pairs and far_pairs[0].sum() > 0
        want = fsum_distinct_pairs(values, counts)
        n = int(counts.sum())
        assert 2.0 * abs(total - want) / (n * n) <= 1e-14

    def test_small_eps_on_a_wide_span_matches_fsum(self, far_pairs):
        # s = sqrt(eps) / h = 5e-4 on [-2, 2]: no cluster is smooth, and
        # the far pairs are the gap rule's
        rng = np.random.default_rng(29)
        values = np.sort(rng.uniform(-2.0, 2.0, size=3000))
        counts = rng.integers(1, 4, size=3000)
        eps = 1e-6
        got = _kernels.pair_log_reg_sum(values, eps, counts)
        assert far_pairs[0].sum() > 0
        assert not np.diagonal(far_pairs[0]).any()
        want = fsum_reg_distinct(values, counts, eps)
        n = int(counts.sum())
        assert 2.0 * abs(got - want) / (n * n) <= 1e-14

    def test_far_pairs_whose_squared_gaps_overflow(self, far_pairs):
        values = 1e300 * np.linspace(-0.5, 0.5, 800)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kernels.pair_log_reg_sum(**distinct(values), eps=0.5)
        assert far_pairs[0].sum() > 0
        want = fsum_distinct_pairs(values, np.ones(800), 0.5)
        # each term is about 2 log 1e300, so the bound is relative
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_overflowing_gaps_beside_smooth_leaves(self, far_pairs):
        # 1500 values on [-1, 1] form leaves smooth at eps = 2 and degree
        # 20; their gaps to 1500 values near 1e300 square to inf
        values = np.concatenate((np.linspace(-1.0, 1.0, 1500),
                                 1e300 * np.linspace(0.5, 1.0, 1500)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kernels.pair_log_reg_sum(**distinct(values), eps=2.0)
        far = far_pairs[0]
        assert np.diagonal(far)[:5].all() and not np.diagonal(far)[7:].any()
        want = fsum_distinct_pairs(values, np.ones(3000), 2.0)
        assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("size", [1, 2, 100, 256])
    def test_one_leaf_gives_the_block_kernel_bits(self, size, far_pairs):
        # smoothness admits no pair in a call of one leaf, even at an eps
        # that makes the whole span smooth
        assert size <= _kernels._LEAF
        rng = np.random.default_rng(size)
        values = np.sort(rng.uniform(-1.0, 1.0, size=size))
        counts = rng.integers(1, 4, size=size)
        weights = counts.astype(float)
        for eps in (0.0, 0.3, 10.0):
            d = np.subtract.outer(values, values)
            d = np.abs(d) if eps == 0.0 else d * d + eps
            np.fill_diagonal(d, 1.0)
            block = math.fsum([0.5 * float(weights @ (np.log(d) @ weights))])
            got, _ = _kernels._distinct_pair_log_sum(values, counts, eps)
            assert got == (2.0 * block if eps == 0.0 else block)
        assert far_pairs == []


# ---------------------------------------------------------------------------
# Smooth clusters: the degree rule, and accuracy on both sides of every
# admission threshold.


def _tail(s, n):
    """Largest of the last four coefficient rows of the degree-n tensor
    Chebyshev interpolant of log1p((x - y)^2 / s^2) on [-1, 1]^2, from
    its values at the first-kind points by the cosine transform."""
    theta = (2.0 * np.arange(n) + 1.0) * math.pi / (2.0 * n)
    x = np.cos(theta)
    t = np.cos(np.outer(np.arange(n), theta))
    coeffs = (2.0 / n) ** 2 * (t @ np.log1p(np.subtract.outer(x, x) ** 2
                                            / (s * s)) @ t.T)
    coeffs[0, :] *= 0.5
    coeffs[:, 0] *= 0.5
    return float(np.abs(coeffs[n - 4:]).max())


class TestSmoothClusters:
    @pytest.mark.parametrize(
        "degree", range(_kernels._FAR_DEGREE, _kernels._MAX_DEGREE + 1))
    def test_degree_rule_leaves_a_negligible_tail(self, degree):
        # every s from 1e-3 to 1e2 that the rule admits at this degree,
        # with the smallest such s, where the kernel is least smooth
        s_min = math.sinh(36.8 / (degree - 4))
        while _kernels._smooth_degree(s_min, 1.0) > degree:
            s_min = math.nextafter(s_min, math.inf)
        admitted = [s for s in np.geomspace(1e-3, 1e2, 26)
                    if _kernels._smooth_degree(s, 1.0) <= degree]
        assert all(s >= s_min for s in admitted)
        for s in [s_min] + admitted:
            assert _tail(s, degree) <= 1e-13, s

    @pytest.mark.parametrize("spacing", ["uniform", "arcsine"])
    @pytest.mark.parametrize("size", [1, 2, 150, 700, 3000])
    def test_matches_fsum_across_the_admission_thresholds(self, size,
                                                          spacing):
        # eps from no smooth cluster to a smooth whole spectrum; the
        # arcsine crowds both ends, so its end leaves are the narrowest
        rng = np.random.default_rng(size)
        if spacing == "uniform":
            values = np.unique(rng.uniform(-1.0, 1.0, size=size))
        else:
            values = np.sin(0.5 * math.pi
                            * np.linspace(-1.0, 1.0, size + 2)[1:-1])
        counts = rng.integers(1, 4, size=values.size)
        n = int(counts.sum())
        for eps in (1e-6, 1e-3, 1e-2, 0.1, 0.5, 10.0):
            got = _kernels.pair_log_reg_sum(values, eps, counts)
            want = fsum_reg_distinct(values, counts, eps)
            assert 2.0 * abs(got - want) / (n * n) <= 1e-14, eps


# ---------------------------------------------------------------------------
# Grid identities: spectra too large for an fsum over pairs.


def _grid_pair_sum(n, h, eps):
    """The pair sum of the grid j h, j < n, from its n - d gaps d h: every
    d^2 h^2 is an exact float, so the sum is sum_d (n - d) log(d^2 h^2 +
    eps), which at eps = 0 is 2 (C(n, 2) log h + sum_d (n - d) log d)."""
    d = np.arange(1, n, dtype=float)
    return math.fsum((n - d) * np.log(d * d * (h * h) + eps))


class TestGridIdentities:
    @pytest.mark.parametrize("eps", [0.0, 1e-4, 0.1])
    @pytest.mark.parametrize("n", [20_000, 40_000])
    def test_pair_sum_matches_the_gap_count(self, n, eps):
        # every point j h and every gap is an exact float, so each pair
        # term is known from its gap alone
        h = 2.0 ** -14
        values = np.arange(n) * h
        counts = np.ones(n, dtype=np.int64)
        if eps == 0.0:
            got, equal = _kernels.pair_log_sq_skip(values, counts)
            assert equal == 0
        else:
            got = _kernels.pair_log_reg_sum(values, eps, counts)
        want = _grid_pair_sum(n, h, eps)
        assert 2.0 * abs(got - want) / (n * n) <= 1e-14

    @pytest.mark.parametrize("n", [20_000, 40_000])
    def test_arcsine_grid_matches_the_sine_sums(self, n):
        # x_j = w sin^2(pi j/2n), j = 0 .. n, the Chebyshev-Lobatto nodes
        # of [0, w]: x_j - x_i = w sin(pi (j + i)/2n) sin(pi (j - i)/2n),
        # so the pairs sum to a Toeplitz sum over the differences d and a
        # Hankel sum over the sums t of the levels
        w = 2.0
        j = np.arange(n + 1)
        s = np.sin(np.pi * j / (2 * n))
        values = w * s * s
        got, equal = _kernels.pair_log_sq_skip(values,
                                               np.ones(n + 1, dtype=np.int64))
        assert equal == 0
        d = np.arange(1, n + 1)
        t = np.arange(1, 2 * n)
        by_sum = (t + 1) // 2 - np.maximum(0, t - n)  # pairs i < j, i + j = t
        log_sine = np.log(np.sin(np.pi * np.minimum(t, 2 * n - t) / (2 * n)))
        want = 2.0 * math.fsum([
            math.comb(n + 1, 2) * math.log(w),
            *((n + 1 - d) * log_sine[d - 1]).tolist(),
            *(by_sum * log_sine).tolist()])
        assert 2.0 * abs(got - want) / (n + 1) ** 2 <= 1e-14
