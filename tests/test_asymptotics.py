"""Special-function backbone: Selberg product, normalizers."""

import math
import pickle
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import freeprob as fp
from conftest import log_ball_volume, selberg_exact


class TestSelbergLog:
    @pytest.mark.parametrize("k,value", [
        (1, Fraction(1)),
        (2, Fraction(1, 6)),
        (3, Fraction(1, 360)),
    ])
    def test_small_k_exact(self, k, value):
        assert selberg_exact(k) == value
        want = float(mpmath.log(mpmath.mpf(value.numerator)
                                / value.denominator))
        assert fp.selberg_log(k) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("k", [4, 5, 8, 13, 40])
    def test_matches_exact_product(self, k):
        exact = selberg_exact(k)
        want = float(mpmath.log(mpmath.mpf(exact.numerator))
                     - mpmath.log(mpmath.mpf(exact.denominator)))
        assert fp.selberg_log(k) == pytest.approx(want, rel=1e-12, abs=1e-10)

    def test_normalized_limit(self):
        v1000 = fp.selberg_log(1000) / 1000**2
        v2000 = fp.selberg_log(2000) / 2000**2
        limit = fp.GAMMA_RATIO_LIMIT
        assert limit == pytest.approx(-math.log(4.0), abs=0.0)
        assert abs(v1000 - limit) < 0.05
        assert abs(v2000 - limit) < abs(v1000 - limit)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            fp.selberg_log(0)
        with pytest.raises(ValueError):
            fp.selberg_log(True)

    @pytest.mark.parametrize("k", [np.int64(4), True, 3.0, "3"])
    def test_k_is_any_integer_but_bool(self, k):
        # k is read through operator.index, which numpy integers support
        # and floats and strings do not; bool is refused on its own
        if isinstance(k, np.integer):
            assert fp.selberg_log(k) == fp.selberg_log(4)
        else:
            with pytest.raises(ValueError, match="positive integer"):
                fp.selberg_log(k)


class TestSelbergMonteCarlo:
    def test_reproducible(self):
        a = fp.selberg_mc_check(2, 0.5, 20_000, seed=7)
        b = fp.selberg_mc_check(2, 0.5, 20_000, seed=7)
        assert a == b

    def test_is_a_tuple(self):
        mc = fp.selberg_mc_check(2, 0.5, 1000)
        est, closed, z = mc
        assert (est, closed, z) == mc == (mc[0], mc[1], mc[2])
        assert (est, closed, z) == (mc.mc_estimate, mc.closed_form,
                                    mc.z_score)

    def test_seed_changes_stream(self):
        a = fp.selberg_mc_check(2, 0.5, 20_000, seed=7)
        b = fp.selberg_mc_check(2, 0.5, 20_000, seed=8)
        assert a.mc_estimate != b.mc_estimate

    def test_closed_form_scaling(self):
        mc = fp.selberg_mc_check(3, 0.25, 10)
        want = math.exp(9 * math.log(0.5) + fp.selberg_log(3))
        assert mc.closed_form == pytest.approx(want, rel=1e-12)

    def test_z_scores_calibrated(self):
        # Across 20 independent seeds, |z| < 3 should fail only with
        # probability ~ 20 * 0.0027; allow at most one excursion.
        excursions = sum(
            abs(fp.selberg_mc_check(2, 0.5, 50_000, seed=s).z_score) >= 3.0
            for s in range(20))
        assert excursions <= 1

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_default_seed_agrees_with_the_exact_product(self, k):
        mc = fp.selberg_mc_check(k, 0.5, 10**6, seed=42)
        assert mc.closed_form == pytest.approx(float(selberg_exact(k)),
                                               rel=1e-12)
        assert abs(mc.z_score) < 4.0

    def test_streams_differ_across_k(self, monkeypatch):
        # one seed keyed only by itself would give k = 2 and 3 the same
        # first row of draws
        blocks = []

        def spy(t):
            blocks.append(t.copy())
            return original(t)

        original = fp.asymptotics.vandermonde_sq_moments
        monkeypatch.setattr(fp.asymptotics, "vandermonde_sq_moments", spy)
        for k in (2, 3):
            fp.selberg_mc_check(k, 0.5, 100, seed=7)
        assert [b.shape for b in blocks] == [(100, 2), (100, 3)]
        assert not np.array_equal(blocks[0][:, 0], blocks[1][:, 0])

    def test_z_score_does_not_depend_on_eps(self):
        a = fp.selberg_mc_check(4, 0.5, 20_000, seed=3)
        b = fp.selberg_mc_check(4, 0.25, 20_000, seed=3)
        assert b.z_score == a.z_score != 0.0
        assert b.mc_estimate == pytest.approx(a.mc_estimate * 2.0 ** -16,
                                              rel=1e-12)
        # at eps = 1e-30 the scaled values underflow to 0; z does not
        c = fp.selberg_mc_check(4, 1e-30, 20_000, seed=3)
        assert (c.mc_estimate, c.closed_form) == (0.0, 0.0)
        assert c.z_score == a.z_score

    def test_overflowing_cube_refused(self):
        with pytest.raises(ValueError, match=r"eps = 10000000000.0, k = 6"):
            fp.selberg_mc_check(6, 1e10, 1000)

    def test_rejects_fewer_than_two_samples(self):
        # one sample's variance is 0, which made z infinite
        for samples in (1, 0):
            with pytest.raises(ValueError):
                fp.selberg_mc_check(3, 0.5, samples)
        assert math.isfinite(fp.selberg_mc_check(3, 0.5, 2).z_score)

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            fp.selberg_mc_check(7, 0.5, 100)

    def test_k1_has_no_variance(self):
        # the Vandermonde product over one variable is empty, so every
        # sample is 1, the variance 0, and z is 0 by definition
        mc = fp.selberg_mc_check(1, 0.5, 1000)
        assert mc == (1.0, 1.0, 0.0)
        assert mc.mc_estimate == mc.closed_form == math.exp(fp.selberg_log(1))

    @pytest.mark.parametrize("eps", [0.0, -0.5, math.inf, math.nan])
    def test_rejects_eps_that_is_not_positive_and_finite(self, eps):
        # eps = inf returned (nan, inf, nan)
        with pytest.raises(ValueError, match="positive and finite"):
            fp.selberg_mc_check(2, eps, 100)


class TestGammaRatioSeries:
    def test_series_contract(self):
        gs = fp.gamma_ratio_limit_series([10, 100, 1000])
        assert gs.ks == (10, 100, 1000)
        assert gs.target == fp.GAMMA_RATIO_LIMIT
        gaps = [abs(v - gs.target) for v in gs.values]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gs.approach_side == "above"

    def test_requires_increasing_ks(self):
        with pytest.raises(ValueError):
            fp.gamma_ratio_limit_series([10, 10])
        with pytest.raises(ValueError):
            fp.gamma_ratio_limit_series([100, 10])
        with pytest.raises(ValueError):
            fp.gamma_ratio_limit_series([])

    def test_is_a_series_report(self):
        gs = fp.gamma_ratio_limit_series([10, 100])
        assert isinstance(gs, fp.SeriesReport)
        assert (gs.relation, gs.status, gs.extras) == ("converges_to", "ok",
                                                       {})
        assert gs.achieved_gap == gs.values[-1] - fp.GAMMA_RATIO_LIMIT


class TestSeriesReport:
    @pytest.mark.parametrize("values, side", [
        ((1.5, 1.2), "above"),
        ((1.5, 1.0), "above"),  # a value at the target counts as above
        ((0.5, 0.9), "below"),
        ((0.5, 1.5), "mixed"),
        ((1.0, 0.5), "mixed"),
    ])
    def test_approach_side_from_values_and_target(self, values, side):
        rep = fp.SeriesReport(ks=(1, 2), values=values, target=1.0,
                              relation="converges_to", achieved_gap=0.0)
        assert rep.approach_side == side
        assert pickle.loads(pickle.dumps(rep)).approach_side == side


class TestBallVolume:
    def test_k2_closed_form(self):
        # Ball of radius sqrt(2) in R^4: pi^2 r^4 / 2 = 2 pi^2.
        assert log_ball_volume(2) == pytest.approx(
            math.log(2.0 * math.pi**2), abs=1e-12)

    def test_k1_closed_form(self):
        # Interval [-1, 1] has length 2.
        assert log_ball_volume(1) == pytest.approx(math.log(2.0),
                                                   abs=1e-12)

    @pytest.mark.parametrize("k", [10, 20, 50, 120, 200])
    def test_normalization_envelope(self, k):
        value = log_ball_volume(k) / k**2 + 0.5 * math.log(k)
        target = 0.5 * math.log(2.0 * math.pi * math.e)
        assert abs(value - target) <= 10.0 * math.log(k) / k**2

    def test_matches_mpmath(self):
        k = 37
        want = float((k**2 / mpmath.mpf(2)) * mpmath.log(mpmath.pi * k)
                     - mpmath.loggamma(k**2 / mpmath.mpf(2) + 1))
        assert log_ball_volume(k) == pytest.approx(want, rel=1e-13)
