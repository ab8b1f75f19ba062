"""Diagonal microstates, counting bounds, series, volume and packing."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freeprob as fp
from freeprob import _kernels
from conftest import atomic_plus_uniform, purely_atomic

TOL = 1e-6


@pytest.fixture(scope="module")
def single_atom():
    return fp.atomic_measure([(0.5, 1.0)])


class TestUpperMicrostate:
    def test_mixed_hand_trace_k4(self, mixed_measure):
        ms = fp.build_upper_microstate(mixed_measure, 4)
        # floor(ck) = 2 quantiles (levels 1/4, 2/4 of total mass) and
        # floor(c_1 k) = 2 copies of the atom at 0; no zeros left over.
        assert ms.kind == "upper"
        assert np.allclose(ms.eigenvalues, [0.0, 0.0, 1.5, 2.0], atol=1e-12)
        assert ms.zero_count == 0
        assert ms.quantile_count == 2
        assert ms.atom_multiplicity_map == ((0.0, 2),)

    def test_zero_padding(self):
        # Weights 1/3 leave floor-rounding slack that pads with zeros.
        m = fp.atomic_measure([(1.0, 1.0 / 3.0), (2.0, 2.0 / 3.0)])
        ms = fp.build_upper_microstate(m, 4)
        # floor(4/3) = 1 and floor(8/3) = 2 entries, one zero pad.
        assert ms.zero_count == 1
        assert sorted(v for v in ms.eigenvalues) == [0.0, 1.0, 2.0, 2.0]

    def test_eigenvalues_sorted_and_in_range(self, mixed_measure):
        ms = fp.build_upper_microstate(mixed_measure, 37)
        assert np.all(np.diff(ms.eigenvalues) >= 0.0)
        a, b = mixed_measure.support
        assert ms.eigenvalues[0] >= min(a, 0.0)
        assert ms.eigenvalues[-1] <= max(b, 0.0)

    def test_diffuse_only_measure(self, uniform01):
        ms = fp.build_upper_microstate(uniform01, 50)
        assert ms.quantile_count == 50
        assert ms.atom_multiplicity_map == ()
        assert np.allclose(ms.eigenvalues,
                           np.arange(1, 51) / 50.0, atol=1e-9)

    @given(atomic_plus_uniform(), st.integers(min_value=4, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_slot_identity(self, m, k):
        ms = fp.build_upper_microstate(m, k)
        assert ms.eigenvalues.size == k
        mult_total = sum(c for _, c in ms.atom_multiplicity_map)
        assert mult_total + ms.quantile_count + ms.zero_count == k
        assert np.all(np.diff(ms.eigenvalues) >= 0.0)

    def test_rejects_bad_k(self, mixed_measure):
        with pytest.raises(ValueError):
            fp.build_upper_microstate(mixed_measure, 0)
        with pytest.raises(ValueError):
            fp.build_upper_microstate(mixed_measure, True)
        with pytest.raises(ValueError):
            fp.build_upper_microstate(mixed_measure, 6000)
        ok = fp.build_upper_microstate(mixed_measure, 6000, k_cap=6000)
        assert ok.k == 6000


class TestLowerMicrostate:
    def test_mixed_hand_trace_k16(self, mixed_measure):
        ms = fp.build_lower_microstate(mixed_measure, 16)
        # Heaviest atom: floor(8) - floor(sqrt(16)) = 4 copies.  Kept
        # interior quantiles: levels 2/16 .. 7/16 of the uniform[1, 2]
        # half, minus the one nearest the atom on each side (only 1.25,
        # the atom at 0 has no quantile below).  Fillers: 7 points
        # b + 3 + j/7 in (5, 6].
        assert ms.atom_multiplicity_map == ((0.0, 4),)
        assert ms.quantile_count == 5
        assert ms.filler_count == 7
        assert ms.excluded_quantile_count == 1
        assert ms.filler_range == (5.0 + 1.0 / 7.0, 6.0)
        want = [0.0] * 4 + [1.375, 1.5, 1.625, 1.75, 1.875] \
            + [5.0 + j / 7.0 for j in range(1, 8)]
        assert np.allclose(ms.eigenvalues, want, atol=1e-12)

    def test_single_atom_k25(self, single_atom):
        ms = fp.build_lower_microstate(single_atom, 25)
        # 25 - floor(sqrt(25)) = 20 copies, no quantiles, 5 fillers.
        assert ms.atom_multiplicity_map == ((0.5, 20),)
        assert ms.quantile_count == 0
        assert ms.filler_count == 5

    def test_example42_k100_multiplicities(self, example42):
        ms = fp.build_lower_microstate(example42, 100)
        mult = dict(ms.atom_multiplicity_map)
        # Heaviest atom (weight 1/2 at location 1): 50 - 10 copies.
        assert mult[1.0] == 40
        assert mult[0.5] == 25
        assert ms.live_atom_count == 6
        total = sum(mult.values())
        assert total + ms.quantile_count + ms.filler_count == 100

    def test_fillers_above_support(self, mixed_measure):
        ms = fp.build_lower_microstate(mixed_measure, 60)
        b = mixed_measure.support[1]
        fillers = ms.eigenvalues[-ms.filler_count:]
        assert np.all(fillers > b + 3.0)
        assert np.all(fillers <= b + 4.0)
        assert fillers[-1] == b + 4.0

    def test_repeats_only_at_atoms(self, mixed_measure):
        ms = fp.build_lower_microstate(mixed_measure, 120)
        values, counts = np.unique(ms.eigenvalues, return_counts=True)
        atom_locs = {a.location for a in mixed_measure.atoms}
        for v, c in zip(values, counts):
            if c > 1:
                assert v in atom_locs

    def test_too_small_k_raises(self):
        # Heaviest weight 0.1: floor(0.1 k) < floor(sqrt(k)) at k = 4.
        m = fp.atomic_measure([(float(j), 0.1) for j in range(10)])
        with pytest.raises(ValueError):
            fp.build_lower_microstate(m, 4)

    def test_atomless_measure_rejected(self, uniform01):
        with pytest.raises(ValueError):
            fp.build_lower_microstate(uniform01, 30)

    @given(atomic_plus_uniform(), st.integers(min_value=4, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_slot_identity_and_exclusions(self, m, k):
        try:
            ms = fp.build_lower_microstate(m, k)
        except ValueError:
            # Heaviest atom too light for this k; a legitimate outcome.
            return
        mult_total = sum(c for _, c in ms.atom_multiplicity_map)
        assert mult_total + ms.quantile_count + ms.filler_count == k
        assert ms.excluded_quantile_count <= 2 * ms.live_atom_count
        assert ms.eigenvalues.size == k
        assert np.all(np.diff(ms.eigenvalues) >= 0.0)
        a, b = m.support
        assert ms.eigenvalues[0] >= a
        assert ms.eigenvalues[-1] <= b + 4.0


class TestPairPartition:
    def test_counts_complement(self, mixed_measure):
        for k in (16, 33, 77):
            ms = fp.build_lower_microstate(mixed_measure, k)
            part = fp.pair_partition(ms)
            assert part.s_count + part.w_count == k * (k - 1) // 2

    def test_mixed_k16(self, mixed_measure):
        ms = fp.build_lower_microstate(mixed_measure, 16)
        part = fp.pair_partition(ms)
        # Four copies of the atom: C(4, 2) coincident pairs.
        assert part.s_count == 6

    def test_upper_variant_counts_too(self, mixed_measure):
        ms = fp.build_upper_microstate(mixed_measure, 16)
        part = fp.pair_partition(ms)
        assert part.s_count + part.w_count == 120

    def test_lower_repeating_non_atom_raises(self):
        # 1.5 is not an atom location, so a separated microstate may not
        # repeat it; the check must survive python -O.
        ms = fp.DiagonalMicrostate(
            kind="lower", k=5,
            eigenvalues=np.array([0.0, 0.0, 1.5, 1.5, 4.0]),
            atom_multiplicity_map=((0.0, 2),), quantile_count=2,
            filler_count=1, filler_range=(4.0, 4.0))
        with pytest.raises(ValueError, match="non-atom"):
            fp.pair_partition(ms)

    def test_kernel_equal_count_is_s_count(self, example42, mixed_measure,
                                           single_atom):
        # packing_constant_log takes #S_k from the pair kernel's count.
        for m in (example42, mixed_measure, single_atom):
            for k in (100, 256, 1000):
                ms = fp.build_lower_microstate(m, k)
                _, equal = _kernels.pair_log_sq_skip(ms.eigenvalues)
                assert equal == fp.pair_partition(ms).s_count


class TestCountingBound:
    def test_single_atom_k25(self, single_atom):
        ms = fp.build_lower_microstate(single_atom, 25)
        check = fp.sk_counting_check(single_atom, ms)
        assert check.lhs == pytest.approx(405.0)  # 2 C(20,2) + 25
        assert check.rhs == pytest.approx(625.0)  # alpha = 0
        assert check.holds

    @pytest.mark.parametrize("k", [100, 173, 256, 400])
    def test_holds_at_scale(self, k, example42, mixed_measure, single_atom):
        for m in (example42, mixed_measure, single_atom):
            ms = fp.build_lower_microstate(m, k)
            check = fp.sk_counting_check(m, ms)
            assert check.holds, (m, k, check)
            assert check.margin == pytest.approx(check.rhs - check.lhs)

    @given(purely_atomic(), st.integers(min_value=100, max_value=400))
    @settings(max_examples=25, deadline=None)
    def test_holds_random_atomic(self, m, k):
        try:
            ms = fp.build_lower_microstate(m, k)
        except ValueError:
            return
        assert fp.sk_counting_check(m, ms).holds


class TestRegularizedProductSeries:
    def test_single_atom_trendline(self, single_atom):
        # Every pair sits at distance 0, so the normalized value is
        # exactly (1 - 1/k) log eps.
        eps = 0.1
        rep = fp.regularized_product_series(single_atom, eps, (10, 100))
        for k, v in zip(rep.ks, rep.values):
            assert v == pytest.approx((1.0 - 1.0 / k) * math.log(eps),
                                      rel=1e-12)

    def test_converges_to_regularized_energy(self, uniform01):
        eps = 0.1
        rep = fp.regularized_product_series(uniform01, eps, (100, 400, 1600))
        target = fp.regularized_energy(uniform01, eps, TOL)
        assert rep.target == pytest.approx(target, abs=1e-9)
        assert rep.relation == "converges_to"
        gaps = [abs(v - target) for v in rep.values]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2
        assert rep.achieved_gap == pytest.approx(rep.values[-1] - target)

    def test_rejects_nonincreasing_ks(self, uniform01):
        with pytest.raises(ValueError):
            fp.regularized_product_series(uniform01, 0.1, (100, 100))


class TestOffdiagSumSeries:
    def test_two_atom_target_is_zero(self, two_atoms):
        # E = 0 for two weight-1/2 atoms at distance 1; the microstate
        # values stay above the target, pushed up by the fillers.
        rep = fp.offdiag_sum_series(two_atoms, (50, 100, 200))
        assert rep.target == 0.0
        assert rep.relation == "eventually_at_least"
        assert all(math.isfinite(v) for v in rep.values)
        assert rep.achieved_gap >= 0.0

    def test_mixed_measure_bounded_below(self, mixed_measure):
        rep = fp.offdiag_sum_series(mixed_measure, (100, 200, 400, 800), TOL)
        energy = fp.offdiag_energy(mixed_measure, TOL)
        assert rep.target == pytest.approx(2.0 * energy.value, abs=1e-9)
        assert rep.achieved_gap >= -0.05
        assert "unordered_normalization_gap" in rep.extras

    def test_precomputed_energy_reused(self, mixed_measure):
        energy = fp.offdiag_energy(mixed_measure, TOL)
        rep = fp.offdiag_sum_series(mixed_measure, (50, 100), TOL,
                                    energy=energy)
        assert rep.target == pytest.approx(2.0 * energy.value, abs=0.0)


class TestVolumeUpperBound:
    def test_mpmath_assembly_oracle(self, uniform01):
        k, eps, t = 50, 0.5, 0.05
        ms = fp.build_upper_microstate(uniform01, k)
        got = fp.volume_upper_bound_log(ms, eps, t)

        mpmath.mp.dps = 50
        ratio = mpmath.mpf(t) / eps + mpmath.mpf(1) / 4
        r2 = ratio * ratio
        # (a + 2a^2)/(a + 2) = r^2 is quadratic in a; take the positive
        # root, which lies in (0, 1/2) whenever r < sqrt(2/5).
        alpha = (-(1 - r2) + mpmath.sqrt((1 - r2) ** 2 + 16 * r2)) / 4
        evs = [mpmath.mpf(j) / k for j in range(1, k + 1)]
        pair = mpmath.fsum(
            mpmath.log((evs[i] - evs[j]) ** 2 + eps)
            for i in range(k) for j in range(i + 1, k))
        want = mpmath.fsum([
            mpmath.mpf(k) / 2 * mpmath.log(k),
            k * mpmath.log(mpmath.mpf(eps)),
            -mpmath.loggamma(mpmath.mpf(k) / 2 + 1),
            mpmath.mpf(k * (k - 1)) / 2 * mpmath.log(1 + 2 * alpha),
            2 * k * k * mpmath.mpf(eps),
            mpmath.mpf(k * k) / 2 * mpmath.log(mpmath.pi),
            mpmath.mpf(k * (k - 1)) / 2 * mpmath.log(2),
            -mpmath.fsum(mpmath.log(mpmath.factorial(j))
                         for j in range(1, k + 1)),
            pair,
        ])
        assert got == pytest.approx(float(want), abs=1e-8)

    def test_monotone_in_t(self, uniform01):
        ms = fp.build_upper_microstate(uniform01, 20)
        values = [fp.volume_upper_bound_log(ms, 0.5, t)
                  for t in (0.01, 0.05, 0.1, 0.15)]
        assert values == sorted(values)

    def test_no_solution_outside_range(self, uniform01):
        ms = fp.build_upper_microstate(uniform01, 20)
        with pytest.raises(fp.NoSolutionError):
            fp.volume_upper_bound_log(ms, 0.5, 0.2)  # ratio 0.65
        with pytest.raises(fp.NoSolutionError):
            fp.volume_upper_bound_log(ms, 0.5, -0.2)  # ratio -0.15

    def test_boundary_ratio_rejected(self, uniform01):
        ms = fp.build_upper_microstate(uniform01, 20)
        t_sup = (math.sqrt(0.4) - 0.25) * 0.5
        with pytest.raises(fp.NoSolutionError):
            fp.volume_upper_bound_log(ms, 0.5, t_sup + 1e-12)
        assert math.isfinite(fp.volume_upper_bound_log(ms, 0.5,
                                                       t_sup - 1e-6))

    def test_lower_kind_rejected(self, mixed_measure):
        ms = fp.build_lower_microstate(mixed_measure, 16)
        with pytest.raises(ValueError):
            fp.volume_upper_bound_log(ms, 0.5, 0.05)


class TestPackingConstant:
    def test_two_atom_hand_assembly(self, two_atoms):
        # k = 2: the atom at 0 sheds its single copy to floor(sqrt 2),
        # leaving spectrum (1, 5).  By hand: log D_2 = log(pi/2), the
        # pair factor is log 16^2, minus log 2!, (2*0 + 2 - 4) log 2,
        # and the Selberg term -log 6 sum to log(8 pi / 3).
        got = fp.packing_constant_log(two_atoms, 2)
        assert got == pytest.approx(math.log(8.0 * math.pi / 3.0),
                                    abs=1e-12)

    def test_series_converges_from_above(self, mixed_measure):
        target = fp.packing_series_target(mixed_measure, TOL)
        rep = fp.packing_constant_series(mixed_measure, (50, 100, 200, 400),
                                         TOL)
        assert rep.target == pytest.approx(target, abs=1e-9)
        gaps = [v - target for v in rep.values]
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)

    def test_target_formula(self, mixed_measure):
        energy = fp.offdiag_energy(mixed_measure, TOL)
        alpha = fp.free_hausdorff_dimension(mixed_measure)
        want = (2.0 * energy.value + 0.5 * math.log(math.pi) + 0.75
                - alpha * math.log(2.0) - math.log(4.0))
        assert fp.packing_series_target(mixed_measure, TOL) == \
            pytest.approx(want, abs=1e-9)

    def test_microstate_reuse(self, mixed_measure):
        ms = fp.build_lower_microstate(mixed_measure, 64)
        a = fp.packing_constant_log(mixed_measure, 64, microstate=ms)
        b = fp.packing_constant_log(mixed_measure, 64)
        assert a == b
