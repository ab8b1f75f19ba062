"""Diagonal microstates, counting bounds, series, volume and packing."""

import math
import pickle
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freeprob as fp
from freeprob import _kernels, microstates
from freeprob.microstates import K_CAP, _MATH_TERMS, _pair_log_sum
from conftest import atomic_plus_uniform, distinct, purely_atomic, run_cli

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
        assert len(ms.eigenvalues) == k
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
        with pytest.raises(ValueError):
            fp.build_upper_microstate(mixed_measure, K_CAP + 1)
        ok = fp.build_upper_microstate(mixed_measure, K_CAP)
        assert ok.k == K_CAP

    @staticmethod
    def _uniform(lo, width=100.0):
        return fp.SpectralMeasure(
            support=(lo, lo + width),
            diffuse=fp.DiffusePart("uniform", 1.0,
                                   {"lo": lo, "hi": lo + width}))

    @pytest.mark.parametrize("argv", [
        ("series", "regularized-product", "--eps", "0.1", "--ks", "400"),
        ("microstate", "--kind", "upper", "--k", "400"),
        ("microstate", "--kind", "upper", "--k", "400", "--eps", "0.5",
         "--t", "0.01"),
    ], ids=["regularized-product", "microstate", "volume-bound"])
    def test_collapsed_quantiles_refused(self, measure_file, argv):
        # On [1e16, 1e16 + 100] the float spacing is 2, so most of the 400
        # quantiles round onto a neighbour: the sums once took them as
        # repeated eigenvalues with status "ok"
        far = measure_file(self._uniform(1e16), "far.json")
        res = run_cli(*argv, "--measure", far, "--format", "json")
        assert res.code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("freeprob: error: usage: k = 400: ")
        assert res.stderr.endswith("too narrow for its location at this k\n")
        # translation invariance holds where the quantiles stay distinct
        near, moved = (run_cli(*argv, "--measure",
                               measure_file(self._uniform(lo), f"{lo}.json"),
                               "--format", "json")
                       for lo in (0.0, 1e3))
        assert near.code == moved.code == 0
        value = "values" if argv[0] == "series" else "volume_upper_bound_log"
        if value in near.json["result"]:
            assert moved.json["result"][value] == pytest.approx(
                near.json["result"][value], rel=1e-9)

    def test_atom_on_a_quantile_is_a_repeated_eigenvalue(self):
        # the 2/4 quantile of the uniform half is 0.5, where the atom sits
        m = fp.SpectralMeasure(
            support=(0.0, 1.0), atoms=(fp.Atom(0.5, 0.5),),
            diffuse=fp.DiffusePart("uniform", 0.5, {"lo": 0.0, "hi": 1.0}))
        ms = fp.build_upper_microstate(m, 4)
        assert ms.values == (0.5, 1.0)
        assert ms.counts == (3, 1)


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
        assert len(ms.atom_multiplicity_map) == 6  # the live atoms
        total = sum(mult.values())
        assert total + ms.quantile_count + ms.filler_count == 100

    def test_fillers_above_support(self, mixed_measure):
        ms = fp.build_lower_microstate(mixed_measure, 60)
        b = mixed_measure.support[1]
        fillers = np.array(ms.eigenvalues[-ms.filler_count:])
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
        assert (ms.excluded_quantile_count
                <= 2 * len(ms.atom_multiplicity_map))
        assert len(ms.eigenvalues) == k
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

    def test_lower_repeating_non_atom_raises(self, measure_file):
        # A uniform of width 100 at 1e16 has quantile spacing 0.25 at
        # k = 400, against a float spacing of 2: its quantiles round onto
        # each other and onto the atom.  `series offdiag-sum` skipped
        # them as equal pairs, 5.651 against the target 5.158, with
        # status "ok".  The builder refuses them, and it must do so
        # under python -O.
        lo, hi = 1e16, 1e16 + 100.0
        m = fp.SpectralMeasure(
            support=(lo, hi), atoms=(fp.Atom(lo, 0.5),),
            diffuse=fp.DiffusePart("uniform", 0.5, {"lo": lo, "hi": hi}))
        assert fp.validate(m).ok
        with pytest.raises(ValueError, match="round onto"):
            fp.build_lower_microstate(m, 400)
        path = measure_file(m)
        for argv in (("microstate", "--kind", "lower", "--k", "400"),
                     ("series", "offdiag-sum", "--ks", "100,400"),
                     ("series", "packing-constant", "--ks", "100,400")):
            res = run_cli(*argv, "--measure", path, "--format", "json")
            assert res.code == 1, argv
            assert res.stderr.startswith("freeprob: error: usage: k = 400:")
            assert "round onto" in res.stderr

    def test_kernel_equal_count_is_s_count(self, example42, mixed_measure,
                                           single_atom):
        # packing_constant_log takes #S_k from the microstate's counts
        # (``_equal_pairs``); the kernel counts the same equal pairs in the
        # expanded spectrum.
        for m in (example42, mixed_measure, single_atom):
            for k in (100, 256, 1000):
                ms = fp.build_lower_microstate(m, k)
                _, equal = _kernels.pair_log_sq_skip(
                    **distinct(ms.eigenvalues))
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
        target = fp.regularized_energy(uniform01, eps, TOL).value
        assert rep.target == pytest.approx(target, abs=1e-9)
        assert rep.relation == "converges_to"
        gaps = [abs(v - target) for v in rep.values]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2
        assert rep.achieved_gap == pytest.approx(rep.values[-1] - target)

    def test_rejects_eps_that_is_not_finite(self, uniform01):
        ms = fp.build_upper_microstate(uniform01, 20)
        for eps in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                fp.regularized_product_series(uniform01, eps, (10, 20))
            with pytest.raises(ValueError, match="positive and finite"):
                fp.volume_upper_bound_log(ms, eps, 0.05)

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
        rep = fp.offdiag_sum_series(mixed_measure, (100, 200, 400, 800))
        energy = fp.offdiag_energy(mixed_measure)
        assert rep.target == pytest.approx(2.0 * energy.value, abs=1e-9)
        assert rep.achieved_gap >= -0.05
        assert "unordered_normalization_gap" in rep.extras


def test_series_refuse_k_past_the_cap(mixed_measure, measure_file,
                                     monkeypatch):
    # Every series checks each k against the cap before any work, from
    # the library and from the command line: the builders, the targets
    # and the log-factorial table fail this test if they are reached, so a
    # huge k cannot start an unbounded allocation.
    assert K_CAP == 5000

    def reached(*args, **kwargs):
        raise AssertionError("work started before the cap check")

    for name in ("build_upper_microstate", "build_lower_microstate",
                 "regularized_energy", "offdiag_energy", "_log_factorials",
                 "packing_series_target"):
        monkeypatch.setattr(microstates, name, reached)
    path = measure_file(mixed_measure)
    for k in (5001, 10**9):
        message = f"k = {k} exceeds the cap K_CAP = 5000"
        for series in (lambda m, ks: fp.regularized_product_series(m, 0.1,
                                                                   ks),
                       fp.offdiag_sum_series, fp.packing_constant_series):
            with pytest.raises(ValueError) as info:
                series(mixed_measure, (500, k))
            assert str(info.value) == message
        for kind in (("regularized-product", "--eps", "0.1"),
                     ("offdiag-sum",), ("packing-constant",)):
            res = run_cli("series", *kind, "--ks", f"500,{k}",
                          "--measure", path)
            assert res.code == 1, kind
            assert res.stderr == f"freeprob: error: usage: {message}\n"
            assert res.stdout == ""


class TestVolumeUpperBound:
    def test_mpmath_assembly_oracle(self, uniform01):
        k, eps = 50, 0.5
        ms = fp.build_upper_microstate(uniform01, k)
        mpmath.mp.dps = 50
        evs = [mpmath.mpf(j) / k for j in range(1, k + 1)]
        pair = mpmath.fsum(
            mpmath.log((evs[i] - evs[j]) ** 2 + eps)
            for i in range(k) for j in range(i + 1, k))
        # t/eps + 1/4 = 0.35, and ratios near both ends of (0, sqrt(2/5))
        for t in (0.05, (1e-3 - 0.25) * eps,
                  (math.sqrt(0.4) - 1e-9 - 0.25) * eps):
            got = fp.volume_upper_bound_log(ms, eps, t)
            ratio = mpmath.mpf(t) / eps + mpmath.mpf(1) / 4
            r2 = ratio * ratio
            # (a + 2a^2)/(a + 2) = r^2 is quadratic in a; take the positive
            # root, which lies in (0, 1/2) whenever r < sqrt(2/5).
            alpha = (-(1 - r2) + mpmath.sqrt((1 - r2) ** 2 + 16 * r2)) / 4
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

    def test_rejects_t_that_is_not_finite(self, uniform01):
        # a NaN ratio once fell through to NoSolutionError (exit 4)
        ms = fp.build_upper_microstate(uniform01, 20)
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="t must be finite"):
                fp.volume_upper_bound_log(ms, 0.5, t)

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
        got = fp.packing_constant_log(fp.build_lower_microstate(two_atoms, 2))
        assert got == pytest.approx(math.log(8.0 * math.pi / 3.0),
                                    abs=1e-12)

    def test_refuses_an_upper_microstate(self, uniform01):
        ms = fp.build_upper_microstate(uniform01, 50)
        with pytest.raises(ValueError, match="separated"):
            fp.packing_constant_log(ms)

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 500, 5000])
    def test_mpmath_log_factorial_oracle(self, k):
        # One atom of weight 1 sheds floor(sqrt k) copies to fillers, so
        # every k is valid.  The pair sum and #S_k come from the kernel;
        # the oracle rebuilds log D_k, log k! and the Selberg term from
        # mpmath.loggamma at 40 digits.
        m = fp.atomic_measure([(0.0, 1.0)])
        ms = fp.build_lower_microstate(m, k)
        pair_sum, s_count = _kernels.pair_log_sq_skip(
            **distinct(ms.eigenvalues))
        with mpmath.workdps(40):
            lg = mpmath.loggamma
            selberg = mpmath.fsum(lg(j + 1) + 2 * lg(j) - lg(k + j)
                                  for j in range(1, k + 1))
            want = float(mpmath.fsum([
                mpmath.mpf(k * (k - 1)) / 2 * mpmath.log(mpmath.pi),
                2 * mpmath.mpf(pair_sum),
                -mpmath.fsum(lg(j + 1) for j in range(1, k + 1)),
                -lg(k + 1),
                (2 * s_count + k - k * k) * mpmath.log(2),
                selberg,
            ]))
        got = fp.packing_constant_log(ms)
        assert abs(got - want) <= 2.5e-16 * max(1.0, abs(want))

    @pytest.mark.parametrize("k", [2, 3, 500, 5000])
    def test_log_factorial_terms_match_the_fsum_formula(self, k):
        # The weighted sum of log i, i < 2k, from exact integer prefix
        # sums: the exactly rounded sum of the same float terms, and
        # within the product rounding of the per-term fsum it replaced.
        m = fp.atomic_measure([(0.0, 1.0)])
        ms = fp.build_lower_microstate(m, k)
        head = [0.5 * k * (k - 1) * math.log(math.pi),
                2.0 * _pair_log_sum(ms),
                (2 * microstates._equal_pairs(ms) + k - k * k)
                * math.log(2.0)]
        weights = [k - 1 - 2 * i for i in range(1, k + 1)] \
            + [i - 2 * k for i in range(k + 1, 2 * k)]
        logs = [math.log(i) for i in range(1, 2 * k)]
        products = [w * x for w, x in zip(weights, logs)]
        exact = sum(map(Fraction, head)) \
            + sum(w * Fraction(x) for w, x in zip(weights, logs))
        got = fp.packing_constant_log(ms)
        assert got == float(exact)
        rounding = 2.0 ** -53 * math.fsum(map(abs, products))
        assert abs(got - math.fsum(head + products)) <= rounding
        # a series gives each k the value packing_constant_log gives it
        series = fp.packing_constant_series(m, sorted({2, k}))
        assert series.values[0] == \
            fp.packing_constant_log(fp.build_lower_microstate(m, 2)) / 4 \
            + 0.5 * math.log(2)
        assert series.values[-1] == got / (k * k) + 0.5 * math.log(k)

    def test_series_converges_from_above(self, mixed_measure):
        target = fp.packing_series_target(mixed_measure)
        rep = fp.packing_constant_series(mixed_measure, (50, 100, 200, 400))
        assert rep.target == pytest.approx(target, abs=1e-9)
        gaps = [v - target for v in rep.values]
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)

    def test_target_formula(self, mixed_measure):
        energy = fp.offdiag_energy(mixed_measure)
        alpha = fp.free_hausdorff_dimension(mixed_measure)
        want = (2.0 * energy.value + 0.5 * math.log(math.pi) + 0.75
                - alpha * math.log(2.0) - math.log(4.0))
        assert fp.packing_series_target(mixed_measure) == \
            pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# Closed-form pair sums of the separated microstate against explicit pairs.


def _lower_entries(atoms, k):
    """The entries of an atom-only separated microstate, by definition:
    ("atom", x) floor(c k) times (floor(c_1 k) - floor(sqrt k) for the
    heaviest), then ("filler", j), j = 1..F, standing for b + 3 + j/F."""
    ranked = sorted(atoms, key=lambda a: (-a[1], a[0]))
    counts = [math.floor(Fraction(w) * k) for _, w in ranked]
    counts[0] -= math.isqrt(k)
    entries = [("atom", x) for (x, _), c in zip(ranked, counts)
               for _ in range(c)]
    fillers = k - len(entries)
    return entries + [("filler", j) for j in range(1, fillers + 1)], fillers


def _exact_gap(p, q, b, fillers):
    """|p - q| as a Fraction, from the exact entry values."""
    (kind_p, v_p), (kind_q, v_q) = p, q
    if kind_p == kind_q == "atom":
        return abs(Fraction(v_p) - Fraction(v_q))
    if kind_p == kind_q == "filler":
        return Fraction(abs(v_p - v_q), fillers)
    x, j = (v_p, v_q) if kind_p == "atom" else (v_q, v_p)
    return Fraction(b) + 3 + Fraction(j, fillers) - Fraction(x)


def explicit_pair_sum(atoms, b, k, log=math.log):
    """Sum of 2 log|e_i - e_j| over every index pair with distinct entries,
    each gap exact before its one rounding; ``log`` takes a Fraction."""
    entries, fillers = _lower_entries(atoms, k)
    memo = {}
    terms = []
    for i in range(k):
        for j in range(i + 1, k):
            key = (entries[i], entries[j])
            if key not in memo:
                gap = _exact_gap(entries[i], entries[j], b, fillers)
                memo[key] = 2 * log(gap) if gap else None
            if memo[key] is not None:
                terms.append(memo[key])
    equal = sum(1 for i in range(k) for j in range(i + 1, k)
                if entries[i] == entries[j])
    return terms, equal


def _mp_log(gap):
    return mpmath.log(mpmath.mpf(gap.numerator) / gap.denominator)


THREE_ATOMS = [(-0.7, 0.4375), (0.3, 0.3125), (1.1, 0.25)]


class TestClosedFormPairSums:
    """Atom-only lower microstates never build their fillers as floats:
    the pair sum adds the exact filler gaps in closed form."""

    @pytest.fixture(params=["three_atoms", "example42"])
    def case(self, request, example42):
        if request.param == "example42":
            m = example42
        else:
            m = fp.atomic_measure(THREE_ATOMS)
        atoms = [(a.location, a.weight) for a in m.atoms]
        return m, atoms, m.support[1]

    @pytest.mark.parametrize("k", [16, 100, 400])
    def test_offdiag_sum_matches_fsum(self, case, k, monkeypatch):
        m, atoms, b = case
        terms, _ = explicit_pair_sum(atoms, b, k)
        [value] = fp.offdiag_sum_series(m, (k,)).values
        assert value == pytest.approx(2.0 * math.fsum(terms) / (k * k),
                                      rel=1e-13)
        ms = fp.build_lower_microstate(m, k)
        for math_terms in (_MATH_TERMS, 0):  # math, then the numpy kernel
            monkeypatch.setattr(microstates, "_MATH_TERMS", math_terms)
            assert _pair_log_sum(ms) == pytest.approx(
                math.fsum(terms), rel=1e-13)

    def test_paths_agree_past_the_math_threshold(self, monkeypatch):
        # 1100 atoms at k = 5000 give about 6.2e5 log terms, more than the
        # math path takes
        atoms = [(0.0, 0.5)] + [(i / 1100, 0.5 / 1099)
                                for i in range(1, 1100)]
        ms = fp.build_lower_microstate(fp.atomic_measure(atoms), 5000)
        n, f = len(ms.values), ms.filler_count
        assert n * (n - 1) // 2 + n * min(f, 16) > _MATH_TERMS
        kernel = _pair_log_sum(ms)
        # the upper microstate's 1100 values (the zeros join the atom at 0)
        upper = fp.build_upper_microstate(fp.atomic_measure(atoms), 5000)
        assert len(upper.values) == 1100 and upper.zero_count == 302
        upper_kernel = _pair_log_sum(upper, 0.5)
        monkeypatch.setattr(microstates, "_MATH_TERMS", 1 << 30)
        assert _pair_log_sum(ms) == pytest.approx(kernel, rel=1e-13)
        assert _pair_log_sum(upper, 0.5) == pytest.approx(upper_kernel,
                                                          rel=1e-13)

    @pytest.mark.parametrize("k", [16, 100])
    def test_packing_constant_matches_mpmath(self, case, k):
        m, atoms, b = case
        with mpmath.workdps(40):
            terms, equal = explicit_pair_sum(atoms, b, k, log=_mp_log)
            lg = mpmath.loggamma
            want = mpmath.fsum([
                mpmath.mpf(k * (k - 1)) / 2 * mpmath.log(mpmath.pi),
                2 * mpmath.fsum(terms),
                -mpmath.fsum(lg(j + 1) for j in range(1, k + 1)),
                -lg(k + 1),
                (2 * equal + k - k * k) * mpmath.log(2),
                mpmath.fsum(lg(j + 1) + 2 * lg(j) - lg(k + j)
                            for j in range(1, k + 1)),
            ])
            pair = mpmath.fsum(terms)
        ms = fp.build_lower_microstate(m, k)
        assert fp.pair_partition(ms).s_count == equal
        [value] = fp.offdiag_sum_series(m, (k,)).values
        assert abs(value * k * k / 2 - float(pair)) <= 1e-14 * abs(pair)
        got = fp.packing_constant_log(ms)
        assert abs(got - float(want)) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("k", [1, 2, 4, 9])
    def test_one_to_three_fillers(self, k):
        m = fp.atomic_measure([(0.25, 1.0)])
        terms, _ = explicit_pair_sum([(0.25, 1.0)], 0.25, k)
        [value] = fp.offdiag_sum_series(m, (k,)).values
        assert value == pytest.approx(2.0 * math.fsum(terms) / (k * k),
                                      rel=1e-14, abs=1e-300)

    def test_far_atoms_keep_their_fillers_apart(self):
        # At b = 1e16 the float spacing is 2, so b + 3 + j/F collapses
        # onto a few values; the pairs among the fillers are not equal.
        atoms = [(0.0, 0.5), (1e16, 0.5)]
        m = fp.atomic_measure(atoms)
        terms, _ = explicit_pair_sum(atoms, 1e16, 400)
        [value] = fp.offdiag_sum_series(m, (400,)).values
        assert value == pytest.approx(2.0 * math.fsum(terms) / 400 ** 2,
                                      rel=1e-13)
        assert value == pytest.approx(36.5923, abs=1e-4)
        ms = fp.build_lower_microstate(m, 400)
        assert fp.pair_partition(ms).s_count == math.comb(180, 2) \
            + math.comb(200, 2)

    def test_diffuse_at_scale_1e300(self):
        # The numpy kernel sums 2 log|d|: d * d would overflow here.
        scale = 1e300
        m = fp.SpectralMeasure(
            support=(0.0, scale), atoms=(fp.Atom(0.5 * scale, 0.5),),
            diffuse=fp.DiffusePart("uniform", 0.5, {"lo": 0.0, "hi": scale}))
        k = 100
        ms = fp.build_lower_microstate(m, k)
        f, b = ms.filler_count, ms.filler_base
        values = ms.eigenvalues[:k - f]
        terms = [2.0 * math.log(abs(x - y))
                 for i, x in enumerate(values) for y in values[i + 1:]
                 if x != y]
        terms += [2.0 * math.log(float(Fraction(b) + 3 + Fraction(j, f)
                                       - Fraction(x)))
                  for x in values for j in range(1, f + 1)]
        terms += [2.0 * math.log((j - i) / f)
                  for i in range(1, f + 1) for j in range(i + 1, f + 1)]
        [value] = fp.offdiag_sum_series(m, (k,)).values
        assert math.isfinite(value)
        assert value == pytest.approx(2.0 * math.fsum(terms) / (k * k),
                                      rel=1e-13)

    def test_atom_only_values_and_counts(self):
        m = fp.atomic_measure(THREE_ATOMS)
        ms = fp.build_lower_microstate(m, 100)
        assert ms.values == (-0.7, 0.3, 1.1)
        assert ms.counts == (33, 31, 25)
        assert (ms.filler_count, ms.filler_base) == (11, 1.1)
        assert ms.filler_range == (4.1 + 1 / 11, 5.1)
        assert ms.eigenvalues[-1] == 1.1 + 3.0 + 1.0
        assert len(ms.eigenvalues) == 100


def _atoms_plus_uniform(atoms, lo, hi, support=None):
    mass = 1.0 - math.fsum(w for _, w in atoms)
    return fp.SpectralMeasure(
        support=support or (lo, hi),
        atoms=tuple(fp.Atom(x, w) for x, w in atoms),
        diffuse=fp.DiffusePart("uniform", mass, {"lo": lo, "hi": hi}))


def _fsum_distinct_pairs(values, counts, eps=0.0):
    """math.fsum of log((v_a - v_b)^2 + eps) over index pairs with
    distinct values (plus C(c, 2) log eps for each value at eps > 0),
    taken row by row: each row's rounding is half an ulp of a row sum."""
    values = np.asarray(values, dtype=float)
    counts = np.asarray(counts, dtype=float)
    rows = []  # each row's fsum: O(k) floats held, not O(k^2)
    for a in range(values.size - 1):
        d = values[a + 1:] - values[a]
        logs = np.log(d * d + eps) if eps else 2.0 * np.log(d)
        rows.append(math.fsum((counts[a] * counts[a + 1:] * logs).tolist()))
    if eps:
        rows.append(float(np.sum(counts * (counts - 1) / 2)) * math.log(eps))
    return math.fsum(rows)


def _fsum_lower(ms):
    """The lower microstate's pair sum over explicit pairs: its values from
    ``eigenvalues``, and the fillers b + 3 + j/F by their gaps, which stay
    apart however large b is."""
    f, b = ms.filler_count, ms.filler_base
    values, counts = np.unique(ms.eigenvalues[:ms.k - f], return_counts=True)
    terms = [_fsum_distinct_pairs(values, counts)]
    if f:
        steps = np.arange(1, f + 1) / f
        gaps = np.add.outer((b - values) + 3.0, steps)
        terms.extend((2.0 * counts[:, None] * np.log(gaps)).ravel().tolist())
        terms.extend(2.0 * math.log((j - i) / f)
                     for i in range(1, f + 1) for j in range(i + 1, f + 1))
    return math.fsum(terms)


# holes next to each other (0.01 and 0.013 are 3.3 levels apart at k = 2000)
# and next to the grid's ends
CLOSE_HOLES = [(0.01, 0.2), (0.013, 0.1), (0.5, 0.05), (0.995, 0.1)]


class TestUniformGrid:
    """A uniform part's quantiles are a grid, whose pair sums come in
    closed form; the oracle is math.fsum over explicit pairs."""

    TWO_ATOMS = [(0.4, 0.3), (1.0, 0.1)]

    @pytest.mark.parametrize("atoms, k", [
        pytest.param(TWO_ATOMS, 500, id="500"),
        pytest.param(TWO_ATOMS, 5000, id="5000"),
        *[pytest.param(CLOSE_HOLES, k, id=f"close-holes-{k}")
          for k in (30, 60, 200, 500, 2000)]])
    def test_lower_matches_explicit_pairs(self, atoms, k):
        # against mpmath over the exact levels up to k = 200, else fsum
        if atoms is self.TWO_ATOMS:
            m = _atoms_plus_uniform(atoms, -0.7, 1.3)
        else:
            m = _atoms_plus_uniform(atoms, 0.0, 1.0)
        ms = fp.build_lower_microstate(m, k)
        assert ms.grid is not None
        assert ms.excluded_quantile_count == len(ms.grid[-1])
        if atoms is self.TWO_ATOMS:
            assert ms.excluded_quantile_count == 4
        want = _mp_reg_sum(ms) if k <= 200 else _fsum_lower(ms)
        got = _pair_log_sum(ms)
        assert 2.0 * abs(got - want) / k ** 2 <= 1e-14

    @pytest.mark.parametrize("eps", [0.1, 0.5])
    def test_upper_matches_explicit_pairs(self, eps):
        k = 1000
        for m in (fp.uniform_measure(-0.3, 1.7),
                  _atoms_plus_uniform([(0.25, 0.25)], -0.3, 1.7)):
            ms = fp.build_upper_microstate(m, k)
            assert ms.grid is not None
            want = _fsum_distinct_pairs(*np.unique(ms.eigenvalues,
                                                   return_counts=True), eps)
            got = microstates._pair_log_sum(ms, eps)
            assert 2.0 * abs(got - want) / k ** 2 <= 1e-14
            [value] = fp.regularized_product_series(m, eps, (k,)).values
            assert abs(value - 2.0 * want / k ** 2) <= 1e-14

    def test_atom_on_a_quantile_level_merges(self):
        # level 25 of k = 100 at mass 1/2 on [0, 1] is the float 0.5
        m = _atoms_plus_uniform([(0.5, 0.5)], 0.0, 1.0)
        ms = fp.build_upper_microstate(m, 100)
        assert ms.counts[ms.values.index(0.5)] == 51
        for eps in (0.1, 0.5):
            want = _fsum_distinct_pairs(ms.values, ms.counts, eps)
            got = microstates._pair_log_sum(ms, eps)
            assert 2.0 * abs(got - want) / 100 ** 2 <= 1e-14

    def test_atom_on_a_level_float_pairs_at_gap_zero(self):
        # (x - lo) - 3 h is -2.2e-16 for the float x of level 3 here; an
        # atom at x merges with it, and the pair adds log eps
        k = 10
        [x] = microstates._grid_values(("uniform", -0.7, 1.3, 0.5, k), [3])
        m = _atoms_plus_uniform([(x, 0.5)], -0.7, 1.3)
        ms = fp.build_upper_microstate(m, k)
        assert ms.grid is not None and ms.counts[ms.values.index(x)] == 6
        for eps in EPS_RANGE:
            want = _fsum_distinct_pairs(ms.values, ms.counts, eps)
            got = microstates._pair_log_sum(ms, eps)
            assert 2.0 * abs(got - want) / k ** 2 <= _reg_tol(want, k), eps

    def test_top_level_is_b_above_the_grid(self):
        # c k = 50 is an integer: level 50 is the top, at b = 2, which is
        # the atom's value, not the grid point 1
        m = _atoms_plus_uniform([(2.0, 0.5)], 0.0, 1.0, support=(0.0, 2.0))
        ms = fp.build_upper_microstate(m, 100)
        assert ms.grid[-3:-1] == (1, 49)
        assert ms.values[-2:] == (0.98, 2.0) and ms.counts[-1] == 51
        want = _fsum_distinct_pairs(ms.values, ms.counts, 0.1)
        got = microstates._pair_log_sum(ms, 0.1)
        assert 2.0 * abs(got - want) / 100 ** 2 <= 1e-14
        lower = fp.build_lower_microstate(m, 100)
        assert lower.grid[-3:] == (2, 49, (49,))
        got = _pair_log_sum(lower)
        assert 2.0 * abs(got - _fsum_lower(lower)) / 100 ** 2 <= 1e-14

    def test_atom_at_1e16(self):
        m = _atoms_plus_uniform([(1e16, 0.5)], 0.0, 1.0,
                                support=(0.0, 1e16))
        k = 500
        lower = fp.build_lower_microstate(m, k)
        assert lower.grid is not None
        got = _pair_log_sum(lower)
        assert 2.0 * abs(got - _fsum_lower(lower)) / k ** 2 <= 1e-14
        upper = fp.build_upper_microstate(m, k)
        want = _fsum_distinct_pairs(upper.values, upper.counts, 0.1)
        got = microstates._pair_log_sum(upper, 0.1)
        assert 2.0 * abs(got - want) / k ** 2 <= 1e-14

    def test_quantiles_keep_the_batch_bits(self):
        m = _atoms_plus_uniform(self.TWO_ATOMS, -0.7, 1.3)
        for k in (5, 7, 500, 5000):
            quantiles, _ = microstates._quantiles(m, k)
            assert quantiles == fp.diffuse_quantile_batch(m, k).tolist()


EPS_RANGE = [5e-324, 1e-300, 1e-40, 1e-16, 1e-8, 1e-4, 0.1, 0.5, 1e3, 1e300]


def _reg_tol(want, k):
    # at eps = 1e300 every pair term is about 690.8, and its float alone
    # carries up to 6e-14: the bound grows with the value there
    return 1e-14 + 4e-16 * abs(2.0 * want / k ** 2)


def _arcsine_with_atoms():
    # c k is an integer at every k divisible by 5; at k = 5, 10, 505 and
    # 2995 the atoms' integer parts leave one zero, and b is above hi
    return fp.SpectralMeasure(
        support=(-0.4, 2.5), atoms=(fp.Atom(0.9, 0.25), fp.Atom(2.5, 0.15)),
        diffuse=fp.DiffusePart("arcsine", 0.6, {"lo": -0.4, "hi": 1.6}))


def _mp_reg_sum(ms, eps=0.0):
    """The pair sum over the microstate's exact entries, at 40 digits: its
    arcsine levels lo + w sin(pi j/2n)^2 or uniform levels lo + w j/(c k)
    but the holes, its other values' floats and its fillers b + 3 + j/F.
    At eps = 0 equal entries drop out."""
    kind, lo, hi, c, k, first, last, holes = ms.grid
    f = ms.filler_count
    with mpmath.workdps(40):
        w, n = mpmath.mpf(hi) - mpmath.mpf(lo), last + 1
        if kind == "uniform":
            n = mpmath.mpf(c) * k
        entries = [(mpmath.mpf(lo) + w * (
            j / n if kind == "uniform"
            else mpmath.sin(mpmath.pi * j / (2 * n)) ** 2), 1)
            for j in range(first, last + 1) if j not in holes]
        entries += [(mpmath.mpf(v), m) for v, m in zip(*ms.off_grid)]
        entries += [(mpmath.mpf(ms.filler_base) + 3 + mpmath.mpf(j) / f, 1)
                    for j in range(1, f + 1)]
        e = mpmath.mpf(eps)
        terms = []
        for a, (x, ca) in enumerate(entries):
            if eps:
                terms.append(ca * (ca - 1) // 2 * mpmath.log(e))
            terms.extend(ca * cb * mpmath.log((x - y) ** 2 + e)
                         for y, cb in entries[a + 1:])
        return float(mpmath.fsum(terms))


class TestArcsineGrid:
    """An arcsine part with c k = n has the interior Chebyshev-Lobatto
    nodes as its levels, and its regularized pair sums are row products;
    the oracles are fsum over explicit pairs, mpmath and the kernel."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 60, 501])
    def test_pure_matches_explicit_pairs(self, k):
        ms = fp.build_upper_microstate(fp.arcsine_measure(-0.7, 1.3), k)
        assert (ms.grid is None) == (k == 1)
        for eps in EPS_RANGE:
            want = _fsum_distinct_pairs(ms.values, ms.counts, eps)
            got = microstates._pair_log_sum(ms, eps)
            assert 2.0 * abs(got - want) / k ** 2 <= _reg_tol(want, k), eps

    @pytest.mark.parametrize("k", [5, 10, 505])
    def test_atoms_zeros_and_b_match_explicit_pairs(self, k):
        ms = fp.build_upper_microstate(_arcsine_with_atoms(), k)
        assert ms.grid is not None and ms.zero_count == 1
        assert ms.off_grid[0][-1] == 2.5 and 0.0 in ms.off_grid[0]
        for eps in EPS_RANGE:
            want = _fsum_distinct_pairs(ms.values, ms.counts, eps)
            got = microstates._pair_log_sum(ms, eps)
            assert 2.0 * abs(got - want) / k ** 2 <= _reg_tol(want, k), eps
            [value] = fp.regularized_product_series(
                _arcsine_with_atoms(), eps, (k,)).values
            assert value == 2.0 * got / k ** 2

    @pytest.mark.parametrize("m, k", [(fp.arcsine_measure(-0.7, 1.3), 3000),
                                      (_arcsine_with_atoms(), 2995)])
    def test_matches_explicit_pairs_at_k_3000(self, m, k):
        ms = fp.build_upper_microstate(m, k)
        for eps in EPS_RANGE:
            want = _fsum_distinct_pairs(ms.values, ms.counts, eps)
            got = microstates._pair_log_sum(ms, eps)
            assert 2.0 * abs(got - want) / k ** 2 <= _reg_tol(want, k), eps

    @pytest.mark.parametrize("m, ks", [
        (fp.arcsine_measure(-0.7, 1.3), (2, 3, 4, 7)),
        (_arcsine_with_atoms(), (5, 10)),
        (fp.arcsine_measure(1e6 - 1.0, 1e6 + 1.0), (3, 8))])
    def test_matches_mpmath(self, m, ks):
        for k in ks:
            ms = fp.build_upper_microstate(m, k)
            for eps in EPS_RANGE:
                want = _mp_reg_sum(ms, eps)
                got = microstates._pair_log_sum(ms, eps)
                assert 2.0 * abs(got - want) / k ** 2 <= _reg_tol(want, k), \
                    (k, eps)

    @pytest.mark.parametrize("m, k", [(fp.arcsine_measure(-0.7, 1.3), 5000),
                                      (_arcsine_with_atoms(), 4995)])
    def test_agrees_with_the_kernel_at_k_5000(self, m, k):
        ms = fp.build_upper_microstate(m, k)
        for eps in EPS_RANGE:
            want = _kernels.pair_log_reg_sum(ms.values, eps, ms.counts)
            got = microstates._pair_log_sum(ms, eps)
            assert 2.0 * abs(got - want) / k ** 2 <= _reg_tol(want, k), eps

    @pytest.mark.parametrize("k", [7, 500, 5000])
    def test_centred_at_1e6_sums_the_levels_at_0(self, k):
        # The floats at 1e6 are off their levels by up to half an ulp of
        # 1e6; the sum is over the levels, which the move leaves alone.
        far = fp.build_upper_microstate(
            fp.arcsine_measure(1e6 - 1.0, 1e6 + 1.0), k)
        near = fp.build_upper_microstate(fp.arcsine_measure(-1.0, 1.0), k)
        for eps in EPS_RANGE:
            want = microstates._pair_log_sum(near, eps)
            got = microstates._pair_log_sum(far, eps)
            assert 2.0 * abs(got - want) / k ** 2 <= _reg_tol(want, k), eps
            if k == 500:
                want = _fsum_distinct_pairs(near.values, near.counts, eps)
                assert 2.0 * abs(got - want) / k ** 2 <= _reg_tol(want, k)

    @staticmethod
    def _moved(spec, s):
        """The specs of ``test_moved_to_1e6_sums_as_at_0`` at s: binary
        fractions from s, which move exactly, and no zero padding, which
        would stay at 0."""
        if spec == "uniform":
            return fp.uniform_measure(s - 1.0, s + 1.0)
        if spec == "uniform-atom":
            return _atoms_plus_uniform([(s + 0.25, 0.25)], s - 1.0, s + 1.0)
        return fp.SpectralMeasure(
            support=(s - 0.375, s + 2.5),
            atoms=(fp.Atom(s + 0.875, 0.25), fp.Atom(s + 2.5, 0.15)),
            diffuse=fp.DiffusePart("arcsine", 0.6,
                                   {"lo": s - 0.375, "hi": s + 1.625}))

    @pytest.mark.parametrize("spec, k", [
        ("uniform", 7), ("uniform", 500), ("uniform", 5000),
        ("uniform-atom", 500), ("uniform-atom", 5000),
        ("arcsine-atoms", 20), ("arcsine-atoms", 500),
        ("arcsine-atoms", 5000)])
    def test_moved_to_1e6_sums_as_at_0(self, spec, k):
        # A row pairs an entry with the levels at their exact offsets from
        # lo, which the move leaves alone, so with atoms and b the sum at
        # 1e6 is the sum at 0 too.
        far, near = (fp.build_upper_microstate(self._moved(spec, s), k)
                     for s in (1e6, 0.0))
        assert far.grid is not None and far.zero_count == near.zero_count == 0
        for eps in EPS_RANGE:
            want = microstates._pair_log_sum(near, eps)
            got = microstates._pair_log_sum(far, eps)
            assert 2.0 * abs(got - want) / k ** 2 <= _reg_tol(want, k), eps

    @pytest.mark.parametrize("width", [1e-300, 1e160, 1e300])
    def test_extreme_widths_match_the_kernel(self, width):
        # sqrt(eps) / r underflows at width 1e300 and eps 5e-324
        ms = fp.build_upper_microstate(fp.arcsine_measure(0.0, width), 8)
        for eps in EPS_RANGE:
            want = _kernels.pair_log_reg_sum(ms.values, eps, ms.counts)
            got = microstates._pair_log_sum(ms, eps)
            assert 2.0 * abs(got - want) / 64 <= _reg_tol(want, 8), eps

    def test_value_on_a_level_float_pairs_at_gap_zero(self):
        # an atom at the float of level 2 merges with it, so the pair adds
        # log eps, as the kernel and pair_partition count it
        k = 10
        [x] = microstates._grid_values(("arcsine", -1.0, 1.0, 0.5, k), [2])
        m = fp.SpectralMeasure(
            support=(-1.0, 1.0), atoms=(fp.Atom(x, 0.5),),
            diffuse=fp.DiffusePart("arcsine", 0.5, {"lo": -1.0, "hi": 1.0}))
        ms = fp.build_upper_microstate(m, k)
        assert ms.grid is not None and ms.counts[ms.values.index(x)] == 6
        for eps in EPS_RANGE:
            want = _fsum_distinct_pairs(ms.values, ms.counts, eps)
            got = microstates._pair_log_sum(ms, eps)
            assert 2.0 * abs(got - want) / k ** 2 <= _reg_tol(want, k), eps

    def test_c_k_not_an_integer_stays_on_the_kernel(self):
        ms = fp.build_upper_microstate(_arcsine_with_atoms(), 401)
        assert ms.grid is None and ms.quantile_count == 240

    def test_quantiles_within_two_ulps_of_the_batch(self):
        # the grid floats and the batch come from one formula in
        # ``measures``, so they agree to 0 ulps, inside the old 2-ulp bound
        for m in (fp.arcsine_measure(-0.7, 1.3), _arcsine_with_atoms()):
            for k in (5, 7, 500, 5000):
                quantiles, _ = microstates._quantiles(m, k)
                assert quantiles == fp.diffuse_quantile_batch(m, k).tolist()


class TestSmoothGridSums:
    """An upper grid's sums cost O(1) once sqrt(eps) is wide against the
    level spacing.  A uniform grid takes Euler-Maclaurin at every eps,
    whose near field empties from a = sqrt(eps)/h = 20 up; an arcsine grid
    takes the trapezoid rule in the angle from n asinh(sqrt(eps)/r) >= 20
    up.  Both sides of each are tested against fsum over explicit pairs
    and mpmath."""

    SIDES = [0.99, 1.01]  # times the root at a = 20 or the arcsine gate

    @staticmethod
    def _taken(monkeypatch):
        """The grid sums that ``_pair_log_sum`` calls: the uniform's by
        name, the arcsine's as (name, number of the grid's terms)."""
        taken = []
        for name in ("_uniform_sums", "_arcsine_sums"):
            def spy(*args, name=name, f=getattr(microstates, name)):
                terms, row = f(*args)
                taken.append(name if name == "_uniform_sums"
                             else (name, len(terms)))
                return terms, row
            monkeypatch.setattr(microstates, name, spy)
        return taken

    @staticmethod
    def _path(grid, smooth):
        """What ``_taken`` records for a grid: the uniform's one sum, or
        the arcsine's trapezoid rule (3 terms) when smooth and its O(n)
        rows (n // 2 terms) when not; at n = 6 and 7 the counts agree."""
        if grid[0] == "uniform":
            return "_uniform_sums"
        return "_arcsine_sums", 3 if smooth else (grid[6] + 1) // 2

    @staticmethod
    def _gate_root(grid):
        """The root at which a = 20 or the arcsine gate reads 20."""
        kind, lo, hi, c, k, _, last, _ = grid
        if kind == "uniform":
            return 20.0 * ((hi - lo) / (c * k))
        return 0.5 * (hi - lo) * math.sinh(20.0 / (last + 1))

    def _check_gate(self, ms, side, want, monkeypatch):
        eps = (side * self._gate_root(ms.grid)) ** 2
        taken = self._taken(monkeypatch)
        got = _pair_log_sum(ms, eps)
        assert taken == [self._path(ms.grid, side > 1)]
        want = want(ms, eps)
        assert 2.0 * abs(got - want) / ms.k ** 2 <= _reg_tol(want, ms.k)

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("m, k", [
        (fp.uniform_measure(-0.3, 1.7), 3000),
        (_atoms_plus_uniform([(0.25, 0.25), (1.7, 0.05)], -0.3, 1.7), 3000),
        (fp.arcsine_measure(-1.0, 1.0), 3000),
        (_arcsine_with_atoms(), 2995)],
        ids=["uniform", "uniform-atoms", "arcsine", "arcsine-atoms"])
    def test_gate_against_explicit_pairs(self, m, k, side, monkeypatch):
        self._check_gate(fp.build_upper_microstate(m, k), side,
                         lambda ms, eps: _fsum_distinct_pairs(
                             ms.values, ms.counts, eps), monkeypatch)

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("m, k", [
        (_atoms_plus_uniform([(0.5, 0.5)], 0.0, 1.0), 60),
        (fp.arcsine_measure(-0.7, 1.3), 8),
        (_arcsine_with_atoms(), 10)],
        ids=["uniform-atom-on-a-level", "arcsine", "arcsine-atoms"])
    def test_gate_against_mpmath(self, m, k, side, monkeypatch):
        self._check_gate(fp.build_upper_microstate(m, k), side, _mp_reg_sum,
                         monkeypatch)

    @pytest.mark.parametrize("m, first_smooth", [
        (fp.uniform_measure(-0.3, 1.7), 0.1),
        (fp.arcsine_measure(-0.7, 1.3), 1e-4)], ids=["uniform", "arcsine"])
    def test_eps_range_at_k_3000(self, m, first_smooth, monkeypatch):
        # at k = 3000 the benchmark's eps 0.1 and 0.5 reach a >= 20 and
        # pass the arcsine gate; at eps = 1e-4, a = 15 and the arcsine gate
        # reads 30
        k = 3000
        ms = fp.build_upper_microstate(m, k)
        taken = self._taken(monkeypatch)
        for eps in EPS_RANGE:
            got = _pair_log_sum(ms, eps)
            assert taken.pop() == self._path(ms.grid, eps >= first_smooth), eps
            want = _fsum_distinct_pairs(ms.values, ms.counts, eps)
            assert 2.0 * abs(got - want) / k ** 2 <= _reg_tol(want, k), eps

    def test_arcsine_angle_rule_follows_the_branch_points(self, monkeypatch):
        # n = 5000, eps = 4e-5, r = 1: the gate reads 31.6, and the row's
        # branch points lie 0.08 off the real angle axis.  The mean needs
        # 252 angles; a fixed 128-angle trapezoid rule erred by 1.7e-13 in
        # 2|Δ|/k^2.
        k, eps = 5000, 4e-5
        ms = fp.build_upper_microstate(fp.arcsine_measure(-1.0, 1.0), k)
        taken = self._taken(monkeypatch)
        got = _pair_log_sum(ms, eps)
        assert taken == [("_arcsine_sums", 3)]
        kernel = _kernels.pair_log_reg_sum(ms.values, eps, ms.counts)
        monkeypatch.setattr(microstates, "_SMOOTH", math.inf)
        rows = _pair_log_sum(ms, eps)
        assert taken == [("_arcsine_sums", 3), ("_arcsine_sums", 2500)]
        for want in (rows, kernel):
            assert 2.0 * abs(got - want) / k ** 2 <= 1e-15


def _near(grid, eps):
    """A uniform grid's near field at eps: ceil(sqrt(400 - a^2)) levels,
    a = sqrt(eps)/h, and none from a = 20 up."""
    _, lo, hi, c, k = grid[:5]
    a = math.sqrt(eps) / ((hi - lo) / (c * k))
    return math.ceil(math.sqrt(max(0.0, 400.0 - a * a)))


class TestUniformNearField:
    """Below a = sqrt(eps)/h = 20 a uniform grid still sums in O(1): the
    gaps and the levels nearer than the near field to a value are summed
    one by one, the rest by Euler-Maclaurin.  The oracles are fsum over
    explicit pairs at k = 5000 and mpmath at small k."""

    # level 1234 of k = 5000 at mass 1/2 on [-0.7, 1.3] is the float
    # 0.2872, 1.1e-16 below its level; the atom there merges with it
    ON_A_LEVEL = _atoms_plus_uniform([(0.2872, 0.5)], -0.7, 1.3)

    @pytest.mark.parametrize("m", [
        fp.uniform_measure(-0.3, 1.7),
        _atoms_plus_uniform([(0.25, 0.25), (1.7, 0.05)], -0.3, 1.7),
        ON_A_LEVEL], ids=["uniform", "uniform-atoms", "atom-on-a-level"])
    def test_matches_explicit_pairs_at_k_5000(self, m):
        k = 5000
        ms = fp.build_upper_microstate(m, k)
        below = [eps for eps in EPS_RANGE if _near(ms.grid, eps)]
        assert below[:5] == EPS_RANGE[:5]
        for eps in below:
            want = _fsum_distinct_pairs(ms.values, ms.counts, eps)
            got = _pair_log_sum(ms, eps)
            assert 2.0 * abs(got - want) / k ** 2 <= _reg_tol(want, k), eps

    def test_the_atom_sits_on_a_level_float(self):
        ms = fp.build_upper_microstate(self.ON_A_LEVEL, 5000)
        [x] = microstates._grid_values(ms.grid, [1234])
        assert x == 0.2872 and ms.counts[ms.values.index(x)] == 2501
        assert (x - -0.7) - 1234 * (2.0 / 2500) == -2 ** -53

    @pytest.mark.parametrize("a", [1e-30, 0.5, 3.0, 19.9, 20.1, 40.0])
    @pytest.mark.parametrize("m, k", [
        (fp.uniform_measure(-0.3, 1.7), 7),
        (fp.uniform_measure(-0.3, 1.7), 60),
        (_atoms_plus_uniform([(0.5, 0.5)], 0.0, 1.0), 60),
        (_atoms_plus_uniform([(0.25, 0.25), (1.7, 0.05)], -0.3, 1.7), 20)],
        ids=["uniform-7", "uniform-60", "atom-on-a-level-60", "atoms-20"])
    def test_matches_mpmath(self, m, k, a):
        # at k = 7 the grid's 6 levels all lie in the near field below
        # a = 19: d0 = n, and no gap is left to Euler-Maclaurin
        ms = fp.build_upper_microstate(m, k)
        _, lo, hi, c, _, first, last, _ = ms.grid
        eps = (a * ((hi - lo) / (c * k))) ** 2
        if k == 7:
            assert (_near(ms.grid, eps) >= last - first + 1) == (a < 19)
        want = _mp_reg_sum(ms, eps)
        got = _pair_log_sum(ms, eps)
        assert 2.0 * abs(got - want) / k ** 2 <= _reg_tol(want, k)

    @pytest.mark.parametrize("a", [1e-30, 3.0, 19.9, 20.5, 40.0])
    def test_a_row_renders_only_its_near_field(self, a, monkeypatch):
        # the atom at 0.25 sits inside the grid; the one at 1.7 is b, past
        # the top level.  A row pairs the levels at their exact offsets
        # and renders at most the float of the level nearest its value,
        # inside the grid's span, to see whether the two are equal.
        ms = fp.build_upper_microstate(
            _atoms_plus_uniform([(0.25, 0.25), (1.7, 0.05)], -0.3, 1.7), 3000)
        _, lo, hi, c, k, first, last, _ = ms.grid
        h = (hi - lo) / (c * k)
        eps = (a * h) ** 2
        rendered, grid_values = [], microstates._grid_values

        def spy(grid, levels):
            rendered.append(list(levels))
            return grid_values(grid, levels)

        monkeypatch.setattr(microstates, "_grid_values", spy)
        _pair_log_sum(ms, eps)
        near = _near(ms.grid, eps)
        assert (near == 0) == (a > 20)
        nearest = {round((v - lo) / h) for v in ms.off_grid[0]}
        for levels in rendered:
            assert len(levels) == 1 and levels[0] in nearest
            assert first <= levels[0] <= last
        assert len(rendered) == (0 if near == 0 else 1)


class TestAtomOnlyUpper:
    """An atom-only upper microstate sums its pairs in math, as its lower
    twin does; the oracles are fsum over the explicit pairs of its
    eigenvalues and the kernel."""

    @pytest.fixture(params=["three_atoms", "example42", "atom_at_zero"])
    def measure(self, request, example42):
        if request.param == "example42":
            return example42
        if request.param == "three_atoms":
            return fp.atomic_measure(THREE_ATOMS)
        # weights 1/3 leave zero padding, which merges with the atom at 0
        return fp.atomic_measure([(0.0, 1 / 3), (0.5, 1 / 3), (1.2, 1 / 3)])

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 500, 3000])
    def test_matches_explicit_pairs(self, measure, k):
        ms = fp.build_upper_microstate(measure, k)
        assert ms.quantile_count == 0 and ms.grid is None
        at_zero = dict(ms.atom_multiplicity_map).get(0.0, 0)
        if at_zero and ms.zero_count:  # one value, at k = 7 and 500
            assert ms.counts[ms.values.index(0.0)] == at_zero + ms.zero_count
        values, counts = np.unique(ms.eigenvalues, return_counts=True)
        for eps in EPS_RANGE:
            want = _fsum_distinct_pairs(values, counts, eps)
            got = microstates._pair_log_sum(ms, eps)
            assert 2.0 * abs(got - want) / k ** 2 <= _reg_tol(want, k), eps

    def test_agrees_with_the_kernel_at_k_5000(self, measure):
        ms = fp.build_upper_microstate(measure, 5000)
        for eps in EPS_RANGE:
            want = _kernels.pair_log_reg_sum(ms.values, eps, ms.counts)
            got = microstates._pair_log_sum(ms, eps)
            assert 2.0 * abs(got - want) / 5000 ** 2 <= _reg_tol(want, 5000), \
                eps


@pytest.fixture()
def fresh_table(monkeypatch):
    """An empty log-factorial table for one test, as in a new process."""
    monkeypatch.setattr(microstates, "_LOG_FACTORIALS", ([0], [0]))


def _table_at(i):
    """(A_i, S_i) of the table as two floats each with an exact sum."""
    return (microstates._log_factorials(i, lambda a, s: a[i]),
            microstates._log_factorials(i, lambda a, s: s[i]))


class TestLogFactorials:
    @pytest.mark.parametrize("i", [0, 1, 2, 16, 17, 1000, 4999, 5000, 9999])
    def test_exact_sums_of_the_float_logs(self, fresh_table, i):
        # log i! and sum_{j<=i} log j! = sum_{j<=i} (i + 1 - j) log j, as
        # Fractions of the same float logs, rounded once
        logs = [Fraction(math.log(j)) for j in range(1, i + 1)]
        a_want = sum(logs, Fraction(0))
        s_want = sum(((i + 1 - j) * x for j, x in enumerate(logs, 1)),
                     Fraction(0))
        (a_high, a_low), (s_high, s_low) = _table_at(i)
        assert Fraction(a_high) + Fraction(a_low) == a_want
        assert Fraction(s_high) + Fraction(s_low) == s_want
        assert a_high + a_low == float(a_want)
        assert s_high + s_low == float(s_want)

    def test_growth_order_does_not_change_the_table(self, fresh_table,
                                                    monkeypatch):
        _table_at(100)
        _table_at(99)
        _table_at(9999)
        stepwise = microstates._LOG_FACTORIALS
        monkeypatch.setattr(microstates, "_LOG_FACTORIALS", ([0], [0]))
        _table_at(9999)
        assert microstates._LOG_FACTORIALS == stepwise
        assert list(map(len, stepwise)) == [10000, 10000]

    def test_bounded_by_the_cap(self, fresh_table, mixed_measure):
        # no series or Selberg value grows it past 2 K_CAP entries, the
        # packing constant's S_{2k-1} at k = K_CAP
        ks = (K_CAP,)
        fp.regularized_product_series(mixed_measure, 0.1, ks)
        fp.offdiag_sum_series(mixed_measure, ks)
        fp.packing_constant_series(mixed_measure, ks)
        fp.gamma_ratio_limit_series(ks)
        fp.selberg_log(10**5)
        fp.volume_upper_bound_log(
            fp.build_upper_microstate(mixed_measure, K_CAP), 0.5, 0.05)
        assert list(map(len, microstates._LOG_FACTORIALS)) == \
            [2 * K_CAP, 2 * K_CAP]


class TestFillerLogSum:
    @pytest.mark.parametrize("offset", [3.0, 1e3, 1e6, 1e16])
    @pytest.mark.parametrize("f", [1, 70, 5000])
    def test_matches_mpmath(self, offset, f):
        with mpmath.workdps(30):
            want = mpmath.fsum(mpmath.log(mpmath.mpf(offset)
                                          + mpmath.mpf(j) / f)
                               for j in range(1, f + 1))
        got = microstates._filler_log_sum([offset], [1], f)
        assert abs(got - float(want)) <= 4e-16 * abs(float(want))

    @pytest.mark.parametrize("offset, n", [(3.0, 17), (100.0, 20)])
    def test_grid_runs_match_mpmath(self, offset, n):
        # past 16 steps the fillers' offsets of at least 3 put
        # z = offset n + 1 at 52 or more, Stirling's domain; (3, 17) is its
        # lowest point
        with mpmath.workdps(30):
            logs = [mpmath.log(mpmath.mpf(offset) + mpmath.mpf(j) / n)
                    for j in range(1, n + 1)]
            want, size = mpmath.fsum(logs), mpmath.fsum(map(abs, logs))
        got = microstates._log_steps(offset, n)
        assert abs(got - float(want)) <= 2e-15 * float(size)

    def test_refuses_offsets_below_three(self):
        # every value lies at or below b, so its fillers are at least 3 away
        with pytest.raises(ValueError, match="at least 3"):
            microstates._filler_log_sum([2.5, 4.0], [1, 1], 10)


class TestRecords:
    def test_immutable_with_value_equality(self, mixed_measure):
        ms = fp.build_lower_microstate(mixed_measure, 16)
        again = fp.build_lower_microstate(mixed_measure, 16)
        assert ms == again and hash(ms) == hash(again)
        assert ms != fp.build_lower_microstate(mixed_measure, 17)
        with pytest.raises(AttributeError):
            ms.k = 3
        assert repr(ms).startswith("DiagonalMicrostate(kind='lower', k=16, ")

    def test_defaults_and_copies(self):
        rep = fp.SeriesReport(ks=(1,), values=(0.0,), target=0.0,
                              relation="converges_to", achieved_gap=0.0)
        other = fp.SeriesReport((1,), (0.0,), 0.0, "converges_to", 0.0)
        assert rep == other and rep.extras == {} and rep.status == "ok"
        assert rep.extras is not other.extras
        assert pickle.loads(pickle.dumps(rep)) == rep

    def test_asdict_in_slot_order(self):
        rep = fp.SeriesReport(ks=(1,), values=(0.0,), target=0.0,
                              relation="converges_to", achieved_gap=0.0)
        assert list(rep._asdict().items()) == [
            ("ks", (1,)), ("values", (0.0,)), ("target", 0.0),
            ("relation", "converges_to"), ("achieved_gap", 0.0),
            ("status", "ok"), ("approach_side", "above"), ("extras", {})]
        changed = fp.SeriesReport((1,), (0.0,), 1.0, "converges_to", 0.0,
                                  "not_converged")
        assert list(changed._asdict().values()) == [
            (1,), (0.0,), 1.0, "converges_to", 0.0, "not_converged",
            "below", {}]
        with pytest.raises(TypeError, match="missing"):
            fp.PairPartition(k=1, s_count=0)
        with pytest.raises(TypeError, match="unexpected"):
            fp.PairPartition(k=1, s_count=0, w_count=0, extra=1)

    def test_refusals_and_foreign_equality(self):
        with pytest.raises(TypeError, match="takes 3 fields, got 4"):
            fp.PairPartition(1, 0, 0, 0)
        part = fp.PairPartition(k=1, s_count=0, w_count=0)
        with pytest.raises(AttributeError, match="immutable"):
            del part.k
        assert part.k == 1
        assert part.__eq__((1, 0, 0)) is NotImplemented
        assert part != (1, 0, 0)
        assert part != fp.CountingCheck(1, 0, 0.0, 0.0, 0.0, True)
