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
from freeprob.microstates import K_CAP, _MATH_TERMS, _pair_log_sq_sum
from conftest import atomic_plus_uniform, purely_atomic, run_cli

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
        got = fp.packing_constant_log(two_atoms, 2)
        assert got == pytest.approx(math.log(8.0 * math.pi / 3.0),
                                    abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 500, 5000])
    def test_mpmath_log_factorial_oracle(self, k):
        # One atom of weight 1 sheds floor(sqrt k) copies to fillers, so
        # every k is valid.  The pair sum and #S_k come from the kernel;
        # the oracle rebuilds log D_k, log k! and the Selberg term from
        # mpmath.loggamma at 40 digits.
        m = fp.atomic_measure([(0.0, 1.0)])
        ms = fp.build_lower_microstate(m, k)
        pair_sum, s_count = _kernels.pair_log_sq_skip(ms.eigenvalues)
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
        got = fp.packing_constant_log(m, k, microstate=ms)
        assert abs(got - want) <= 2.5e-16 * max(1.0, abs(want))

    @pytest.mark.parametrize("k", [2, 3, 500, 5000])
    def test_log_factorial_terms_match_the_fsum_formula(self, k):
        # The weighted sum of log i, i < 2k, from exact integer prefix
        # sums: the exactly rounded sum of the same float terms, and
        # within the product rounding of the per-term fsum it replaced.
        m = fp.atomic_measure([(0.0, 1.0)])
        ms = fp.build_lower_microstate(m, k)
        head = [0.5 * k * (k - 1) * math.log(math.pi),
                2.0 * _pair_log_sq_sum(ms),
                (2 * microstates._equal_pairs(ms) + k - k * k)
                * math.log(2.0)]
        weights = [k - 1 - 2 * i for i in range(1, k + 1)] \
            + [i - 2 * k for i in range(k + 1, 2 * k)]
        logs = [math.log(i) for i in range(1, 2 * k)]
        products = [w * x for w, x in zip(weights, logs)]
        exact = sum(map(Fraction, head)) \
            + sum(w * Fraction(x) for w, x in zip(weights, logs))
        got = fp.packing_constant_log(m, k, microstate=ms)
        assert got == float(exact)
        rounding = 2.0 ** -53 * math.fsum(map(abs, products))
        assert abs(got - math.fsum(head + products)) <= rounding
        # a series reads every k from one table built for its largest k
        series = fp.packing_constant_series(m, sorted({2, k}))
        assert series.values[0] == \
            fp.packing_constant_log(m, 2) / 4 + 0.5 * math.log(2)
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

    def test_microstate_reuse(self, mixed_measure):
        ms = fp.build_lower_microstate(mixed_measure, 64)
        a = fp.packing_constant_log(mixed_measure, 64, microstate=ms)
        b = fp.packing_constant_log(mixed_measure, 64)
        assert a == b


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
            assert _pair_log_sq_sum(ms) == pytest.approx(
                math.fsum(terms), rel=1e-13)

    def test_paths_agree_past_the_math_threshold(self, monkeypatch):
        # 700 atoms at k = 5000 give about 5.8e5 log terms, more than the
        # math path takes
        atoms = [(0.0, 0.5)] + [(i / 700, 0.5 / 699) for i in range(1, 700)]
        ms = fp.build_lower_microstate(fp.atomic_measure(atoms), 5000)
        n, f = len(ms.values), ms.filler_count
        assert n * (n - 1) // 2 + n * f > _MATH_TERMS
        kernel = _pair_log_sq_sum(ms)
        monkeypatch.setattr(microstates, "_MATH_TERMS", 1 << 30)
        assert _pair_log_sq_sum(ms) == pytest.approx(kernel, rel=1e-13)

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
        got = fp.packing_constant_log(m, k, microstate=ms)
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
        assert rep._replace(status="not_converged").status == "not_converged"
        assert pickle.loads(pickle.dumps(rep)) == rep
        with pytest.raises(TypeError, match="missing"):
            fp.PairPartition(k=1, s_count=0)
        with pytest.raises(TypeError, match="unexpected"):
            fp.PairPartition(k=1, s_count=0, w_count=0, extra=1)
