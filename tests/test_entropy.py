"""Free entropy, dimension, and the two-sided entropy sandwich."""

import math

import pytest
from hypothesis import given, settings

import freeprob as fp
from conftest import (
    affine_pushforward,
    atomic_plus_uniform,
    perfbench_module,
    purely_atomic,
)


class TestConstants:
    def test_chi_shift(self):
        assert fp.CHI_SHIFT == pytest.approx(
            0.75 + 0.5 * math.log(2.0 * math.pi), abs=0.0)

    def test_formula_table_covers_api(self):
        for key in ("alpha", "chi", "h1", "upper", "lower", "k1", "k2",
                    "width"):
            assert key in fp.FORMULAS
            assert isinstance(fp.FORMULAS[key], str)


class TestDimension:
    def test_atomless_measure_has_dimension_one(self, semicircle2):
        assert fp.free_hausdorff_dimension(semicircle2) == 1.0

    def test_pure_atom_has_dimension_zero(self):
        m = fp.atomic_measure([(0.0, 1.0)])
        assert fp.free_hausdorff_dimension(m) == 0.0

    def test_two_equal_atoms(self, two_atoms):
        assert fp.free_hausdorff_dimension(two_atoms) == pytest.approx(0.5)

    def test_truncation_bound(self, example42):
        bound = fp.dimension_truncation_bound(example42)
        assert bound == pytest.approx(example42.truncated_tail ** 2)
        exact = 2.0 / 3.0
        assert abs(fp.free_hausdorff_dimension(example42) - exact) <= \
            bound + 1e-12

    @given(purely_atomic())
    @settings(max_examples=30, deadline=None)
    def test_range(self, m):
        alpha = fp.free_hausdorff_dimension(m)
        assert 0.0 <= alpha < 1.0


class TestChi:
    def test_semicircle_is_maximizer_value(self, semicircle2):
        assert fp.chi(semicircle2) == pytest.approx(1.4189385332046727,
                                                    abs=1e-5)

    def test_uniform(self, uniform01):
        assert fp.chi(uniform01) == pytest.approx(0.16893853320467267,
                                                  abs=1e-5)

    def test_atoms_give_minus_inf(self, mixed_measure, two_atoms):
        assert fp.chi(mixed_measure) == -math.inf
        assert fp.chi(two_atoms) == -math.inf

    def test_truncated_tail_gives_minus_inf(self, example42):
        assert fp.chi(example42) == -math.inf

    def test_semicircle_maximizes_at_fixed_variance(self, semicircle2,
                                                    arcsine2, uniform01):
        # Rescaled to variance 1, the semicircle has the largest chi
        # (it maximizes free entropy at fixed variance).
        variances = {
            "semicircle": (semicircle2, 1.0),     # (r/2)^2
            "arcsine": (arcsine2, 2.0),           # half-width^2 / 2
            "uniform": (uniform01, 1.0 / 12.0),   # length^2 / 12
        }
        values = {
            kind: fp.chi(affine_pushforward(m, 1.0 / math.sqrt(var), 0.0))
            for kind, (m, var) in variances.items()
        }
        assert values["semicircle"] > values["arcsine"]
        assert values["semicircle"] > values["uniform"]


class TestDimOneIdentity:
    def test_matches_chi_shift(self, semicircle2):
        h1 = fp.h1_identity(semicircle2)
        want = fp.chi(semicircle2) + 0.5 * (math.log(2.0) - 1.0
                                            - math.log(math.pi))
        assert h1 == pytest.approx(want, abs=1e-12)

    def test_equals_energy_form(self, uniform01):
        # chi + (1/2) log(2/(pi e)) telescopes to E + log 2 + 1/4.
        res = fp.offdiag_energy(uniform01)
        want = res.value + math.log(2.0) + 0.25
        assert fp.h1_identity(uniform01) == pytest.approx(
            want, abs=1e-9)


class TestSandwich:
    def test_bounds_order_and_width(self, mixed_measure):
        b = fp.hausdorff_entropy_bounds(mixed_measure)
        assert b.lower < b.upper
        assert b.upper - b.lower == pytest.approx(
            fp.sandwich_width(b.alpha), abs=1e-12)

    def test_upper_formula(self, mixed_measure):
        b = fp.hausdorff_entropy_bounds(mixed_measure)
        assert b.upper == pytest.approx(
            b.energy.value + math.log(16.0) + 0.25, abs=1e-12)

    def test_lower_formula(self, mixed_measure):
        b = fp.hausdorff_entropy_bounds(mixed_measure)
        want = (b.energy.value - b.alpha * math.log(2.0)
                - 0.5 * math.log(288.0 * math.e) + 0.75)
        assert b.lower == pytest.approx(want, abs=1e-12)

    def test_width_depends_only_on_alpha(self):
        w = fp.sandwich_width(0.5)
        want = (math.log(16.0) + 0.25 + 0.5 * math.log(2.0)
                + 0.5 * math.log(288.0 * math.e) - 0.75)
        assert w == pytest.approx(want, abs=1e-15)

    @given(atomic_plus_uniform())
    @settings(max_examples=10, deadline=None)
    def test_width_identity_random(self, m):
        b = fp.hausdorff_entropy_bounds(m)
        assert b.upper - b.lower == pytest.approx(
            fp.sandwich_width(b.alpha), abs=1e-12)

    def test_frozen_two_atom_lower(self, two_atoms):
        # E = 0 and alpha = 1/2 pin the lower bound in closed form.
        b = fp.hausdorff_entropy_bounds(two_atoms)
        want = -0.5 * math.log(2.0) - 0.5 * math.log(288.0 * math.e) + 0.75
        assert b.lower == pytest.approx(want, abs=1e-12)
        assert b.lower == pytest.approx(-2.9280538303479458, abs=1e-9)

    def test_frozen_upper_at_zero_energy(self, two_atoms):
        b = fp.hausdorff_entropy_bounds(two_atoms)
        assert b.upper == pytest.approx(3.022588722239781, abs=1e-12)


class TestFamily:
    def test_single_variable_consistency(self, mixed_measure):
        # n = 1 family constants must reproduce the scalar sandwich to the
        # bit, here and on every valid benchmark measure at seeds 1-3
        workloads = perfbench_module("workloads")
        names = set(workloads.DIFFUSE_FAMILIES + workloads.ATOM_FAMILIES)
        measures = {"mixed": mixed_measure}
        for seed in (1, 2, 3):
            specs = workloads.make_specs(seed)
            for name in names:
                measures[f"{name}-{seed}"] = fp.measure_from_dict(specs[name])
        differ = {}
        for key, measure in measures.items():
            single = fp.free_family_bounds([measure])
            scalar = fp.hausdorff_entropy_bounds(measure)
            got = (single.lower, single.upper, single.beta)
            want = (scalar.lower, scalar.upper, scalar.alpha)
            if got != want:
                differ[key] = (got, want)
        assert len(measures) == 25
        assert differ == {}

    def test_constants_formulas(self):
        alphas = (0.25, 0.75, 1.0)
        k1, k2 = fp.family_constants(alphas)
        n = 3
        beta = sum(alphas)
        want_k1 = (-(n / 2.0) * math.log(288.0 * math.e) + 3.0 * n / 4.0
                   - beta * math.log(2.0))
        want_k2 = n * math.log(16.0 * math.sqrt(n)) + n / 4.0
        assert k1 == pytest.approx(want_k1, abs=1e-12)
        assert k2 == pytest.approx(want_k2, abs=1e-12)

    def test_bounds_sum_energies(self, mixed_measure, uniform01):
        fam = fp.free_family_bounds([mixed_measure, uniform01])
        total = sum(e.value for e in fam.energies)
        assert fam.lower == pytest.approx(total + fam.k1, abs=1e-12)
        assert fam.upper == pytest.approx(total + fam.k2, abs=1e-12)
        assert fam.beta == pytest.approx(sum(fam.alphas), abs=0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fp.free_family_bounds([])
