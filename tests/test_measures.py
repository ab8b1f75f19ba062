"""Measure specs: validation, quantiles, serialization, truncation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import freeprob as fp
from conftest import affine_pushforward, atomic_plus_uniform, purely_atomic


def diffuse_cdf(diffuse, x):
    """nu((-inf, x]) of a diffuse part, in measure units: scipy's law of
    each family times the mass, or the knots' linear interpolation."""
    p = diffuse.params
    if diffuse.kind == "piecewise_linear_cdf":
        xs, cs = zip(*p["knots"])
        return np.interp(x, xs, cs)
    if diffuse.kind == "semicircle":
        law = stats.semicircular(p["center"], p["radius"])
    else:  # stats.uniform or stats.arcsine on [lo, hi]
        law = getattr(stats, diffuse.kind)(p["lo"], p["hi"] - p["lo"])
    return diffuse.mass * law.cdf(x)


class TestValidation:
    def test_factories_validate(self, uniform01, arcsine2, semicircle2,
                                mixed_measure, example42):
        for m in (uniform01, arcsine2, semicircle2, mixed_measure, example42):
            report = fp.validate(m)
            assert report.ok, report.problems
            assert report.mass_defect == pytest.approx(0.0, abs=1e-12)

    def test_atom_outside_support(self):
        m = fp.SpectralMeasure(support=(0.0, 1.0),
                               atoms=(fp.Atom(5.0, 1.0),))
        report = fp.validate(m)
        assert not report.ok
        assert any("support" in p for p in report.problems)

    def test_duplicate_atoms(self):
        m = fp.SpectralMeasure(
            support=(0.0, 1.0),
            atoms=(fp.Atom(0.5, 0.5), fp.Atom(0.5, 0.5)))
        report = fp.validate(m)
        assert not report.ok

    def test_mass_defect_reported(self):
        m = fp.SpectralMeasure(support=(0.0, 1.0),
                               atoms=(fp.Atom(0.5, 0.75),))
        report = fp.validate(m)
        assert not report.ok
        assert report.total_mass == pytest.approx(0.75)
        assert report.mass_defect == pytest.approx(-0.25)

    def test_atoms_sorted_by_location(self):
        m = fp.SpectralMeasure(
            support=(0.0, 1.0),
            atoms=(fp.Atom(0.75, 0.5), fp.Atom(0.25, 0.5)))
        assert [a.location for a in m.atoms] == [0.25, 0.75]
        by_weight = m.atoms_by_weight()
        assert by_weight[0].weight >= by_weight[-1].weight

    def test_non_finite_knot_reported(self):
        knots = [[0.0, 0.0], [math.nan, 0.5], [1.0, 1.0]]
        m = fp.SpectralMeasure(
            support=(0.0, 1.0),
            diffuse=fp.DiffusePart("piecewise_linear_cdf", 1.0,
                                   {"knots": knots}))
        report = fp.validate(m)
        assert not report.ok
        assert any("finite" in p for p in report.problems)

    def test_support_width_must_be_finite(self):
        m = fp.uniform_measure(-1e308, 1e308)
        report = fp.validate(m)
        assert not report.ok
        assert any("overflows" in p for p in report.problems)

    @pytest.mark.parametrize("diffuse", [
        fp.DiffusePart("uniform", 1.0, {"lo": 0.0, "hi": 5e-324}),
        fp.DiffusePart("arcsine", 1.0, {"lo": 0.0, "hi": 1e-310}),
        fp.DiffusePart("semicircle", 1.0, {"center": 0.0, "radius": 1e-320}),
        fp.DiffusePart("piecewise_linear_cdf", 1.0,
                       {"knots": [[0.0, 0.0], [5e-324, 0.5], [1e-323, 1.0]]}),
    ], ids=["uniform", "arcsine", "semicircle", "piecewise"])
    def test_subnormal_width_rejected(self, diffuse):
        lo, hi = diffuse.interval()
        report = fp.validate(fp.SpectralMeasure(support=(lo, hi),
                                                diffuse=diffuse))
        assert not report.ok
        assert fp.validate(fp.SpectralMeasure(
            support=(0.0, 1.0),
            diffuse=fp.DiffusePart("uniform", 1.0, {"lo": 0.0,
                                                    "hi": 2.3e-308}))).ok

    def test_validate_never_raises_on_bad_diffuse(self):
        m = fp.SpectralMeasure(
            support=(0.0, 1.0),
            diffuse=fp.DiffusePart("uniform", 1.0, {"lo": 1.0, "hi": 0.0}))
        report = fp.validate(m)
        assert not report.ok


class TestQuantiles:
    @pytest.mark.parametrize("fixture", ["uniform01", "arcsine2",
                                         "semicircle2"])
    def test_cdf_of_quantile_is_level(self, fixture, request):
        m = request.getfixturevalue(fixture)
        k = 64
        qs = fp.diffuse_quantile_batch(m, k)
        levels = np.arange(1, k + 1) / k
        assert np.allclose(diffuse_cdf(m.diffuse, qs), levels, rtol=0.0,
                           atol=1e-9)

    @pytest.mark.parametrize("k", [7, 100, 5000])
    def test_cdf_mass_of_quantile_is_level_every_family(self, k):
        # The quantile function alone must invert the diffuse CDF at
        # every level j/k below the top: nothing corrects it afterwards.
        families = [
            fp.uniform_measure(-1.3, 0.9),
            fp.arcsine_measure(0.2, 2.3),
            fp.semicircle_measure(0.7, 1.02),
            fp.SpectralMeasure(
                support=(-0.5, 1.5),
                diffuse=fp.DiffusePart(
                    "piecewise_linear_cdf", 1.0,
                    {"knots": [[-0.5, 0.0], [0.1, 0.2], [0.9, 0.85],
                               [1.5, 1.0]]})),
            fp.SpectralMeasure(
                support=(-0.3, 1.7),
                atoms=(fp.Atom(1.1, 0.3),),
                diffuse=fp.DiffusePart("semicircle", 0.7,
                                       {"center": 0.7, "radius": 1.0})),
            fp.SpectralMeasure(
                support=(-1.0, 1.0),
                atoms=(fp.Atom(0.2, 0.4),),
                diffuse=fp.DiffusePart("uniform", 0.6,
                                       {"lo": -1.0, "hi": 1.0})),
        ]
        for m in families:
            assert fp.validate(m).ok
            c = m.diffuse.mass
            qs = fp.diffuse_quantile_batch(m, k)
            levels = np.arange(1, qs.size + 1) / k
            below = levels < c - 1e-14
            assert np.allclose(diffuse_cdf(m.diffuse, qs[below]),
                               levels[below], rtol=0.0, atol=1e-12), \
                m.diffuse.kind

    def test_quantiles_nondecreasing(self, mixed_measure):
        qs = fp.diffuse_quantile_batch(mixed_measure, 40)
        assert np.all(np.diff(qs) >= 0.0)

    def test_top_level_snaps_to_support_end(self, uniform01, semicircle2):
        assert fp.diffuse_quantile_batch(uniform01, 8)[-1] == 1.0
        assert fp.diffuse_quantile_batch(semicircle2, 8)[-1] == 2.0

    def test_mixed_measure_levels(self, mixed_measure):
        # Diffuse mass 1/2: j/k levels up to [ck] = k/2 quantiles.
        qs = fp.diffuse_quantile_batch(mixed_measure, 16)
        assert qs.size == 8
        # Level j/16 of total mass is j/8 of the uniform[1,2] half.
        assert np.allclose(qs, [1.125, 1.25, 1.375, 1.5, 1.625, 1.75,
                                1.875, 2.0], atol=1e-12)

    def test_no_diffuse_part_gives_empty(self, two_atoms):
        assert fp.diffuse_quantile_batch(two_atoms, 10).size == 0

    def test_piecewise_quantiles_at_the_float_range(self):
        # the slope (x1 - x0) / (c1 - c0) of np.interp overflowed: 198 of
        # the 400 quantiles were inf
        m = fp.measure_from_dict({
            "support": [0.0, 1.797e308],
            "diffuse": {"kind": "piecewise_linear_cdf", "mass": 1.0,
                        "params": {"knots": [[0.0, 0.0], [4.494e307, 0.2],
                                             [1.0786e308, 0.7],
                                             [1.797e308, 1.0]]}}})
        assert fp.validate(m).ok
        qs = fp.diffuse_quantile_batch(m, 400)
        assert qs.size == 400
        assert np.all(np.isfinite(qs))
        assert np.all((qs >= 0.0) & (qs <= 1.797e308))
        assert np.all(np.diff(qs) > 0.0)

    def test_piecewise_quantiles(self):
        m = fp.SpectralMeasure(
            support=(0.0, 3.0),
            diffuse=fp.DiffusePart(
                "piecewise_linear_cdf", 1.0,
                {"knots": [[0.0, 0.0], [1.0, 0.75], [3.0, 1.0]]}))
        assert fp.validate(m).ok
        qs = fp.diffuse_quantile_batch(m, 4)
        assert np.allclose(qs, [1.0 / 3.0, 2.0 / 3.0, 1.0, 3.0], atol=1e-9)


class TestSemicircleQuantileDerivative:
    def test_matches_difference_quotient(self, semicircle2):
        d = semicircle2.diffuse
        p, h = np.array([0.2, 0.5, 0.77]), 1e-6
        fd = (d.quantile_unit(p + h) - d.quantile_unit(p - h)) / (2 * h)
        assert d.quantile_unit_derivative(p) == pytest.approx(fd, rel=1e-4)


class TestSerialization:
    def test_round_trip(self, mixed_measure, measure_file):
        path = measure_file(mixed_measure)
        loaded = fp.load_measure(path)
        assert fp.measure_to_dict(loaded) == fp.measure_to_dict(mixed_measure)

    def test_family_form_preserved(self, example42, measure_file):
        path = measure_file(example42)
        raw = json.loads(open(path).read())
        assert raw["atom_family"]["name"] == "example42"
        loaded = fp.load_measure(path)
        assert loaded.family == "example42"
        assert loaded.atoms == example42.atoms
        assert loaded.truncated_tail == example42.truncated_tail

    def test_truncated_tail_refused_without_its_family(self, tmp_path):
        # the spec would reload as atoms 0.5/0.3 of total mass 0.8
        t = fp.SpectralMeasure(support=(0.0, 2.0),
                               atoms=(fp.Atom(0.0, 0.5), fp.Atom(1.0, 0.3)),
                               truncated_tail=0.2, truncated_tail_location=2.0)
        assert fp.validate(t).ok
        path = tmp_path / "truncated.json"
        for write in (fp.measure_to_dict,
                      lambda measure: fp.dump_measure(measure, str(path))):
            with pytest.raises(ValueError, match="truncated tail mass 0.2"):
                write(t)
        assert not path.exists()

    def test_family_round_trips_with_its_tail(self):
        m = fp.example42_measure()
        back = fp.measure_from_dict(fp.measure_to_dict(m))
        assert fp.measure_to_dict(m)["atom_family"] == {"name": "example42",
                                                        "tol": 1e-10}
        assert back.atoms == m.atoms
        assert back.truncated_tail == m.truncated_tail > 0.0
        assert fp.validate(back).ok

    def test_error_paths_name_keys(self):
        with pytest.raises(fp.MeasureSpecError) as exc:
            fp.measure_from_dict({"support": [0.0]})
        assert exc.value.path == "support"
        with pytest.raises(fp.MeasureSpecError) as exc:
            fp.measure_from_dict({"support": [0, 1],
                                  "atoms": [{"weight": 0.5}]})
        assert "atoms[0]" in exc.value.path
        with pytest.raises(fp.MeasureSpecError) as exc:
            fp.measure_from_dict({"support": [0, 1],
                                  "diffuse": {"kind": "uniform", "mass": 1.0,
                                              "params": {"lo": 0.0}}})
        assert exc.value.path.startswith("diffuse")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       10 ** 400])
    def test_non_finite_numbers_rejected(self, value):
        with pytest.raises(fp.MeasureSpecError) as exc:
            fp.measure_from_dict({"support": [0.0, value]})
        assert exc.value.path == "support[1]"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(fp.MeasureSpecError):
            fp.measure_from_dict({"support": [0, 1], "wat": 3})

    @pytest.mark.parametrize("spec, path", [
        ({"support": [0, 1], "wat": 3}, "wat"),
        ({"support": [0, 1],
          "atoms": [{"location": 0.5, "weight": 1.0, "colour": "red"}]},
         "atoms[0].colour"),
        ({"support": [0, 1], "diffuse": {"kind": "uniform", "mass": 1.0,
                                         "weight": 1.0,
                                         "params": {"lo": 0, "hi": 1}}},
         "diffuse.weight"),
        ({"support": [-1, 1],
          "diffuse": {"kind": "semicircle", "mass": 1.0,
                      "params": {"center": 0, "radius": 1, "hi": 1}}},
         "diffuse.params.hi"),
        ({"support": [0, 1], "atoms": [{"location": 0.5, "weight": 1.0}],
          "diffuse": {"kind": "empty", "mass": 0.0, "params": {"lo": 0}}},
         "diffuse.params.lo"),
        ({"support": [0, 1],
          "diffuse": {"kind": "piecewise_linear_cdf", "mass": 1.0,
                      "params": {"knot": [[0, 0], [1, 1]]}}},
         "diffuse.params.knot"),
        ({"support": [0, 1],
          "atom_family": {"name": "example42", "tolerance": 1e-3}},
         "atom_family.tolerance"),
    ], ids=["top", "atom", "diffuse", "semicircle_params", "empty_params",
            "piecewise_params", "atom_family"])
    def test_unknown_key_rejected_at_its_path(self, spec, path):
        with pytest.raises(fp.MeasureSpecError) as exc:
            fp.measure_from_dict(spec)
        assert exc.value.path == path
        assert exc.value.reason == "unknown key"

    def test_validate_reports_unknown_param(self):
        m = fp.SpectralMeasure(
            support=(0.0, 1.0),
            diffuse=fp.DiffusePart("uniform", 1.0,
                                   {"lo": 0, "hi": 1, "extra": 2}))
        report = fp.validate(m)
        assert not report.ok
        assert report.problems == ("diffuse.params.extra: unknown key",)

    def test_family_with_atoms_rejected(self):
        with pytest.raises(fp.MeasureSpecError):
            fp.measure_from_dict({
                "support": [0, 1],
                "atoms": [{"location": 0.5, "weight": 0.5}],
                "atom_family": {"name": "example42", "tol": 1e-6},
            })

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(fp.MeasureSpecError):
            fp.load_measure(str(path))


class TestExample42:
    def test_weights_and_locations(self, example42):
        # Atoms sit at 1/j with weight 2^-j; heaviest first by weight.
        by_weight = example42.atoms_by_weight()
        assert by_weight[0] == fp.Atom(1.0, 0.5)
        assert by_weight[1] == fp.Atom(0.5, 0.25)
        assert by_weight[2] == fp.Atom(1.0 / 3.0, 0.125)

    def test_mass_is_exactly_one(self, example42):
        total = math.fsum(a.weight for a in example42.atoms) \
            + example42.truncated_tail
        assert total == 1.0

    def test_dimension_is_two_thirds(self, example42):
        assert fp.free_hausdorff_dimension(example42) == pytest.approx(
            2.0 / 3.0, abs=1e-9)

    def test_smallest_tol_refused(self):
        # its expansion would need a tail of 2^-1075, which rounds to 0
        with pytest.raises(fp.MeasureSpecError) as exc:
            fp.measure_from_dict({"support": [0, 1], "atom_family": {
                "name": "example42", "tol": 5e-324}})
        assert exc.value.path == "atom_family.tol"

    def test_next_smallest_tol_accepted(self):
        m = fp.measure_from_dict({"support": [0, 1], "atom_family": {
            "name": "example42", "tol": 1e-323}})
        assert len(m.atoms) == 1074
        assert all(a.weight > 0.0 for a in m.atoms)
        assert fp.validate(m).ok

    def test_library_refuses_the_smallest_tol(self):
        # example42_measure shares the spec reader's check
        with pytest.raises(fp.MeasureSpecError) as exc:
            fp.example42_measure(5e-324)
        assert exc.value.path == "tol"
        m = fp.example42_measure(1e-323)
        assert len(m.atoms) == 1074
        assert all(a.weight > 0.0 for a in m.atoms)

    def test_library_refuses_an_infinite_tol(self):
        # an infinite tol has no atom count: a spec error at its path, not
        # the OverflowError of ceil(-log2(inf))
        with pytest.raises(fp.MeasureSpecError) as exc:
            fp.example42_measure(math.inf)
        assert exc.value.path == "tol"

    def test_tail_below_tolerance(self):
        for tol in (1e-6, 1e-10, 1e-13):
            m = fp.example42_measure(tol)
            assert 0.0 < m.truncated_tail < tol


class TestAffinePushforward:
    def test_translation_moves_support(self, mixed_measure):
        t = affine_pushforward(mixed_measure, 1.0, 10.0)
        assert t.support == (10.0, 12.0)
        assert t.atoms[0].location == 10.0
        assert t.diffuse.interval() == (11.0, 12.0)
        assert fp.validate(t).ok

    def test_scaling(self, uniform01):
        t = affine_pushforward(uniform01, 2.0, 0.0)
        assert t.support == (0.0, 2.0)
        assert t.diffuse.interval() == (0.0, 2.0)

    def test_reflection(self, mixed_measure):
        t = affine_pushforward(mixed_measure, -1.0, 0.0)
        assert t.support == (-2.0, 0.0)
        assert t.atoms[-1].location == 0.0
        assert fp.validate(t).ok
        assert t.diffuse.interval() == (-2.0, -1.0)

    @pytest.mark.parametrize("scale", [-1.0, -3.0])
    def test_reflected_knots(self, scale):
        # a negative scale reverses the knots and flips the cumulative
        # masses to mass - c; energies follow the scale law of |scale|
        m = fp.SpectralMeasure(
            support=(-1.0, 3.0), atoms=(fp.Atom(-0.5, 0.25),),
            diffuse=fp.DiffusePart("piecewise_linear_cdf", 0.75, {
                "knots": [[0.0, 0.0], [0.5, 0.2], [1.5, 0.6], [2.0, 0.75]]}))
        t = affine_pushforward(m, scale, 1.0)
        assert fp.validate(t).ok
        knots = t.diffuse.params["knots"]
        assert [x for x, _ in knots] == [scale * x + 1.0
                                         for x in (2.0, 1.5, 0.5, 0.0)]
        masses = [c for _, c in knots]
        assert masses[0] == 0.0 and masses[-1] == 0.75
        assert masses == sorted(set(masses))
        log_s = math.log(abs(scale))
        alpha = fp.free_hausdorff_dimension(m)
        assert fp.offdiag_energy(t).value == pytest.approx(
            fp.offdiag_energy(m).value + alpha * log_s, abs=1e-12)
        # the regularized energy includes the diagonal: the whole mass
        # scales, with eps scaled by scale^2
        assert fp.regularized_energy(t, 0.01 * scale * scale).value == \
            pytest.approx(fp.regularized_energy(m, 0.01).value + 2 * log_s,
                          abs=1e-10)

    def test_non_finite_scale_or_shift_refused(self, uniform01):
        # an infinite scale gave the support (nan, inf) without an error
        for scale, shift in ((math.inf, 0.0), (math.nan, 0.0),
                             (1.0, -math.inf), (2.0, math.nan)):
            with pytest.raises(ValueError, match="must be finite"):
                affine_pushforward(uniform01, scale, shift)

    def test_moved_family_has_no_spec(self):
        # the family form would reload the atoms at 1/j, outside [10, 12],
        # and the explicit atoms without the tail
        m = fp.example42_measure(1e-6)
        t = affine_pushforward(m, 2.0, 10.0)
        assert t.family is None and t.family_tol is None
        assert all(10.0 < a.location <= 12.0 for a in t.atoms)
        assert fp.validate(t).ok
        with pytest.raises(ValueError, match="truncated tail mass"):
            fp.measure_to_dict(t)
        same = affine_pushforward(m, 1.0, 0.0)
        assert same.family == "example42"
        assert fp.measure_to_dict(same) == fp.measure_to_dict(m)


class TestPropertyInvariants:
    @given(atomic_plus_uniform())
    @settings(max_examples=40, deadline=None)
    def test_random_mixed_measures_validate(self, m):
        report = fp.validate(m)
        assert report.ok, report.problems
        assert m.atom_mass + m.diffuse.mass == pytest.approx(1.0, abs=1e-12)

    @given(purely_atomic())
    @settings(max_examples=40, deadline=None)
    def test_random_atomic_measures_validate(self, m):
        assert fp.validate(m).ok
        assert 0.0 <= fp.free_hausdorff_dimension(m) < 1.0

    @given(atomic_plus_uniform(),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_quantiles_within_interval(self, m, k):
        qs = fp.diffuse_quantile_batch(m, k)
        lo, hi = m.diffuse.interval()
        assert np.all(qs >= lo - 1e-12)
        assert np.all(qs <= hi + 1e-12)
        assert np.all(np.diff(qs) >= -1e-15)
