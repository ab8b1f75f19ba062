"""Command-line interface: exit codes, formats, knob discipline."""

import argparse
import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freeprob as fp
from conftest import (chebyshev_reference, mpmath_self_energy,
                      perfbench_module, run_cli, uniform_regularized_energy)
from freeprob.cli import build_parser, parse_args


@pytest.fixture()
def mixed_path(mixed_measure, measure_file):
    return measure_file(mixed_measure, "mixed.json")


@pytest.fixture()
def uniform_path(uniform01, measure_file):
    return measure_file(uniform01, "uniform.json")


@pytest.fixture()
def m42_path(example42, measure_file):
    return measure_file(example42, "m42.json")


class TestExitCodes:
    def test_success_is_zero(self, mixed_path):
        res = run_cli("dim", "--measure", mixed_path)
        assert res.code == 0
        assert res.stderr == ""

    def test_usage_error_is_one(self):
        res = run_cli("dim")  # no --measure
        assert res.code == 1
        assert res.stderr.startswith("freeprob: error: usage:")
        assert res.stdout == ""

    def test_missing_file_is_one(self):
        res = run_cli("dim", "--measure", "/does/not/exist.json")
        assert res.code == 1
        assert "usage" in res.stderr

    def test_invalid_spec_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "support": [0.0, 1.0],
            "atoms": [{"location": 9.0, "weight": 1.0}],
        }))
        res = run_cli("dim", "--measure", str(bad))
        assert res.code == 2
        assert res.stderr.startswith("freeprob: error: measure-spec:")

    @pytest.mark.parametrize("command", ["validate", "energy"])
    def test_nan_knot_is_two(self, tmp_path, command):
        bad = tmp_path / "nan_knot.json"
        bad.write_text(json.dumps({
            "support": [0.0, 2.0],
            "diffuse": {"kind": "piecewise_linear_cdf", "mass": 1.0,
                        "params": {"knots": [[0.0, 0.0], [math.nan, 0.5],
                                             [2.0, 1.0]]}},
        }))
        res = run_cli(command, "--measure", str(bad), "--format", "json")
        assert res.code == 2
        assert "diffuse.params.knots[1][0]" in res.stderr

    def test_unknown_spec_key_is_two(self, tmp_path):
        bad = tmp_path / "tolerance.json"
        bad.write_text(json.dumps({
            "support": [0, 1],
            "atom_family": {"name": "example42", "tolerance": 1e-3}}))
        res = run_cli("validate", "--measure", str(bad))
        assert res.code == 2
        assert res.stderr == (f"freeprob: error: measure-spec: {bad}: "
                              f"atom_family.tolerance: unknown key\n")
        assert res.stdout == ""

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_is_one(self, tmp_path, mixed_path, where):
        out = tmp_path / "no" / "x.json" if where == "missing_dir" else tmp_path
        res = run_cli("dim", "--measure", mixed_path, "--out", str(out))
        assert res.code == 1
        assert res.stderr.startswith(
            f"freeprob: error: usage: cannot write report file {out}: ")
        assert res.stderr.count("\n") == 1
        assert res.stdout == ""

    def test_malformed_json_is_two(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{]")
        res = run_cli("energy", "--measure", str(bad))
        assert res.code == 2

    @pytest.mark.parametrize("content, where", [
        ("{]", "invalid JSON"),
        ('{"support": [0, 1], "atoms": [{"location": 0.5, "weight": "x"}]}',
         "atoms[0].weight"),
    ], ids=["malformed_json", "bad_weight"])
    def test_spec_error_names_its_file(self, tmp_path, mixed_path, content,
                                       where):
        bad = tmp_path / "second.json"
        bad.write_text(content)
        res = run_cli("report", "--measure", mixed_path, "--measure", str(bad))
        assert res.code == 2
        assert res.stderr.startswith(
            f"freeprob: error: measure-spec: {bad}: {where}")
        assert mixed_path not in res.stderr

    @pytest.fixture()
    def arcsine_path(self, measure_file):
        # Radius 1 at eps 1e-18 would need more than MAX_NODES
        # Gauss-Chebyshev nodes, so its self term is the eps = 0 value,
        # whose bound of about 1.5e-8 misses tol 1e-12.  At eps 1e-14 the
        # rule meets that tol.
        return measure_file(fp.arcsine_measure(-1.0, 1.0), "arcsine.json")

    def test_unconverged_regularized_energy_is_three(self, arcsine_path,
                                                     semicircle2,
                                                     measure_file):
        res = run_cli("energy", "--measure", arcsine_path, "--eps", "1e-18",
                      "--tol", "1e-12", "--format", "json")
        assert res.code == 3
        assert res.stderr.startswith("freeprob: error: energy:")
        [row] = res.json["results"][0]["regularized"]
        assert row["status"] == "not_converged"
        assert row["abs_error_estimate"] > 1e-12
        assert math.isfinite(row["value"])
        assert res.json["results"][0]["offdiag_energy"]["status"] == "ok"
        res = run_cli("energy", "--measure", arcsine_path, "--eps", "1e-14",
                      "--tol", "1e-12", "--format", "json")
        assert res.code == 0
        [row] = res.json["results"][0]["regularized"]
        assert row["status"] == "ok"
        assert row["abs_error_estimate"] == 0.0
        assert abs(row["value"] - mpmath_self_energy(
            "arcsine", 1.0, 1e-14)) <= 1e-15
        # The semicircle at eps 1e-8 converges.
        path = measure_file(semicircle2, "semicircle.json")
        res = run_cli("energy", "--measure", path, "--eps", "1e-8",
                      "--format", "json")
        assert res.code == 0
        [row] = res.json["results"][0]["regularized"]
        assert row["status"] == "ok"
        assert row["value"] == pytest.approx(
            chebyshev_reference("semicircle", 2.0, 1e-8), abs=1e-6)

    def test_unconverged_series_target_is_three(self, arcsine_path,
                                                uniform_path):
        res = run_cli("series", "regularized-product", "--eps", "1e-18",
                      "--tol", "1e-12", "--ks", "100,200",
                      "--measure", arcsine_path, "--format", "json")
        assert res.code == 3
        assert res.stderr.startswith("freeprob: error: energy:")
        assert res.json["result"]["status"] == "not_converged"
        res = run_cli("series", "regularized-product", "--eps", "1e-14",
                      "--tol", "1e-12", "--ks", "100,200",
                      "--measure", arcsine_path, "--format", "json")
        assert res.code == 0
        assert res.json["result"]["status"] == "ok"
        assert abs(res.json["result"]["target"] - mpmath_self_energy(
            "arcsine", 1.0, 1e-14)) <= 1e-15
        # The uniform target at eps 1e-8 is closed form.
        res = run_cli("series", "regularized-product", "--eps", "1e-8",
                      "--ks", "100,200", "--measure", uniform_path,
                      "--format", "json")
        assert res.code == 0
        assert res.json["result"]["status"] == "ok"
        assert res.json["result"]["target"] == pytest.approx(
            uniform_regularized_energy(1.0, 1e-8), abs=1e-6)

    @pytest.mark.parametrize("spec", [
        {"support": [-1e307, 1e307],
         "atoms": [{"location": -1e307, "weight": 0.5},
                   {"location": 1e307, "weight": 0.5}]},
        {"support": [-1e307, 1e307],
         "diffuse": {"kind": "uniform", "mass": 1.0,
                     "params": {"lo": -1e307, "hi": 1e307}}},
    ], ids=["atoms", "uniform"])
    def test_energy_at_extreme_scales(self, tmp_path, spec):
        # (y - z)^2 overflows here; hypot and the segment-pair units do not
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(spec))
        res = run_cli("energy", "--measure", str(path), "--eps", "1",
                      "--format", "json")
        assert res.code == 0
        [row] = res.json["results"][0]["regularized"]
        assert row["status"] == "ok"
        assert math.isfinite(row["value"])
        assert math.isfinite(row["abs_error_estimate"])

    @pytest.mark.parametrize("kind,params", [
        ("uniform", {"lo": 0.0, "hi": 1.0}),
        ("semicircle", {"center": 0.5, "radius": 0.5}),
        ("arcsine", {"lo": 0.0, "hi": 1.0}),
        ("piecewise_linear_cdf",
         {"knots": [[0.0, 0.0], [0.5, 6e-201], [1.0, 1e-200]]}),
    ], ids=["uniform", "semicircle", "arcsine", "piecewise"])
    def test_diffuse_trace_mass(self, tmp_path, kind, params):
        # c = 1e-200 makes c^2 underflow to 0: the self term vanishes and
        # the energy is the atom x diffuse term 2 c U(0.5) alone
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({
            "support": [0.0, 1.0],
            "atoms": [{"location": 0.5, "weight": 1.0}],
            "diffuse": {"kind": kind, "mass": 1e-200, "params": params}}))
        for argv in (("bounds",), ("energy",), ("energy", "--eps", "1"),
                     ("report",), ("series", "offdiag-sum", "--ks", "10,20")):
            res = run_cli(*argv, "--measure", str(path), "--format", "json")
            assert res.code == 0, (argv, res.stderr)
            assert "nan" not in res.stdout
        res = run_cli("energy", "--measure", str(path), "--eps", "1",
                      "--format", "json")
        [result] = res.json["results"]
        offdiag, [regularized] = result["offdiag_energy"], result["regularized"]
        assert offdiag["status"] == regularized["status"] == "ok"
        assert offdiag["components"]["diffuse_diffuse"] == 0.0
        assert regularized["components"]["diffuse_diffuse"] == 0.0
        if kind == "uniform":
            # the mean of log|0.5 - y| and of log((0.5 - y)^2 + 1) over [0, 1]
            assert offdiag["value"] == pytest.approx(
                2e-200 * (math.log(0.5) - 1.0), rel=1e-13)
            assert regularized["value"] == pytest.approx(
                2e-200 * (math.log(1.25) - 2.0 + 4.0 * math.atan(0.5)),
                rel=1e-13)

    def test_far_atoms_lower_microstate(self, tmp_path):
        # fillers b + 3 + j/F used to collapse onto equal floats from
        # b = 1e15 up ("repeats a non-atom value", exit 1)
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "support": [0.0, 1e15],
            "atoms": [{"location": 0.0, "weight": 0.5},
                      {"location": 1e15, "weight": 0.5}]}))
        res = run_cli("microstate", "--kind", "lower", "--k", "400",
                      "--measure", str(path), "--format", "json")
        assert res.code == 0, res.stderr
        body = res.json["result"]
        # 180 copies of the atom at 0, 200 at 1e15, and 20 distinct
        # fillers, whose floats 1e15 + 3 + j/20 round onto fewer values
        # (the spacing is 0.125 there): s_count counts exact entries
        assert body["pair_partition"]["s_count"] == math.comb(180, 2) \
            + math.comb(200, 2)
        eigenvalues = body["eigenvalues"]
        assert len(eigenvalues) == 400
        assert eigenvalues[:380] == [0.0] * 180 + [1e15] * 200
        assert 1 < len(set(eigenvalues[380:])) < 20

    def test_offdiag_sum_at_the_float_range(self, tmp_path):
        # squared gaps overflowed to "inf" values with status "ok"
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "support": [1.0, 8.8e307],
            "atoms": [{"location": 1.0, "weight": 0.5},
                      {"location": 8.8e307, "weight": 0.5}]}))
        res = run_cli("series", "offdiag-sum", "--ks", "100,400",
                      "--measure", str(path), "--format", "json")
        assert res.code == 0, res.stderr
        result = res.json["result"]
        assert result["target"] == pytest.approx(math.log(8.8e307),
                                                 rel=1e-15)
        assert all(math.isfinite(v) for v in result["values"])

    def test_regularized_sums_at_the_float_range(self, tmp_path):
        # squared gaps overflowed to "inf" values with status "ok", and
        # numpy warned on stderr
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "support": [1.0, 1e200],
            "atoms": [{"location": 1.0, "weight": 0.5},
                      {"location": 1e200, "weight": 0.5}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = run_cli("series", "regularized-product", "--eps", "0.1",
                             "--ks", "100", "--measure", str(path),
                             "--format", "json")
            upper = run_cli("microstate", "--kind", "upper", "--k", "400",
                            "--eps", "0.5", "--t", "0.01",
                            "--measure", str(path), "--format", "json")
        assert series.code == upper.code == 0, (series.stderr, upper.stderr)
        # k = 100: 50 copies of each atom, summed over the explicit pairs
        entries = [1.0] * 50 + [1e200] * 50
        oracle = 2.0 * math.fsum(
            2.0 * math.log(y - x) + math.log1p(0.1 / (y - x) / (y - x))
            if y != x else math.log(0.1)
            for i, x in enumerate(entries) for y in entries[i + 1:]) / 100 ** 2
        assert oracle == 459.38875190324205
        assert series.json["result"]["values"] == [
            pytest.approx(oracle, rel=1e-15)]
        assert series.json["result"]["status"] == "ok"
        assert math.isfinite(upper.json["result"]["volume_upper_bound_log"])

    def test_no_solution_is_four(self, uniform_path):
        res = run_cli("microstate", "--measure", uniform_path,
                      "--k", "20", "--kind", "upper",
                      "--eps", "0.5", "--t", "0.2")
        assert res.code == 4
        assert res.stderr.startswith("freeprob: error: no-solution:")

    def test_errors_are_single_lines(self, uniform_path):
        res = run_cli("microstate", "--measure", uniform_path,
                      "--k", "20", "--kind", "upper",
                      "--eps", "0.5", "--t", "0.2")
        assert res.stderr.count("\n") == 1
        assert res.stderr.endswith("\n")


def _uniform(lo, hi, mass=1.0, kind="uniform"):
    return {"kind": kind, "mass": mass, "params": {"lo": lo, "hi": hi}}


def _knots(*knots, mass=1.0):
    return {"kind": "piecewise_linear_cdf", "mass": mass,
            "params": {"knots": [list(k) for k in knots]}}


_HALF = {"location": 0.5, "weight": 0.5}

# One spec per rule of validate(), with the JSON path its problem names
# ("total mass" has no spec key, and its problem no path).
_RULES = {
    "empty_support": ({"support": [1.0, 0.0]}, "support"),
    "support_overflows": ({"support": [-1e308, 1e308],
                           "atoms": [{"location": 0.0, "weight": 1.0}]},
                          "support"),
    "atom_weight": ({"support": [0.0, 1.0],
                     "atoms": [{"location": 0.5, "weight": 1.5}]}, "atoms"),
    "atom_outside": ({"support": [0.0, 1.0],
                      "atoms": [{"location": 2.0, "weight": 1.0}]}, "atoms"),
    "two_atoms_at_one_point": ({"support": [0.0, 1.0],
                                "atoms": [_HALF, _HALF]}, "atoms"),
    "diffuse_mass": ({"support": [0.0, 1.0],
                      "diffuse": _uniform(0.0, 1.0, mass=1.5)},
                     "diffuse.mass"),
    "empty_with_mass": ({"support": [0.0, 1.0], "atoms": [_HALF],
                         "diffuse": {"kind": "empty", "mass": 0.5}},
                        "diffuse.mass"),
    "uniform_width": ({"support": [0.0, 1.0],
                       "diffuse": _uniform(0.5, 0.5)}, "diffuse.params.hi"),
    "arcsine_width": ({"support": [0.0, 1.0],
                       "diffuse": _uniform(1.0, 0.0, kind="arcsine")},
                      "diffuse.params.hi"),
    "semicircle_radius": ({"support": [-1.0, 1.0], "diffuse": {
        "kind": "semicircle", "mass": 1.0,
        "params": {"center": 0.0, "radius": -1.0}}},
        "diffuse.params.radius"),
    "semicircle_below_float_spacing": ({"support": [1.0, 1.0], "diffuse": {
        "kind": "semicircle", "mass": 1.0,
        "params": {"center": 1.0, "radius": 5e-301}}},
        "diffuse.params.radius"),
    "knot_points": ({"support": [0.0, 1.0], "diffuse": _knots(
        (0.0, 0.0), (0.5, 0.3), (0.4, 0.6), (1.0, 1.0))},
        "diffuse.params.knots[2][0]"),
    "knot_masses": ({"support": [0.0, 1.0], "diffuse": _knots(
        (0.0, 0.0), (0.5, 0.6), (0.7, 0.3), (1.0, 1.0))},
        "diffuse.params.knots[2][1]"),
    "first_knot_mass": ({"support": [0.0, 1.0], "diffuse": _knots(
        (0.0, 0.1), (1.0, 1.0))}, "diffuse.params.knots[0][1]"),
    "last_knot_mass": ({"support": [0.0, 1.0], "diffuse": _knots(
        (0.0, 0.0), (0.5, 0.5), (1.0, 0.9))}, "diffuse.params.knots[2][1]"),
    "knot_span": ({"support": [0.0, 1.0], "diffuse": _knots(
        (0.0, 0.0), (5e-324, 0.5), (1e-323, 1.0))}, "diffuse.params.knots"),
    "diffuse_outside": ({"support": [0.0, 1.0],
                         "diffuse": _uniform(0.0, 2.0)}, "diffuse.params"),
    "total_mass": ({"support": [0.0, 1.0],
                    "atoms": [{"location": 0.5, "weight": 0.25}]}, None),
}


class TestSpecRules:
    @pytest.mark.parametrize("name", list(_RULES))
    def test_problem_names_its_json_path(self, tmp_path, name):
        spec, path = _RULES[name]
        head = "total mass " if path is None else f"{path}: "
        [problem, *_] = fp.validate(fp.measure_from_dict(spec)).problems
        assert problem.startswith(head)
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps(spec))
        res = run_cli("dim", "--measure", str(bad))
        assert res.code == 2
        assert res.stderr.startswith(
            f"freeprob: error: measure-spec: {bad}: {head}")
        # validate reports the same problems in its JSON
        res = run_cli("validate", "--measure", str(bad), "--format", "json")
        assert res.code == 2
        [row] = res.json["results"]
        assert row["ok"] is False
        assert row["problems"][0] == problem


class TestKnobDiscipline:
    @pytest.mark.parametrize("argv, says", [
        (("dim", "--measure", "M", "--tol", "1e-6"),
         "unrecognized arguments: --tol 1e-6"),
        (("series", "offdiag-sum", "--ks", "10,20", "--measure", "M",
          "--eps", "0.1"), "unrecognized arguments: --eps 0.1"),
        (("series", "gamma-ratio", "--ks", "10,20", "--measure", "M"),
         "unrecognized arguments: --measure M"),
        (("dim",), "the following arguments are required: --measure"),
        (("series", "regularized-product", "--ks", "10,20", "--measure",
          "M"), "the following arguments are required: --eps"),
        (("microstate", "--kind", "upper", "--measure", "M"),
         "the following arguments are required: --k"),
        (("energy", "--measure", "M", "--format", "csv"),
         "argument --format: invalid choice: 'csv'"),
        (("report", "--measure", "M", "--format", "csv"),
         "argument --format: invalid choice: 'csv'"),
        (("series",), "the following arguments are required: kind"),
        (("series", "--ks", "10,20"), "argument kind: invalid choice"),
        (("series", "gamma-ratio", "--ks", ","),
         "--ks must list at least one k"),
    ], ids=["undeclared-tol", "undeclared-eps", "undeclared-measure",
            "missing-measure", "missing-eps", "missing-k", "energy-csv",
            "report-csv", "series-no-kind", "series-flag-before-kind",
            "empty-ks"])
    def test_argparse_refusals(self, mixed_path, argv, says):
        # each command's parser declares its own flags, so argparse makes
        # these refusals; they keep exit 1 and one usage line
        res = run_cli(*(mixed_path if a == "M" else a for a in argv))
        assert res.code == 1
        assert res.stdout == ""
        assert res.stderr.count("\n") == 1
        assert res.stderr.startswith("freeprob: error: usage:")
        assert says.replace(" M", f" {mixed_path}") in res.stderr

    def test_unknown_flag_rejected(self, mixed_path):
        res = run_cli("dim", "--measure", mixed_path, "--tol", "1e-6")
        assert res.code == 1

    def test_csv_only_for_series_and_microstate(self, mixed_path):
        res = run_cli("energy", "--measure", mixed_path, "--format", "csv")
        assert res.code == 1
        assert "csv" in res.stderr

    def test_microstate_needs_eps_and_t_together(self, uniform_path):
        res = run_cli("microstate", "--measure", uniform_path,
                      "--k", "10", "--kind", "upper", "--eps", "0.5")
        assert res.code == 1

    def test_volume_knobs_rejected_for_lower(self, mixed_path):
        res = run_cli("microstate", "--measure", mixed_path,
                      "--k", "16", "--kind", "lower",
                      "--eps", "0.5", "--t", "0.05")
        assert res.code == 1

    def test_microstate_single_measure_only(self, mixed_path, uniform_path):
        res = run_cli("microstate", "--measure", mixed_path,
                      "--measure", uniform_path, "--k", "16",
                      "--kind", "upper")
        assert res.code == 1

    def test_gamma_ratio_takes_no_measure(self, mixed_path):
        res = run_cli("series", "gamma-ratio", "--ks", "10,20",
                      "--measure", mixed_path)
        assert res.code == 1

    def test_tol_must_be_positive(self, mixed_path):
        # chi on a measure with atoms is -inf without an energy, so the
        # check must not depend on which library path a command takes
        res = run_cli("chi", "--measure", mixed_path, "--tol", "0")
        assert res.code == 1
        assert res.stderr.startswith("freeprob: error: usage:")
        res = run_cli("bounds", "--measure", mixed_path, "--tol", "nan")
        assert res.code == 1
        # --tol inf once ran energy, chi and regularized-product with exit 0
        for argv in (("chi",), ("energy",),
                     ("series", "regularized-product", "--eps", "0.5",
                      "--ks", "10,20")):
            res = run_cli(*argv, "--measure", mixed_path, "--tol", "inf")
            assert res.code == 1, argv
            assert res.stderr == ("freeprob: error: usage: --tol must be "
                                  "positive and finite, got inf\n")
            assert res.stdout == ""

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_t_must_be_finite(self, uniform_path, t):
        # a non-finite --t once reached the volume bound and exited 4
        res = run_cli("microstate", "--measure", uniform_path, "--k", "20",
                      "--kind", "upper", "--eps", "0.5", f"--t={t}")
        assert res.code == 1
        assert res.stderr == (f"freeprob: error: usage: --t must be finite, "
                              f"got {float(t)!r}\n")
        assert res.stdout == ""

    @pytest.mark.parametrize("spec", ["atoms", "arcsine"])
    @pytest.mark.parametrize("argv", [
        ("energy",),
        ("series", "regularized-product", "--ks", "10,20"),
        ("microstate", "--kind", "upper", "--k", "10", "--t", "0.05"),
    ], ids=lambda argv: argv[-1] if len(argv) == 1 else argv[0])
    def test_eps_must_be_finite(self, measure_file, argv, spec):
        # --eps inf once gave "inf" energy components with exit 0 (atoms),
        # or a "nan" series value with status "ok"
        m = (fp.atomic_measure([(0.0, 0.5), (1.0, 0.5)]) if spec == "atoms"
             else fp.arcsine_measure(-1.0, 1.0))
        path = measure_file(m)
        for eps in ("inf", "-inf", "nan", "0"):
            res = run_cli(*argv, f"--eps={eps}", "--measure", path,
                          "--format", "json")
            assert res.code == 1, (eps, res.stderr)
            assert res.stderr.startswith("freeprob: error: usage: --eps must "
                                         "be positive and finite")
            assert res.stdout == ""
        assert run_cli(*argv, "--eps=0.5", "--measure", path).code == 0

    @pytest.mark.parametrize("argv", [
        ("bounds",), ("family-bounds",), ("report",),
        ("series", "offdiag-sum", "--ks", "10,20"),
        ("series", "packing-constant", "--ks", "10,20"),
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_tol_only_where_a_quadrature_runs(self, mixed_path, argv):
        res = run_cli(*argv, "--measure", mixed_path, "--tol", "1e-6")
        assert res.code == 1
        assert res.stderr.startswith("freeprob: error: usage:")
        assert run_cli(*argv, "--measure", mixed_path).code == 0

    def test_tol_kept_on_energy_chi_and_regularized_product(self,
                                                            uniform_path):
        res = run_cli("chi", "--measure", uniform_path, "--tol", "1e-8",
                      "--format", "json")
        assert res.code == 0
        assert res.json["inputs"]["tol"] == 1e-8
        res = run_cli("energy", "--measure", uniform_path, "--eps", "0.5",
                      "--tol", "1e-8", "--format", "json")
        assert res.code == 0
        assert res.json["inputs"]["tol"] == 1e-8
        res = run_cli("series", "regularized-product", "--eps", "0.5",
                      "--ks", "10,20", "--tol", "1e-8",
                      "--measure", uniform_path, "--format", "json")
        assert res.code == 0
        assert res.json["inputs"]["tol"] == 1e-8
        assert run_cli("energy", "--measure", uniform_path,
                       "--tol", "nan").code == 1

    def test_gamma_ratio_takes_no_tol(self):
        res = run_cli("series", "gamma-ratio", "--ks", "10,20",
                      "--tol", "1e-8")
        assert res.code == 1

    def test_regularized_product_needs_eps(self, uniform_path):
        res = run_cli("series", "regularized-product", "--ks", "10,20",
                      "--measure", uniform_path)
        assert res.code == 1

    def test_offdiag_sum_rejects_eps(self, mixed_path):
        res = run_cli("series", "offdiag-sum", "--ks", "10,20",
                      "--measure", mixed_path, "--eps", "0.1")
        assert res.code == 1

    def test_selberg_mc_knobs_capped(self):
        res = run_cli("selberg", "--k", "10", "--samples", "1000")
        assert res.code == 1
        assert run_cli("selberg", "--k", "10").code == 0

    def test_bad_ks_list(self):
        res = run_cli("series", "gamma-ratio", "--ks", "10,abc")
        assert res.code == 1
        res = run_cli("series", "gamma-ratio", "--ks", "20,10")
        assert res.code == 1


class TestJsonOutput:
    def test_deterministic_bytes(self, mixed_path):
        a = run_cli("bounds", "--measure", mixed_path, "--format", "json")
        b = run_cli("bounds", "--measure", mixed_path, "--format", "json")
        assert a.code == b.code == 0
        assert a.stdout == b.stdout

    def test_envelope_shape(self, mixed_path):
        res = run_cli("bounds", "--measure", mixed_path, "--format", "json")
        doc = res.json
        assert doc["tool"]["name"] == "freeprob"
        assert doc["tool"]["version"] == fp.__version__
        assert doc["command"] == "bounds"
        assert doc["inputs"]["measures"] == [mixed_path]

    def test_minus_inf_serialized_as_string(self, m42_path):
        res = run_cli("chi", "--measure", m42_path, "--format", "json")
        assert res.code == 0
        assert res.json["results"][0]["chi"] == "-inf"

    def test_sorted_keys(self, mixed_path):
        res = run_cli("dim", "--measure", mixed_path, "--format", "json")
        top = list(res.json.keys())
        assert top == sorted(top)

    def test_bounds_values_match_library(self, mixed_measure, mixed_path):
        res = run_cli("bounds", "--measure", mixed_path, "--format", "json")
        lib = fp.hausdorff_entropy_bounds(mixed_measure)
        got = res.json["results"][0]
        assert got["lower"] == pytest.approx(lib.lower, rel=1e-12)
        assert got["upper"] == pytest.approx(lib.upper, rel=1e-12)
        assert got["alpha"] == pytest.approx(lib.alpha, rel=1e-15)


class TestCsvOutput:
    def test_series_columns(self, uniform_path):
        res = run_cli("series", "regularized-product", "--ks", "25,50",
                      "--eps", "0.5", "--measure", uniform_path)
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "k,value,target,gap"
        assert len(lines) == 3
        k, value, target, gap = lines[1].split(",")
        assert int(k) == 25
        assert float(value) - float(target) == pytest.approx(float(gap),
                                                             rel=1e-12)

    def test_microstate_one_eigenvalue_per_line(self, mixed_path):
        res = run_cli("microstate", "--measure", mixed_path,
                      "--k", "16", "--kind", "lower")
        values = [float(line) for line in res.stdout.strip().split("\n")]
        assert len(values) == 16
        assert values == sorted(values)
        assert values[:4] == [0.0, 0.0, 0.0, 0.0]

    def test_csv_is_default_for_series(self, uniform_path):
        res = run_cli("series", "gamma-ratio", "--ks", "10,20")
        assert res.stdout.startswith("k,value,target,gap")

    @pytest.mark.parametrize("argv", [
        ("microstate", "--kind", "lower", "--k", "40"),
        ("microstate", "--kind", "upper", "--k", "40"),
        ("microstate", "--kind", "upper", "--k", "40", "--eps", "0.5",
         "--t", "0.05"),
        ("series", "gamma-ratio", "--ks", "10,20,40"),
        ("series", "regularized-product", "--eps", "0.5", "--ks", "10,20,40"),
        ("series", "offdiag-sum", "--ks", "10,20,40"),
        ("series", "packing-constant", "--ks", "10,20,40"),
    ], ids=["lower", "upper", "upper-volume", "gamma-ratio",
            "regularized-product", "offdiag-sum", "packing-constant"])
    def test_rows_are_the_json_numbers(self, mixed_path, tmp_path, argv):
        # the CSV rows are rendered from the same payload as the JSON
        if argv[1] != "gamma-ratio":
            argv += ("--measure", mixed_path)
        csv = run_cli(*argv, "--format", "csv")
        doc = run_cli(*argv, "--format", "json")
        assert csv.code == doc.code == 0, (csv.stderr, doc.stderr)
        result = doc.json["result"]
        rows = csv.stdout.splitlines()
        if argv[0] == "microstate":
            assert [float(row) for row in rows] == result["eigenvalues"]
            assert len(rows) == result["k"]
        else:
            assert rows[0] == "k,value,target,gap"
            target = result["target"]
            assert [row.split(",") for row in rows[1:]] == [
                [str(k), repr(v), repr(target), repr(v - target)]
                for k, v in zip(result["ks"], result["values"])]
        out = tmp_path / "report.csv"
        res = run_cli(*argv, "--format", "csv", "--out", str(out))
        assert (res.code, res.stdout, res.stderr) == (0, "", "")
        assert out.read_text(encoding="utf-8") == csv.stdout


class TestCommandPayloads:
    def test_validate_reports_problems(self, tmp_path):
        bad = tmp_path / "under.json"
        bad.write_text(json.dumps({
            "support": [0.0, 1.0],
            "atoms": [{"location": 0.5, "weight": 0.25}],
        }))
        res = run_cli("validate", "--measure", str(bad), "--format", "json")
        assert res.code == 2
        row = res.json["results"][0]
        assert not row["ok"]
        assert row["problems"]

    def test_energy_sweep_default(self, mixed_path):
        res = run_cli("energy", "--measure", mixed_path, "--format", "json")
        rows = res.json["results"][0]["regularized"]
        assert [r["eps"] for r in rows] == [1.0, 0.1, 0.01]

    def test_energy_regularized_fields(self, mixed_path, mixed_measure):
        res = run_cli("energy", "--measure", mixed_path, "--eps", "0.5",
                      "--format", "json")
        [row] = res.json["results"][0]["regularized"]
        lib = fp.regularized_energy(mixed_measure, 0.5)
        assert row["value"] == lib.value
        assert row["abs_error_estimate"] == lib.abs_error_estimate
        assert row["status"] == "ok"
        assert row["components"]["atom_atom"] == lib.components.atom_atom

    def test_energy_single_eps(self, mixed_path):
        res = run_cli("energy", "--measure", mixed_path, "--eps", "0.5",
                      "--format", "json")
        rows = res.json["results"][0]["regularized"]
        assert [r["eps"] for r in rows] == [0.5]

    def test_chi_matches_library(self, uniform_path, uniform01):
        res = run_cli("chi", "--measure", uniform_path, "--format", "json")
        want = fp.chi(uniform01)
        assert res.json["results"][0]["chi"] == pytest.approx(want,
                                                              rel=1e-10)

    def test_family_bounds_two_measures(self, mixed_path, uniform_path):
        res = run_cli("family-bounds", "--measure", mixed_path,
                      "--measure", uniform_path, "--format", "json")
        body = res.json["result"]
        assert body["n"] == 2
        assert body["lower"] < body["upper"]
        assert len(body["energies"]) == 2

    def test_microstate_counting_payload(self, mixed_path):
        res = run_cli("microstate", "--measure", mixed_path,
                      "--k", "100", "--kind", "lower", "--format", "json")
        body = res.json["result"]
        assert body["counting_bound"]["holds"] is True
        assert body["pair_partition"]["s_count"] >= 1
        assert "packing_constant_log" in body

    def test_microstate_volume_payload(self, uniform_path):
        res = run_cli("microstate", "--measure", uniform_path,
                      "--k", "30", "--kind", "upper",
                      "--eps", "0.5", "--t", "0.05", "--format", "json")
        body = res.json["result"]
        assert math.isfinite(body["volume_upper_bound_log"])
        assert body["zero_count"] == 0

    def test_selberg_payload(self):
        res = run_cli("selberg", "--k", "3", "--samples", "50000",
                      "--format", "json")
        body = res.json["result"]
        assert body["selberg_log"] == pytest.approx(-math.log(360.0),
                                                    abs=1e-12)
        assert abs(body["monte_carlo"]["z_score"]) < 4.0

    def test_selberg_overflowing_eps_is_a_usage_error(self):
        res = run_cli("selberg", "--k", "6", "--eps", "1e10",
                      "--samples", "1000")
        assert res.code == 1
        assert "overflows" in res.stderr and "k = 6" in res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""

    def test_selberg_one_sample_is_a_usage_error(self):
        # one sample has no variance: its z was printed as "inf", exit 0
        res = run_cli("selberg", "--k", "3", "--samples", "1",
                      "--format", "json")
        assert res.code == 1
        assert "at least 2" in res.stderr and res.stdout == ""
        res = run_cli("selberg", "--k", "3", "--samples", "2",
                      "--format", "json")
        assert res.code == 0
        assert math.isfinite(res.json["result"]["monte_carlo"]["z_score"])

    def test_selberg_tiny_eps_keeps_z(self):
        def z(eps):
            res = run_cli("selberg", "--k", "6", "--eps", eps,
                          "--samples", "1000", "--format", "json")
            assert res.code == 0
            return res.json["result"]["monte_carlo"]["z_score"]
        assert z("1e-12") == z("0.5") != 0.0

    def test_selberg_k1(self):
        # one variable: an empty product with no variance and z = 0
        res = run_cli("selberg", "--k", "1", "--format", "json")
        assert res.code == 0
        body = res.json["result"]
        assert (body["selberg_log"], body["product"]) == (0.0, 1.0)
        mc = body["monte_carlo"]
        assert (mc["mc_estimate"], mc["closed_form"], mc["z_score"]) == (
            1.0, 1.0, 0.0)

    def test_selberg_large_k_skips_mc(self):
        res = run_cli("selberg", "--k", "50", "--format", "json")
        assert "monte_carlo" not in res.json["result"]

    def test_selberg_product_that_underflows_is_left_out(self):
        # exp(selberg_log(25)) is about 1e-332, below the smallest normal
        # float; exp(selberg_log(24)) is about 4e-305, above it
        def result(k):
            res = run_cli("selberg", "--k", k, "--format", "json")
            assert res.code == 0
            return res.json["result"]
        above, below = result("24"), result("25")
        assert above["product"] == math.exp(above["selberg_log"]) > 0.0
        assert below["selberg_log"] == fp.selberg_log(25)
        assert "product" not in below

    def test_selberg_mc_values_that_underflow_are_left_out(self):
        # (2e-12)^36 underflows both the closed form and the estimate;
        # z is computed on the unit cube and stays
        res = run_cli("selberg", "--k", "6", "--eps", "1e-12",
                      "--samples", "1000", "--format", "json")
        assert res.code == 0
        mc = res.json["result"]["monte_carlo"]
        assert math.isfinite(mc["z_score"])
        assert "closed_form" not in mc and "mc_estimate" not in mc
        assert res.json["result"]["product"] > 0.0

    def test_report_single_measure(self, uniform_path):
        res = run_cli("report", "--measure", uniform_path)
        doc = res.json  # report defaults to json
        assert res.code == 0
        row = doc["results"][0]
        assert row["chi"] == pytest.approx(0.16893853320467267, abs=1e-5)
        assert "family" not in doc
        assert row["bounds"]["lower"] < row["bounds"]["upper"]

    def test_report_family_section(self, mixed_path, uniform_path):
        res = run_cli("report", "--measure", mixed_path,
                      "--measure", uniform_path)
        doc = res.json
        assert doc["family"]["n"] == 2

    def test_out_writes_file(self, tmp_path, mixed_path):
        out = tmp_path / "report.json"
        res = run_cli("dim", "--measure", mixed_path,
                      "--format", "json", "--out", str(out))
        assert res.code == 0
        assert res.stdout == ""
        doc = json.loads(out.read_text())
        assert doc["results"][0]["alpha"] == pytest.approx(0.75)

    def test_version_flag(self):
        res = run_cli("--version")
        assert res.code == 0
        assert fp.__version__ in res.stdout


def _leaf_parsers(parser, name=()):
    """(command words, parser) of every parser without subcommands."""
    subs = [action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(name), parser
    for action in subs:
        for word, child in action.choices.items():
            yield from _leaf_parsers(child, name + (word,))


def _fields(record, *added):
    return set(record.__slots__) | set(added)


_TRUNCATION = {"truncation_bound", "truncation_note"}


class TestRecordPayloads:
    """Each command's handler is declared with its parser, and a payload
    block that mirrors a record carries exactly the record's fields plus
    the documented additions."""

    def test_every_command_declares_its_handler(self):
        leaves = dict(_leaf_parsers(build_parser()))
        assert set(leaves) == {
            "validate", "energy", "chi", "dim", "bounds", "family-bounds",
            "microstate", "series gamma-ratio", "series regularized-product",
            "series offdiag-sum", "series packing-constant", "selberg",
            "report"}
        for name, parser in leaves.items():
            assert callable(parser.get_default("handler")), name

    def test_validate_energy_and_bounds_rows(self, mixed_path, m42_path):
        [row] = run_cli("validate", "--measure", mixed_path,
                        "--format", "json").json["results"]
        assert set(row) == _fields(fp.ValidationReport, "measure")
        energy = _fields(fp.EnergyResult)
        for path, offdiag in ((mixed_path, energy - _TRUNCATION),
                              (m42_path, energy)):
            [row] = run_cli("energy", "--measure", path,
                            "--format", "json").json["results"]
            assert set(row["offdiag_energy"]) == offdiag
            assert set(row["offdiag_energy"]["components"]) == _fields(
                fp.EnergyComponents)
            for reg in row["regularized"]:
                assert set(reg) == energy - _TRUNCATION | {"eps"}
            [row] = run_cli("bounds", "--measure", path,
                            "--format", "json").json["results"]
            assert set(row) == _fields(fp.EntropyBounds, "measure", "width",
                                       "formulas")
            assert set(row["energy"]) == offdiag

    def test_family_blocks(self, mixed_path, m42_path):
        argv = ("--measure", mixed_path, "--measure", m42_path)
        body = run_cli("family-bounds", *argv,
                       "--format", "json").json["result"]
        assert set(body) == _fields(fp.FamilyBounds, "n", "formulas")
        assert [set(e) for e in body["energies"]] == [
            _fields(fp.EnergyResult, "measure") - _TRUNCATION,
            _fields(fp.EnergyResult, "measure")]
        family = run_cli("report", *argv).json["family"]
        assert set(family) == _fields(fp.FamilyBounds, "n") - {"alphas",
                                                               "energies"}

    @pytest.mark.parametrize("kind, extra", [
        ("offdiag-sum", ("--measure", "M")),
        ("packing-constant", ("--measure", "M")),
        ("regularized-product", ("--eps", "0.1", "--measure", "M")),
        ("gamma-ratio", ())])
    def test_series_result(self, mixed_path, kind, extra):
        extra = (mixed_path if a == "M" else a for a in extra)
        body = run_cli("series", kind, "--ks", "10,20", *extra,
                       "--format", "json").json["result"]
        fields = _fields(fp.SeriesReport, "kind")
        # extras is left out when empty; only offdiag-sum fills it
        assert set(body) == (fields if kind == "offdiag-sum"
                             else fields - {"extras"})

    def test_selberg_monte_carlo(self):
        res = run_cli("selberg", "--k", "3", "--samples", "1000",
                      "--format", "json")
        assert set(res.json["result"]["monte_carlo"]) == set(
            fp.SelbergMonteCarlo._fields) | {"eps", "samples", "seed"}


class TestTextOutput:
    def test_default_text_for_scalar_commands(self, mixed_path):
        res = run_cli("dim", "--measure", mixed_path)
        assert res.code == 0
        assert "alpha: 0.75" in res.stdout
        with pytest.raises(json.JSONDecodeError):
            json.loads(res.stdout)

    def test_long_lists_truncated(self, mixed_path):
        res = run_cli("microstate", "--measure", mixed_path,
                      "--k", "200", "--kind", "lower", "--format", "text")
        assert res.code == 0
        assert "(200 values)" in res.stdout


# ---------------------------------------------------------------------------
# Fuzzed specs: every spec either gives finite results or is rejected.


_SHAPE = ((0.0, 0.0), (0.25, 0.2), (0.6, 0.7), (1.0, 1.0))
_EXTREMES = [0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308,
             1.7976931348623157e308, 5e-324, 2.2250738585072014e-308]
_WIDTHS = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-150, 1.0,
           1e150, 1e300, 1e308, 1.7976931348623157e308]


@st.composite
def fuzz_specs(draw):
    """Measure specs with positions up to +-1e308 and widths from the
    smallest subnormal up to the largest float."""
    lo = draw(st.one_of(st.sampled_from(_EXTREMES),
                        st.floats(-1e308, 1e308, allow_nan=False)))
    width = draw(st.one_of(st.sampled_from(_WIDTHS),
                           st.floats(5e-324, 1.7976931348623157e308)))
    hi = lo + width  # may round back onto lo, or overflow
    kind = draw(st.sampled_from(["uniform", "arcsine", "semicircle",
                                 "piecewise_linear_cdf", "empty"]))
    n_atoms = draw(st.integers(0 if kind != "empty" else 1, 2))
    weights = [draw(st.integers(1, 16)) / 64.0 for _ in range(n_atoms)]
    mass = 1.0 - math.fsum(weights)
    if n_atoms and kind != "empty" and draw(st.booleans()):
        # the atoms carry the unit mass and the diffuse part a trace
        # whose square underflows
        weights[-1] += mass
        mass = draw(st.sampled_from([1e-200, 1e-320, 5e-324]))
    fractions = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
                              min_size=n_atoms, max_size=n_atoms,
                              unique=True))
    atoms = [{"location": lo + f * (hi - lo), "weight": w}
             for f, w in zip(fractions, weights)]
    if kind == "empty":
        atoms[-1]["weight"] += mass
        diffuse = None
    elif kind == "semicircle":
        diffuse = {"center": lo + 0.5 * width, "radius": 0.5 * width}
    elif kind == "piecewise_linear_cdf":
        diffuse = {"knots": [[lo + x * width, mass * c] for x, c in _SHAPE]}
    else:
        diffuse = {"lo": lo, "hi": hi}
    spec = {"support": [lo, hi], "atoms": atoms}
    if diffuse is not None:
        spec["diffuse"] = {"kind": kind, "mass": mass, "params": diffuse}
    return spec


_BY_DESIGN = ("requires at least one atom", "too small",
              "too narrow for its location at this k")


class TestSpecFuzz:
    @given(spec=fuzz_specs())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_exit_zero_without_nan_or_exit_two(self, tmp_path_factory,
                                               spec):
        path = str(tmp_path_factory.getbasetemp() / "fuzz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)  # writes Infinity when hi overflowed
        valid = run_cli("validate", "--measure", path)
        assert valid.code in (0, 2)
        for argv in (("dim",), ("chi",), ("bounds",), ("report",),
                     ("energy",), ("family-bounds", "--measure", path)):
            res = run_cli(*argv, "--measure", path, "--format", "json")
            if res.code == 0:
                assert valid.code == 0
                assert "nan" not in res.stdout
                assert res.stderr == ""
            else:
                assert res.code == 2
                assert res.stderr.count("\n") == 1
                head = f"freeprob: error: measure-spec: {path}: "
                assert res.stderr.startswith(head)
                # a JSON path of the spec, or the total mass (no path)
                rest = res.stderr[len(head):]
                if not rest.startswith("total mass "):
                    _resolve(spec, rest.split(": ")[0])


    @given(spec=fuzz_specs())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_microstate_and_series_finite_or_refused(self, tmp_path_factory,
                                                     spec):
        path = str(tmp_path_factory.getbasetemp() / "fuzz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        valid = run_cli("validate", "--measure", path)
        for argv in (("microstate", "--kind", "lower", "--k", "400"),
                     ("series", "offdiag-sum", "--ks", "100,400"),
                     ("series", "packing-constant", "--ks", "100,400"),
                     ("series", "regularized-product", "--eps", "0.1",
                      "--ks", "100,400"),
                     ("microstate", "--kind", "upper", "--k", "400",
                      "--eps", "0.5", "--t", "0.01")):
            res = run_cli(*argv, "--measure", path, "--format", "json")
            if res.code == 0:
                assert valid.code == 0
                assert list(_nonfinite(res.json["result"])) == [], argv
            elif res.code == 1:
                # by design: the separated microstate needs an atom heavy
                # enough to shed floor(sqrt(k)) copies, and no microstate
                # takes quantiles that round onto each other as one value
                assert valid.code == 0
                assert any(m in res.stderr for m in _BY_DESIGN), \
                    (argv, res.stderr)
            else:
                assert res.code == 2, (argv, res.stderr)
                assert valid.code == 2


def test_arcsine_narrow_for_its_location_is_refused(tmp_path):
    # validates, but at k = 400 two quantiles near 2^38 + 1 are equal floats
    lo, hi = 2.0 ** 38, 2.0 ** 38 + 1.0
    spec = {"support": [lo, hi], "atoms": [],
            "diffuse": {"kind": "arcsine", "mass": 1.0,
                        "params": {"lo": lo, "hi": hi}}}
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(spec))
    assert run_cli("validate", "--measure", str(path)).code == 0
    for argv in (("series", "regularized-product", "--eps", "0.1",
                  "--ks", "100,400"),
                 ("microstate", "--kind", "upper", "--k", "400",
                  "--eps", "0.5", "--t", "0.01")):
        res = run_cli(*argv, "--measure", str(path), "--format", "json")
        assert res.code == 1, argv
        assert res.stdout == ""
        assert "too narrow for its location at this k" in res.stderr


def _resolve(spec, path):
    """The value at a JSON path such as ``diffuse.params.knots[2][0]``."""
    node = spec
    for key, index in re.findall(r"([^.\[\]]+)|\[(\d+)\]", path):
        node = node[int(index)] if index else node[key]
    return node


def _nonfinite(obj, path=""):
    """JSON paths of "nan", "inf" and "-inf" values in a CLI payload."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _nonfinite(val, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _nonfinite(val, f"{path}[{i}]")
    elif obj in ("nan", "inf", "-inf"):
        yield path


# ---------------------------------------------------------------------------
# The benchmark's command lines (perfbench/workloads.py, read, not edited).


class TestBenchmarkContract:
    def test_every_job_parses(self):
        workloads = perfbench_module("workloads")
        names = workloads.make_specs(1)
        paths = {name: f"{name}.json" for name in names}
        for workload in workloads.WORKLOADS:
            for job in workloads.jobs_for(workload):
                ns = parse_args(job.resolve(paths))
                assert ns.command == job.argv[0], job.id
