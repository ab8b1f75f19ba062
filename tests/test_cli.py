"""Command-line interface: exit codes, formats, knob discipline."""

import json
import math

import pytest

import freeprob as fp
from conftest import run_cli


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


class TestKnobDiscipline:
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

    def test_selberg_large_k_skips_mc(self):
        res = run_cli("selberg", "--k", "50", "--format", "json")
        assert "monte_carlo" not in res.json["result"]

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
