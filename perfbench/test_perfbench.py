"""Tests of the benchmark itself (not of freeprob).

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 11


def _contract() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _job(job_id: str) -> workloads.Job:
    for name in workloads.WORKLOADS:
        for job in workloads.jobs_for(name):
            if job.id == job_id:
                return job
    raise KeyError(job_id)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    specs = workloads.make_specs(SEED)
    paths = workloads.write_specs(specs, str(tmp_path_factory.mktemp("specs")))
    return specs, paths


def _run_in_process(job: workloads.Job, paths: dict) -> tuple[int, str]:
    from freeprob import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(job.resolve(paths))
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Metric names match BENCHMARK.json.


def test_end_to_end_metric_names_match_contract():
    jobs = workloads.jobs_for("series-distinct")[:2]
    results = [run.JobResult(job, 0, 0.5 + i, 70.0, "") for i, job in
               enumerate(jobs)]
    metrics, _ = run.end_to_end_metrics([0.2, 0.3, 0.25], results, jobs)
    for m in _contract()["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] != 0


def test_per_layer_metric_names_match_contract():
    names = set(tracing.layer_metrics([], tracing.Counter()))
    names |= {"cli.import_s", "trace.overhead_s"}
    contract = _contract()["per_layer"]
    assert names == {m["name"] for m in contract}
    for m in contract:
        assert run._unit(m["name"]) == m["unit"]


def test_contract_shape():
    contract = _contract()
    names = {w["name"] for w in contract["workloads"]}
    assert names == set(workloads.WORKLOADS)
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in contract["end_to_end"])


# ---------------------------------------------------------------------------
# Each oracle accepts the program's output and rejects a perturbed value.

PERTURB = [
    ("energy:uniform", ("results", 0, "offdiag_energy", "value")),
    ("energy:atom_uniform", ("results", 0, "regularized", 2, "value")),
    ("chi:arcsine", ("results", 0, "chi")),
    ("bounds:atom_uniform", ("results", 0, "lower")),
    ("report:piecewise", ("results", 0, "h1_identity")),
    ("family-bounds:uniform", ("result", "upper")),
    ("series-offdiag-sum:three_atoms", ("result", "values", 3)),
    ("series-packing-constant:example42", ("result", "values", 9)),
    ("series-packing-constant:atom_uniform", ("result", "target")),
    ("series-regularized-product:uniform", ("result", "values", 0)),
    ("series-gamma-ratio", ("result", "values", 4)),
    ("microstate-lower:three_atoms", ("result", "packing_constant_log")),
    ("microstate-lower:atom_uniform", ("result", "eigenvalues", 1000)),
    ("microstate-upper:uniform", ("result", "eigenvalues", 2500)),
    ("microstate-upper:arcsine", ("result", "volume_upper_bound_log")),
    ("selberg:k=4", ("result", "monte_carlo", "z_score")),
    ("selberg:k=5", ("result", "selberg_log")),
]


def _bump(value):
    if isinstance(value, str):
        return 0.0  # "-inf" becomes finite
    return value + max(1e-4, 1e-6 * abs(value))


@pytest.mark.parametrize("job_id,path", PERTURB, ids=[p[0] for p in PERTURB])
def test_oracle_rejects_perturbed_value(inputs, job_id, path):
    specs, paths = inputs
    job = _job(job_id)
    code, stdout = _run_in_process(job, paths)
    assert oracle.check(job, specs, code, stdout) is None
    out = json.loads(stdout)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = (2.0 * oracle.MC_Z_BOUND if path[-1] == "z_score"
                      else _bump(node[path[-1]]))
    reason = oracle.check(job, specs, code, json.dumps(out))
    assert reason is not None


def test_oracle_rejects_wrong_exit_code(inputs):
    specs, paths = inputs
    job = _job("validate:negative_radius")
    code, stdout = _run_in_process(job, paths)
    assert code == 2 and oracle.check(job, specs, code, stdout) is None
    assert oracle.check(job, specs, 0, stdout) is not None


def test_closed_forms_against_classical_values():
    unit_semicircle = {"support": [-2.0, 2.0], "diffuse": {
        "kind": "semicircle", "mass": 1.0,
        "params": {"center": 0.0, "radius": 2.0}}}
    assert oracle.offdiag_energy(unit_semicircle) == pytest.approx(-0.25,
                                                                   abs=1e-15)
    uniform = {"support": [0.0, 1.0], "diffuse": {
        "kind": "uniform", "mass": 1.0, "params": {"lo": 0.0, "hi": 1.0}}}
    assert oracle.offdiag_energy(uniform) == pytest.approx(-1.5, abs=1e-15)
    as_piecewise = {"support": [0.0, 1.0], "diffuse": {
        "kind": "piecewise_linear_cdf", "mass": 1.0,
        "params": {"knots": [[0.0, 0.0], [0.4, 0.4], [1.0, 1.0]]}}}
    assert oracle.offdiag_energy(as_piecewise) == pytest.approx(-1.5,
                                                                abs=1e-14)
    # as eps -> 0 the regularized energy of an atomless measure tends to 2E
    for spec in (unit_semicircle, uniform):
        assert oracle.regularized_energy(spec, 1e-8) == pytest.approx(
            2.0 * oracle.offdiag_energy(spec), abs=1e-3)
    assert oracle.selberg_log(2) == pytest.approx(math.log(1.0 / 6.0),
                                                  abs=1e-14)


# ---------------------------------------------------------------------------
# Spans form a well-formed tree.


def test_span_tree_is_well_formed(inputs):
    _, paths = inputs
    import freeprob.cli as cli
    import freeprob.measures as measures

    original = measures.semicircle_quantile_unit
    with tracing.Tracer() as tracer:
        for job_id in ("bounds:semicircle_atom", "microstate-upper:semicircle",
                       "series-offdiag-sum:three_atoms"):
            tracer.job = job_id
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(_job(job_id).resolve(paths)) == 0
    assert measures.semicircle_quantile_unit is original

    spans = tracer.spans
    names = {s.name for s in spans}
    assert {"cli.main", "quad.adaptive_quad_1d", "integrand",
            "kernels.semicircle_quantile_unit", "kernels.pair_log_sq_skip",
            "microstates.build_upper_microstate"} <= names
    for i, s in enumerate(spans):
        assert s.start <= s.end
        if s.parent < 0:
            assert s.name == "cli.main"
            continue
        parent = spans[s.parent]
        assert s.parent < i
        assert parent.start <= s.start and s.end <= parent.end
        assert parent.job == s.job
    assert all(t >= 0.0 for t in tracing.self_times(spans))
    layers = tracing.layer_metrics(spans, tracer.counts)
    assert layers["quad.calls"] > 0 and layers["quad.waves"] > 0
    assert layers["kernels.pair_terms"] > 0
    assert 0.0 < layers["kernels.pair_distinct_ratio"] < 1.0


# ---------------------------------------------------------------------------
# Spec generation is deterministic per seed.


def _shape(obj):
    """The spec with every seeded number replaced by its type."""
    if isinstance(obj, dict):
        return {k: _shape(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_shape(v) for v in obj]
    return type(obj).__name__


def test_specs_are_deterministic_per_seed(tmp_path):
    a = workloads.write_specs(workloads.make_specs(SEED), str(tmp_path / "a"))
    b = workloads.write_specs(workloads.make_specs(SEED), str(tmp_path / "b"))
    for name in a:
        with open(a[name], "rb") as fa, open(b[name], "rb") as fb:
            assert fa.read() == fb.read()
    other = workloads.make_specs(SEED + 1)
    assert other != workloads.make_specs(SEED)
    assert _shape(other) == _shape(workloads.make_specs(SEED))
    assert other["example42"] == workloads.make_specs(SEED)["example42"]


def test_failing_known_defects_keep_results_correct():
    job = _job("validate:nan_knot")
    other = _job("validate:negative_radius")
    ok = run.JobResult(other, 2, 0.1, 1.0, "")
    bad = run.JobResult(job, 0, 0.1, 1.0, "")
    bad.failure = "exit code 0, expected 2"
    correct, failed, failing = run.summary([ok, bad])
    assert correct and failed == 1 and failing[0]["job"] == job.id
    ok.failure = "exit code 0, expected 2"
    correct, failed, _ = run.summary([ok, bad])
    assert not correct and failed == 2

