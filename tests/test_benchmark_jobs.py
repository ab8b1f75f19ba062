"""The benchmark's correctness gate, in-process.

Every job of ``perfbench/workloads.py`` runs at seeds 1, 2 and 3 through
``freeprob.cli.main``, and ``perfbench/oracle.py`` checks its exit code
and output, as the benchmark does before it reports a run as correct.
The uniform and arcsine jobs of series-distinct must also sum their
grids in O(1), so that a slide back to the O(n) arcsine rows, or a
uniform near field at the benchmark's eps, fails a test.
"""

import pytest

from conftest import perfbench_module, run_cli
from freeprob import _kernels, microstates

workloads = perfbench_module("workloads")
oracle = perfbench_module("oracle")


@pytest.fixture(scope="module", params=[1, 2, 3], ids="seed{}".format)
def inputs(request, tmp_path_factory):
    specs = workloads.make_specs(request.param)
    paths = workloads.write_specs(specs, str(tmp_path_factory.mktemp("specs")))
    return specs, paths


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_job_passes_the_oracle(inputs, workload):
    specs, paths = inputs
    failed = {}
    for job in workloads.jobs_for(workload):
        res = run_cli(*job.resolve(paths))
        reason = oracle.check(job, specs, res.code, res.stdout)
        if reason is not None:
            failed[job.id] = reason
    assert failed == {}


GRID_JOBS = ("series-regularized-product:uniform",
             "series-regularized-product:arcsine",
             "microstate-upper:uniform", "microstate-upper:arcsine")


def test_grid_jobs_take_the_smooth_sums(inputs, monkeypatch):
    """The uniform and arcsine jobs of series-distinct sum their grids in
    O(1): ``_pair_log_sum`` calls no O(n) arcsine row and renders no grid
    float, so a uniform grid's near field is empty, and each sum is within
    1e-14 of the numpy kernel's over the microstate's floats in
    ``2|Δ|/k^2``."""
    specs, paths = inputs
    pair_log_sum, sums = microstates._pair_log_sum, []

    def refuse(*args):
        raise AssertionError("an O(n) grid sum was taken")

    def smooth_only(ms, eps=0.0):
        with pytest.MonkeyPatch.context() as inner:
            for name in ("_arcsine_rows", "_grid_values"):
                inner.setattr(microstates, name, refuse)
            value = pair_log_sum(ms, eps)
        sums.append((ms, eps, value))
        return value

    monkeypatch.setattr(microstates, "_pair_log_sum", smooth_only)
    jobs = [job for job in workloads.jobs_for("series-distinct")
            if job.id in GRID_JOBS]
    assert len(jobs) == len(GRID_JOBS)
    for job in jobs:
        res = run_cli(*job.resolve(paths))
        assert oracle.check(job, specs, res.code, res.stdout) is None, job.id
    assert len(sums) == 2 * len(workloads.KS) + 2
    for ms, eps, value in sums:
        assert ms.grid is not None
        want = _kernels.pair_log_reg_sum(ms.values, eps, ms.counts)
        assert 2.0 * abs(value - want) / ms.k ** 2 <= 1e-14, (ms.k, eps)
