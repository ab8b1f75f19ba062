"""The benchmark's correctness gate, in-process.

Every job of ``perfbench/workloads.py`` runs at seeds 1, 2 and 3 through
``freeprob.cli.main``, and ``perfbench/oracle.py`` checks its exit code
and output, as the benchmark does before it reports a run as correct.
"""

import pytest

from conftest import perfbench_module, run_cli

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
