"""End-to-end and per-layer benchmark of the ``freeprob`` command line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload energy-quad --seed 1 --seconds 10 --trace 0

A run writes the seeded measure specs, then runs the workload's CLI jobs
one at a time (a closed loop with one client), each as a subprocess of
this interpreter with ``src`` on its path, in as many whole passes as
are expected to end within ``--seconds`` (at least one).  Every job's exit code and JSON output are
checked against the independent references in ``oracle.py``.

With ``--trace 1`` the same jobs run in-process through
``freeprob.cli.main`` instead: one untraced pass, then one pass with the
span wrappers of ``tracing.py`` installed.  The spans are written as JSON
lines under ``.perfbench_out/`` and reduced to per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the full report (environment, per-metric sample counts, per-job
times and every failing job with its reason).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import oracle
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
JOB_TIMEOUT_S = 150.0


@dataclass
class JobResult:
    """One execution of a job; ``failure`` is set by ``check_all``."""

    job: workloads.Job
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    failure: str | None = None


def child_env() -> dict[str, str]:
    """This process's environment without FREEPROB_* knobs, with src on
    the path, so that children measure the package defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FREEPROB_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str], env: dict[str, str], workdir: str,
              timeout: float = JOB_TIMEOUT_S) -> tuple[int, float, float, str]:
    """Run ``python args`` to completion; (exit code, wall s, max RSS MB,
    stdout).  Output goes through files so a large report cannot block
    the child while this process waits in ``os.wait4``."""
    out_path = os.path.join(workdir, "child.out")
    with open(out_path, "w+b") as out, \
            open(os.path.join(workdir, "child.err"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stderr=err, env=env, cwd=workdir)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout


def setup(seed: int, workdir: str, env: dict[str, str]) -> tuple[dict, dict, float]:
    """Write the seeded specs and warm ``__pycache__`` with one untimed
    ``--version``; returns (specs, spec paths, seconds taken)."""
    start = time.perf_counter()
    specs = workloads.make_specs(seed)
    paths = workloads.write_specs(specs, os.path.join(workdir, "specs"))
    code, *_ = run_child(["-m", "freeprob", "--version"], env, workdir)
    if code != 0:
        raise SystemExit(f"perfbench: `python -m freeprob --version` "
                         f"exited {code}")
    return specs, paths, time.perf_counter() - start


def check_all(results: list[JobResult], specs: dict) -> None:
    """Fill in each result's failure; identical outputs are checked once."""
    seen: dict[tuple[str, int, str], str | None] = {}
    for r in results:
        key = (r.job.id, r.code, r.stdout)
        if key not in seen:
            seen[key] = oracle.check(r.job, specs, r.code, r.stdout)
        r.failure = seen[key]


def summary(results: list[JobResult]) -> tuple[bool, int, list[dict]]:
    """(correct, failed count, failing jobs).  ``correct`` is false only
    for failures that are not known defects."""
    failing: dict[str, dict] = {}
    failed = 0
    for r in results:
        if r.failure is None:
            continue
        failed += 1
        entry = failing.setdefault(r.job.id, {
            "job": r.job.id, "runs": 0, "reason": r.failure,
            "known_defect": r.job.known_defect})
        entry["runs"] += 1
    correct = all(f["known_defect"] is not None for f in failing.values())
    return correct, failed, list(failing.values())


def environment(seed: int, env: dict[str, str], workdir: str) -> dict:
    code, _, _, backend = run_child(
        ["-c", "from freeprob import _kernels; print(_kernels.backend())"],
        env, workdir)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # checkouts may have none
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, check=False).stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": backend.strip() if code == 0 else None,
        "git_commit": commit,
        "seed": seed,
    }


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


# ---------------------------------------------------------------------------
# End-to-end run: subprocess per job, tracing off.


def end_to_end_metrics(setups: list[float], results: list[JobResult],
                       jobs: list[workloads.Job]) -> tuple[dict, dict]:
    """The end-to-end metrics of checked results, and a per-job table.

    A job's time is its median over the passes; ``wall_s`` sums them,
    ``job_p50_s`` is the median over jobs.
    """
    per_job = {job.id: statistics.median(r.wall_s for r in results
                                         if r.job.id == job.id)
               for job in jobs}
    failed = sum(r.failure is not None for r in results)
    n = len(results)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "wall_s": metric(sum(per_job.values()), "s", n),
        "job_p50_s": metric(statistics.median(per_job.values()), "s",
                            len(per_job)),
        "ok_ratio": metric(1.0 - failed / n, "1", n),
        "failed_ratio": metric(failed / n, "1", n),
        "peak_rss_mb": metric(max(r.rss_mb for r in results), "MB", n),
    }
    table = {jid: {"median_wall_s": t,
                   "runs": sum(r.job.id == jid for r in results)}
             for jid, t in per_job.items()}
    return metrics, table


def run_end_to_end(workload: str, seed: int, seconds: float, workdir: str,
                   env: dict[str, str]) -> tuple[dict, list[JobResult], dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        specs, paths, took = setup(seed, workdir, env)
        setups.append(took)
    jobs = workloads.jobs_for(workload)
    # Whole passes, as many as are expected to end within `seconds`, and
    # at least one: a workload whose pass is longer than the run measures
    # one pass instead of two.
    start = time.perf_counter()
    results: list[JobResult] = []
    passes = 0
    while True:
        for job in jobs:
            code, wall, rss, stdout = run_child(
                ["-m", "freeprob", *job.resolve(paths)], env, workdir)
            results.append(JobResult(job, code, wall, rss, stdout))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    check_all(results, specs)
    metrics, jobs_table = end_to_end_metrics(setups, results, jobs)
    return metrics, results, {"jobs": jobs_table}


# ---------------------------------------------------------------------------
# Traced run: in-process through freeprob.cli.main.


def import_time(env: dict[str, str], workdir: str) -> float:
    """Median of ``import freeprob.cli`` minus median of ``pass``."""
    imports, bare = [], []
    for _ in range(IMPORT_REPEATS):
        imports.append(run_child(["-c", "import freeprob.cli"], env,
                                 workdir)[1])
        bare.append(run_child(["-c", "pass"], env, workdir)[1])
    return statistics.median(imports) - statistics.median(bare)


def run_in_process(cli, jobs, paths, tracer=None) -> tuple[float, list[JobResult]]:
    results = []
    start = time.perf_counter()
    for job in jobs:
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            if tracer is not None:
                tracer.job = job.id
            code = cli.main(job.resolve(paths))
        results.append(JobResult(job, code, time.perf_counter() - t0, 0.0,
                                 stdout.getvalue()))
    return time.perf_counter() - start, results


def run_traced(workload: str, seed: int, workdir: str, env: dict[str, str],
               tag: str) -> tuple[dict, list[JobResult], dict]:
    import tracing

    specs, paths, _ = setup(seed, workdir, env)
    import_s = import_time(env, workdir)
    for key in [k for k in os.environ if k.startswith("FREEPROB_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    import freeprob.cli as cli

    jobs = workloads.jobs_for(workload)
    plain_s, plain = run_in_process(cli, jobs, paths)
    with tracing.Tracer() as tracer:
        traced_s, traced = run_in_process(cli, jobs, paths, tracer)
    results = plain + traced
    check_all(results, specs)
    spans_path = os.path.join(OUT, f"spans-{tag}.jsonl")
    tracer.write_jsonl(spans_path)
    layers = tracing.layer_metrics(tracer.spans, tracer.counts)
    layers["cli.import_s"] = import_s
    layers["trace.overhead_s"] = traced_s - plain_s
    metrics = {name: metric(value, _unit(name), _samples(name, tracer, jobs))
               for name, value in sorted(layers.items())}
    jobs_table = {p.job.id: {"untraced_s": p.wall_s, "traced_s": t.wall_s}
                  for p, t in zip(plain, traced)}
    extra = {"spans": os.path.relpath(spans_path, ROOT),
             "span_count": len(tracer.spans),
             "untraced_pass_s": plain_s, "traced_pass_s": traced_s,
             "jobs": jobs_table}
    return metrics, results, extra


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def _samples(name: str, tracer, jobs) -> int:
    if name == "cli.import_s":
        return IMPORT_REPEATS
    if name == "trace.overhead_s":
        return 2 * len(jobs)
    return len(tracer.spans)


# ---------------------------------------------------------------------------


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "freeprob", "cli.py")):
        print(f"perfbench: no freeprob sources under {SRC}", file=sys.stderr)
        return 2
    contract = load_contract()
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in contract[section]]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, tag)
    os.makedirs(workdir, exist_ok=True)
    env = child_env()
    if args.trace:
        metrics, results, extra = run_traced(args.workload, args.seed,
                                             workdir, env, tag)
    else:
        metrics, results, extra = run_end_to_end(
            args.workload, args.seed, args.seconds, workdir, env)
    correct, failed, failing = summary(results)
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(args.seed, env, workdir),
        "metrics": metrics,
        "failures": failing,
        **extra,
    }
    with open(os.path.join(OUT, f"report-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
