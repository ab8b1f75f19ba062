"""Every benchmark job's exit code, stdout and stderr, as JSON lines.

Usage, from the root of the repository:

    python3 tools/job_outputs.py --seeds 1,2,3 > new.jsonl
    python3 tools/job_outputs.py --src ../old/src --seeds 1,2,3 > old.jsonl
    diff old.jsonl new.jsonl

Each job of every workload of ``perfbench/workloads.py`` runs
in-process through ``freeprob.cli.main`` at each seed, with that seed's
measure specs written to a temporary directory.  The jobs run from
inside that directory and name their specs by file name, so no
temporary path reaches the output and two source trees give equal lines
wherever their programs agree.  Each line is one JSON object
with the keys ``id`` (``<workload>:<job id>:seed<n>``), ``code``,
``stdout`` and ``stderr``.  The perfbench modules are imported only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the source tree whose freeprob runs the jobs "
                             "(default: this repository's src)")
    parser.add_argument("--seeds", type=_seeds, default=[1, 2, 3],
                        help="comma-separated seeds (default: 1,2,3)")
    ns = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(ns.src))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    workloads = importlib.import_module("workloads")
    cli = importlib.import_module("freeprob.cli")
    here = os.getcwd()
    for seed in ns.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            paths = workloads.write_specs(workloads.make_specs(seed), tmp)
            names_only = {key: os.path.basename(p) for key, p in paths.items()}
            os.chdir(tmp)
            try:
                for name in sorted(workloads.WORKLOADS):
                    for job in workloads.jobs_for(name):
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), \
                                contextlib.redirect_stderr(err):
                            code = cli.main(job.resolve(names_only))
                        line = {"id": f"{name}:{job.id}:seed{seed}",
                                "code": code, "stdout": out.getvalue(),
                                "stderr": err.getvalue()}
                        print(json.dumps(line, sort_keys=True))
            finally:
                os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
