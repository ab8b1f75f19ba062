"""Every benchmark job's exit code, stdout and stderr, as JSON lines.

Usage, from the root of the repository:

    python3 tools/job_outputs.py --seeds 1,2,3 > new.jsonl
    python3 tools/job_outputs.py --src ../old/src --seeds 1,2,3 > old.jsonl
    diff old.jsonl new.jsonl
    python3 tools/job_outputs.py --seeds 1,2,3 --against old.jsonl

Each job of every workload of ``perfbench/workloads.py`` runs
in-process through ``freeprob.cli.main`` at each seed, with that seed's
measure specs written to a temporary directory.  The jobs run from
inside that directory and name their specs by file name, so no
temporary path reaches the output and two source trees give equal lines
wherever their programs agree.  Each line is one JSON object
with the keys ``id`` (``<workload>:<job id>:seed<n>``), ``code``,
``stdout`` and ``stderr``.  The perfbench modules are imported only.

With ``--against OLD.jsonl`` the lines are compared with those of OLD
instead of printed: for each job whose line differs, whether its exit
code and stderr match, then each JSON value of its stdout that moved,
with its path, old and new value and, for a number, the absolute and
the relative change.  The exit status is then 1 when some job differs, as diff's is.
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


def _records(src: str, seeds: list[int]):
    """Each job's line, as a dict, at each seed."""
    sys.path.insert(0, os.path.abspath(src))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    workloads = importlib.import_module("workloads")
    cli = importlib.import_module("freeprob.cli")
    here = os.getcwd()
    for seed in seeds:
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
                        yield {"id": f"{name}:{job.id}:seed{seed}",
                               "code": code, "stdout": out.getvalue(),
                               "stderr": err.getvalue()}
            finally:
                os.chdir(here)


def _moves(old, new, path: str = "$"):
    """(path, old, new) of each JSON value that differs between two
    documents; an object or list whose keys or length differ is one."""
    if (isinstance(old, dict) and isinstance(new, dict)
            and old.keys() == new.keys()):
        for key in old:
            yield from _moves(old[key], new[key], f"{path}.{key}")
    elif (isinstance(old, list) and isinstance(new, list)
            and len(old) == len(new)):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _moves(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _against(old_path: str, records) -> int:
    """Print how ``records`` differ from the lines of ``old_path``."""
    with open(old_path) as fh:
        old = {line["id"]: line for line in map(json.loads, fh)}
    total = differ = 0
    for line in records:
        total += 1
        was = old.pop(line["id"], None)
        if was == line:
            continue
        differ += 1
        if was is None:
            print(f"{line['id']}: not in {old_path}")
            continue
        code = ("same" if was["code"] == line["code"]
                else f"{was['code']} -> {line['code']}")
        stderr = "same" if was["stderr"] == line["stderr"] else "differs"
        print(f"{line['id']}: exit code {code}, stderr {stderr}")
        try:
            moves = list(_moves(json.loads(was["stdout"]),
                                json.loads(line["stdout"])))
        except ValueError:
            print("  stdout differs and is not JSON on both sides")
            continue
        for path, a, b in moves:
            change = ""
            if _is_number(a) and _is_number(b):
                rel = f"{(b - a) / abs(a):+.3g} relative" if a else "from 0"
                change = f" ({b - a:+.3g} absolute, {rel})"
            print(f"  {path}: {a!r} -> {b!r}{change}")
    for ident in old:
        differ += 1
        print(f"{ident}: only in {old_path}")
    print(f"{differ} of {total + len(old)} jobs differ")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the source tree whose freeprob runs the jobs "
                             "(default: this repository's src)")
    parser.add_argument("--seeds", type=_seeds, default=[1, 2, 3],
                        help="comma-separated seeds (default: 1,2,3)")
    parser.add_argument("--against", metavar="OLD.jsonl",
                        help="compare with the lines of an earlier run and "
                             "print the moved values instead of the lines")
    ns = parser.parse_args(argv)
    records = _records(ns.src, ns.seeds)
    if ns.against:
        return _against(ns.against, records)
    for line in records:
        print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
