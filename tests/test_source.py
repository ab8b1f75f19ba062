"""Structural checks on the package source."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import freeprob as fp

SOURCES = sorted(Path(fp.__file__).parent.glob("*.py"))
TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def test_no_assert_statements():
    # python -O strips assert statements, so invariants must raise real
    # exceptions instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []


def _fresh_python(script: str, *args: str) -> str:
    """Run ``script`` in a new interpreter that imports this freeprob."""
    env = dict(os.environ)
    src = str(Path(fp.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


_RUN_COMMANDS = """
import contextlib, io, json, sys
from freeprob.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # --version
            code = exc.code
    print(json.dumps([argv, code, "numpy" in sys.modules]))
"""


def test_closed_form_commands_do_not_import_numpy(tmp_path):
    atomic = tmp_path / "atomic.json"
    mixed = tmp_path / "mixed.json"
    fp.dump_measure(fp.atomic_measure([(0.0, 0.25), (1.0, 0.75)]), str(atomic))
    fp.dump_measure(fp.SpectralMeasure(
        support=(-2.0, 3.0), atoms=(fp.Atom(2.5, 0.25),),
        diffuse=fp.DiffusePart("semicircle", 0.75,
                               {"center": 0.0, "radius": 2.0})), str(mixed))
    closed_form = [["--version"], ["series", "gamma-ratio", "--ks", "10,100"],
                   ["selberg", "--k", "8"]]  # k > 6 runs no Monte Carlo
    for spec in (str(atomic), str(mixed)):
        for command in ("validate", "dim", "chi", "bounds", "report",
                        "energy"):
            closed_form.append([command, "--measure", spec])
        closed_form.append(["energy", "--measure", spec, "--eps", "1e-8"])
    for command in ("family-bounds", "report"):
        closed_form.append([command, "--measure", str(atomic),
                            "--measure", str(mixed)])
    # A microstate is a numpy array: this shows that the probe sees an
    # import when there is one.
    argvs = closed_form + [["microstate", "--k", "10", "--kind", "upper",
                            "--measure", str(mixed)]]
    rows = [json.loads(line)
            for line in _fresh_python(_RUN_COMMANDS,
                                      json.dumps(argvs)).splitlines()]
    assert [row[0] for row in rows] == argvs
    assert all(code == 0 for _, code, _ in rows)
    assert [argv for argv, _, loaded in rows if loaded] == argvs[-1:]


_RESOLVE_TARGETS = """
import json, sys
import freeprob.cli
missing = []
for mod, attrs in json.loads(sys.argv[1]).items():
    home = sys.modules.get("freeprob." + mod)
    if home is None:
        missing.append(mod)
        continue
    for attr in attrs:
        obj = home
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(mod + "." + attr)
print(json.dumps(missing))
"""


def test_tracer_targets_resolve_after_cli_import():
    # perfbench/tracing.py patches TARGETS through sys.modules once
    # freeprob.cli is imported, so every module must load eagerly and
    # every named function must exist.
    tree = ast.parse(TRACING.read_text(), str(TRACING))
    [targets] = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TARGETS"
                         for t in node.targets)]
    assert targets
    assert json.loads(_fresh_python(_RESOLVE_TARGETS,
                                    json.dumps(targets))) == []
