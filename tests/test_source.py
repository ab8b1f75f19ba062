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
    print(json.dumps([argv, code, "numpy" in sys.modules,
                      "dataclasses" in sys.modules, "numbers" in sys.modules]))
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
    assert all(code == 0 for _, code, _, _, _ in rows)
    assert [argv for argv, _, loaded, _, _ in rows if loaded] == argvs[-1:]
    # numpy imports numbers itself; no closed-form command needs it
    assert [argv for argv, _, loaded, _, numbers in rows
            if numbers and not loaded] == []


def _imported_names(tree):
    """(module name, inside ``if TYPE_CHECKING:``) of every import."""
    guarded = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            guarded.update(id(n) for stmt in node.body
                           for n in ast.walk(stmt))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield name.split(".")[0], id(node) in guarded


def test_no_dataclasses_and_typing_only_for_type_checkers():
    # Importing dataclasses and building frozen classes cost more than
    # the rest of a closed-form command's import; typing is for
    # annotations, which are never evaluated
    found = [f"{path.name}: {name}"
             for path in SOURCES
             for name, guarded in _imported_names(
                 ast.parse(path.read_text(), str(path)))
             if name == "dataclasses" or (name == "typing" and not guarded)]
    assert found == []


def test_atom_only_microstates_do_not_import_numpy(tmp_path):
    atomic = tmp_path / "atomic.json"
    mixed = tmp_path / "mixed.json"
    uniform = tmp_path / "uniform.json"
    atom_uniform = tmp_path / "atom_uniform.json"
    fp.dump_measure(fp.atomic_measure([(0.0, 0.5), (0.4, 0.25),
                                       (1.0, 0.25)]), str(atomic))
    fp.dump_measure(fp.SpectralMeasure(
        support=(-2.0, 3.0), atoms=(fp.Atom(2.5, 0.5),),
        diffuse=fp.DiffusePart("semicircle", 0.5,
                               {"center": 0.0, "radius": 2.0})), str(mixed))
    fp.dump_measure(fp.uniform_measure(-0.5, 1.5), str(uniform))
    fp.dump_measure(fp.SpectralMeasure(
        support=(-0.5, 1.5), atoms=(fp.Atom(0.3, 0.4),),
        diffuse=fp.DiffusePart("uniform", 0.6, {"lo": -0.5, "hi": 1.5})),
        str(atom_uniform))
    atom_only = [["microstate", "--kind", "lower", "--k", "400",
                  "--measure", str(atomic), "--format", "json"],
                 ["series", "offdiag-sum", "--ks", "100,400",
                  "--measure", str(atomic)],
                 ["series", "packing-constant", "--ks", "100,400",
                  "--measure", str(atomic)]]
    # a uniform part's quantiles are a grid with closed-form pair sums
    uniform_part = [["microstate", "--kind", "lower", "--k", "400",
                     "--measure", str(atom_uniform), "--format", "json"],
                    ["series", "offdiag-sum", "--ks", "100,400",
                     "--measure", str(atom_uniform)],
                    ["series", "packing-constant", "--ks", "100,400",
                     "--measure", str(atom_uniform)],
                    ["series", "regularized-product", "--eps", "0.1",
                     "--ks", "10,400", "--measure", str(uniform)],
                    ["microstate", "--kind", "upper", "--k", "400", "--eps",
                     "0.5", "--t", "0.05", "--measure", str(uniform)]]
    # then every command that loads numpy, to probe dataclasses
    argvs = atom_only + uniform_part + [
        ["microstate", "--kind", "lower", "--k", "100", "--measure",
         str(mixed)],
        ["microstate", "--kind", "upper", "--k", "50", "--eps", "0.5",
         "--t", "0.05", "--measure", str(mixed)],
        ["series", "regularized-product", "--eps", "0.1", "--ks", "10,20",
         "--measure", str(mixed)],
        ["selberg", "--k", "3", "--samples", "1000"],
        ["report", "--measure", str(mixed), "--measure", str(atomic)]]
    rows = [json.loads(line)
            for line in _fresh_python(_RUN_COMMANDS,
                                      json.dumps(argvs)).splitlines()]
    assert [row[0] for row in rows] == argvs
    assert [code for _, code, _, _, _ in rows] == [0] * len(argvs)
    assert [loaded for _, _, loaded, _, _ in rows[:8]] == [False] * 8
    assert rows[8][2]  # the probe sees numpy once a semicircle is sampled
    assert [argv for argv, _, _, dc, _ in rows if dc] == []


def test_arcsine_upper_microstates_do_not_import_numpy(tmp_path):
    # an arcsine part with c k an integer n has Chebyshev-Lobatto levels,
    # whose regularized pair sums are closed-form row products
    arcsine = tmp_path / "arcsine.json"
    atom_arcsine = tmp_path / "atom_arcsine.json"
    fp.dump_measure(fp.arcsine_measure(-0.7, 1.3), str(arcsine))
    fp.dump_measure(fp.SpectralMeasure(
        support=(-0.4, 2.5), atoms=(fp.Atom(0.9, 0.25), fp.Atom(2.5, 0.15)),
        diffuse=fp.DiffusePart("arcsine", 0.6, {"lo": -0.4, "hi": 1.6})),
        str(atom_arcsine))
    argvs = []
    for spec in (arcsine, atom_arcsine):
        argvs += [["microstate", "--kind", "upper", "--k", "400", "--eps",
                   "0.5", "--t", "0.05", "--measure", str(spec)],
                  ["series", "regularized-product", "--eps", "0.1", "--ks",
                   "10,400", "--measure", str(spec)]]
    # c k = 240.6 is no integer: the kernel sums the pairs
    argvs.append(["microstate", "--kind", "upper", "--k", "401", "--eps",
                  "0.5", "--t", "0.05", "--measure", str(atom_arcsine)])
    rows = [json.loads(line)
            for line in _fresh_python(_RUN_COMMANDS,
                                      json.dumps(argvs)).splitlines()]
    assert [row[0] for row in rows] == argvs
    assert [(code, loaded) for _, code, loaded, _, _ in rows] == \
        [(0, False)] * 4 + [(0, True)]


_MANY_ATOMS = [(0.0, 0.5)] + [(i / 1100, 0.5 / 1099) for i in range(1, 1100)]


def test_atom_only_upper_microstates_do_not_import_numpy(tmp_path):
    # an atom-only upper microstate has no quantiles to build, and sums its
    # pairs in math as its lower twin does
    three_atoms = tmp_path / "three_atoms.json"
    example42 = tmp_path / "example42.json"
    many = tmp_path / "many.json"
    fp.dump_measure(fp.atomic_measure([(-0.7, 0.4375), (0.3, 0.3125),
                                       (1.1, 0.25)]), str(three_atoms))
    fp.dump_measure(fp.example42_measure(), str(example42))
    fp.dump_measure(fp.atomic_measure(_MANY_ATOMS), str(many))
    upper = ["microstate", "--kind", "upper"]
    argvs = [upper + ["--k", "400", "--measure", str(three_atoms)],
             upper + ["--k", "400", "--eps", "0.5", "--t", "0.05",
                      "--measure", str(three_atoms)],
             ["series", "regularized-product", "--eps", "0.1", "--ks",
              "100,400", "--measure", str(example42)],
             # 1100 values, about 6.0e5 log terms: the kernel sums them
             upper + ["--k", "5000", "--eps", "0.5", "--t", "0.05",
                      "--measure", str(many)]]
    rows = [json.loads(line)
            for line in _fresh_python(_RUN_COMMANDS,
                                      json.dumps(argvs)).splitlines()]
    assert [row[0] for row in rows] == argvs
    assert [(code, loaded) for _, code, loaded, _, _ in rows] == \
        [(0, False)] * 3 + [(0, True)]


def test_atom_only_pair_sums_load_numpy_past_the_math_threshold(tmp_path):
    # 1100 atoms: at k = 1000 only the heaviest is live and math sums the
    # pairs; at k = 5000 about 6.2e5 log terms go to the numpy kernel
    spec = tmp_path / "many.json"
    fp.dump_measure(fp.atomic_measure(_MANY_ATOMS), str(spec))
    argvs = [["series", "offdiag-sum", "--ks", str(k), "--measure", str(spec)]
             for k in (1000, 5000)]
    rows = [json.loads(line)
            for line in _fresh_python(_RUN_COMMANDS,
                                      json.dumps(argvs)).splitlines()]
    assert [(code, loaded) for _, code, loaded, _, _ in rows] == [(0, False),
                                                               (0, True)]


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


def test_init_reexports_module_all_lists():
    # Each public name is declared once, in its module's __all__; the
    # package imports only ``*`` from its modules (and _quad for the tracer)
    path = Path(fp.__file__)
    named = [f"{node.module}: {alias.name}"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom)
             for alias in node.names
             if alias.name not in ("*", "_quad")]
    assert named == []


def test_package_all_resolves_to_defining_modules():
    modules = [fp.asymptotics, fp.energy, fp.entropy, fp.measures,
               fp.microstates]
    assert len(fp.__all__) == len(set(fp.__all__))
    assert fp.__all__[0] == "__version__"
    owners = {name: module for module in modules for name in module.__all__}
    assert sorted(owners) == sorted(fp.__all__[1:])
    assert [name for name, module in owners.items()
            if getattr(fp, name) is not getattr(module, name)] == []


# Public writers and constructors that a library caller reaches without
# a command or the quick start.
_KEPT_ENTRY_POINTS = {"uniform_measure", "arcsine_measure", "atomic_measure",
                      "example42_measure", "dump_measure"}


def _identifiers(node):
    """Every name and attribute identifier under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_function_is_reached():
    # A public function stays only while another function of the package
    # calls it, the README's library quick start uses it, or it is a kept
    # constructor or writer; code that only tests reach goes.
    used = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                used |= _identifiers(node) - {node.name}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    quick_start = readme.split("## Library quick start", 1)[1]
    code = quick_start.split("```python\n", 1)[1].split("```", 1)[0]
    used |= _identifiers(ast.parse(code))
    functions = [name for name in fp.__all__
                 if callable(getattr(fp, name))
                 and not isinstance(getattr(fp, name), type)]
    assert functions
    assert [name for name in functions
            if name not in used | _KEPT_ENTRY_POINTS] == []


def _units(tree):
    """(name, identifiers) of each module-level statement of ``tree``, a
    class's methods and the rest of its body apart; name is the function,
    class or method that a unit defines, else None."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            yield getattr(stmt, "name", None), _identifiers(stmt)
            continue
        methods = [node for node in stmt.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        yield from ((node.name, _identifiers(node)) for node in methods)
        rest = [*stmt.bases, *stmt.keywords, *stmt.decorator_list,
                *(node for node in stmt.body if node not in methods)]
        yield stmt.name, set().union(*map(_identifiers, rest))


def test_every_private_helper_is_reached():
    # The private twin of the gate above: a module-level function or class,
    # or a method, whose name has one leading underscore stays only while
    # another function, class body or module-level statement names it.
    units = [unit for path in SOURCES
             for unit in _units(ast.parse(path.read_text(), str(path)))]
    private = [(i, name) for i, (name, _) in enumerate(units)
               if name and name.startswith("_") and not name.startswith("__")]
    assert private
    assert [name for i, name in private
            if not any(name in ids for j, (_, ids) in enumerate(units)
                       if j != i)] == []


_CLI = "import sys; from freeprob.cli import main; sys.exit(main(sys.argv[1:]))"


def test_atom_only_pair_sums_match_the_cli_bit_for_bit(tmp_path):
    # This process has numpy loaded and a fresh CLI process does not; the
    # atom-only pair sum must take the same path in both
    assert "numpy" in sys.modules
    m = fp.atomic_measure([(-0.7, 0.4375), (0.3, 0.3125), (1.1, 0.25)])
    spec = tmp_path / "three_atoms.json"
    fp.dump_measure(m, str(spec))
    ks = tuple(range(500, 5001, 500))
    out = json.loads(_fresh_python(
        _CLI, "series", "offdiag-sum", "--ks", ",".join(map(str, ks)),
        "--measure", str(spec), "--format", "json"))
    assert out["result"]["values"] == list(fp.offdiag_sum_series(m, ks).values)
