"""Seeded inputs of the benchmark: measure specs and the CLI job lists.

The seed sets only affine parameters (centres, radii, intervals) and atom
locations and weights.  Every k, ks and tolerance is fixed, so the length
of a run does not depend on the seed.  Scales and weights vary within
narrow bands: the regularized quadrature's work grows with the radius
against sqrt(eps), and the diffuse tolerance with the atom weight, so
wide bands would make run time a property of the seed.  Positions vary
freely.  The program under test receives only the spec files written
from these dicts.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

KS = tuple(range(500, 5001, 500))
K_MICRO = 5000
REG_EPS = 0.1
VOL_EPS, VOL_T = 0.5, 0.05
TIGHT_TOL = 1e-8
SELBERG_KS = (4, 5, 6)

DIFFUSE_FAMILIES = ("uniform", "arcsine", "semicircle", "piecewise",
                    "semicircle_atom", "atom_uniform")
ATOM_FAMILIES = ("example42", "three_atoms", "atom_uniform",
                 "semicircle_atom")
PIECEWISE_SHAPE = ((0.0, 0.0), (0.25, 0.2), (0.6, 0.7), (1.0, 1.0))
MILLION = 1_000_000


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what a correct run of it returns.

    ``argv`` names specs by key; ``resolve`` turns them into file paths.
    ``known_defect`` marks a job that fails at the seed commit for a
    reason recorded in ROADMAP; it still counts as failed while it fails.
    """

    id: str
    argv: tuple[str, ...]
    expect_code: int = 0
    known_defect: str | None = None

    def resolve(self, spec_paths: dict[str, str]) -> list[str]:
        out = list(self.argv)
        for i, arg in enumerate(out[:-1]):
            if arg == "--measure":
                out[i + 1] = spec_paths[out[i + 1]]
        return out

    def measures(self) -> list[str]:
        return [self.argv[i + 1] for i, a in enumerate(self.argv[:-1])
                if a == "--measure"]


def _num(x: float) -> float:
    return round(x, 6)


def _diffuse(kind: str, mass: float, params: dict) -> dict:
    return {"kind": kind, "mass": mass, "params": params}


def make_specs(seed: int) -> dict[str, dict]:
    """Every measure spec of every workload, as JSON-ready dicts."""
    rng = random.Random(seed)

    def u(a: float, b: float) -> float:
        return _num(rng.uniform(a, b))

    def interval() -> tuple[float, float]:
        lo = u(-2.0, 1.0)
        return lo, _num(lo + u(1.8, 2.2))

    specs: dict[str, dict] = {}
    lo, hi = interval()
    specs["uniform"] = {"support": [lo, hi],
                        "diffuse": _diffuse("uniform", 1.0,
                                            {"lo": lo, "hi": hi})}
    lo, hi = interval()
    specs["arcsine"] = {"support": [lo, hi],
                        "diffuse": _diffuse("arcsine", 1.0,
                                            {"lo": lo, "hi": hi})}
    c, r = u(-2.0, 2.0), u(0.95, 1.05)
    specs["semicircle"] = {"support": [_num(c - r), _num(c + r)],
                           "diffuse": _diffuse("semicircle", 1.0,
                                               {"center": c, "radius": r})}
    lo, hi = interval()
    knots = [[_num(lo + (hi - lo) * x), m] for x, m in PIECEWISE_SHAPE]
    knots[-1][0] = hi
    specs["piecewise"] = {"support": [lo, hi],
                          "diffuse": _diffuse("piecewise_linear_cdf", 1.0,
                                              {"knots": knots})}

    c, r = u(-2.0, 2.0), u(0.95, 1.05)
    w = rng.randint(280_000, 320_000)
    specs["semicircle_atom"] = {
        "support": [_num(c - r), _num(c + r)],
        "atoms": [{"location": _num(c + r * rng.uniform(-0.8, 0.8)),
                   "weight": w / MILLION}],
        "diffuse": _diffuse("semicircle", (MILLION - w) / MILLION,
                            {"center": c, "radius": r}),
    }
    lo, hi = interval()
    w = rng.randint(380_000, 420_000)
    specs["atom_uniform"] = {
        "support": [lo, hi],
        "atoms": [{"location": _num(lo + (hi - lo) * rng.uniform(0.2, 0.8)),
                   "weight": w / MILLION}],
        "diffuse": _diffuse("uniform", (MILLION - w) / MILLION,
                            {"lo": lo, "hi": hi}),
    }
    lo, hi = interval()
    locs = sorted(_num(lo + (hi - lo) * x)
                  for x in (rng.uniform(0.0, 0.3), rng.uniform(0.35, 0.65),
                            rng.uniform(0.7, 1.0)))
    w1 = rng.randint(350_000, 550_000)
    w2 = rng.randint(150_000, 300_000)
    weights = [w1, w2, MILLION - w1 - w2]
    rng.shuffle(weights)
    specs["three_atoms"] = {
        "support": [min(lo, locs[0]), max(hi, locs[-1])],
        "atoms": [{"location": x, "weight": m / MILLION}
                  for x, m in zip(locs, weights)],
    }
    specs["example42"] = {"support": [0.0, 1.0],
                          "atom_family": {"name": "example42", "tol": 1e-10}}

    # Invalid specs: the first should be rejected with exit 2 and is not
    # at the seed commit; the second is rejected correctly.
    nan_knot = json.loads(json.dumps(specs["piecewise"]))
    nan_knot["diffuse"]["params"]["knots"][1][0] = float("nan")
    specs["nan_knot"] = nan_knot
    bad = json.loads(json.dumps(specs["semicircle"]))
    bad["diffuse"]["params"]["radius"] = -bad["diffuse"]["params"]["radius"]
    specs["negative_radius"] = bad
    return specs


def write_specs(specs: dict[str, dict], directory: str) -> dict[str, str]:
    """Write each spec as ``<name>.json``; returns name -> absolute path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, spec in specs.items():
        path = os.path.abspath(os.path.join(directory, f"{name}.json"))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh, sort_keys=True)
        paths[name] = path
    return paths


def _ks() -> str:
    return ",".join(str(k) for k in KS)


def _energy_quad() -> list[Job]:
    jobs = [Job(f"{cmd}:{fam}", (cmd, "--measure", fam, "--format", "json"))
            for fam in DIFFUSE_FAMILIES
            for cmd in ("energy", "chi", "bounds", "report", "family-bounds")]
    jobs.append(Job(
        "chi:semicircle:tol=1e-8",
        ("chi", "--measure", "semicircle", "--tol", str(TIGHT_TOL),
         "--format", "json"),
        known_defect="2-D quadrature exhausts its cell budget: exit 3, "
                     "not_converged (ROADMAP item 2)"))
    jobs.append(Job("validate:nan_knot",
                    ("validate", "--measure", "nan_knot", "--format", "json"),
                    expect_code=2,
                    known_defect="a NaN knot passes validation with exit 0 "
                                 "(ROADMAP item 3)"))
    jobs.append(Job("energy:nan_knot",
                    ("energy", "--measure", "nan_knot", "--format", "json"),
                    expect_code=2,
                    known_defect="a NaN knot reaches the quadrature and "
                                 "exits 3 (ROADMAP item 3)"))
    jobs.append(Job("validate:negative_radius",
                    ("validate", "--measure", "negative_radius",
                     "--format", "json"),
                    expect_code=2))
    return jobs


def _series_atoms() -> list[Job]:
    jobs = []
    for fam in ATOM_FAMILIES:
        for kind in ("packing-constant", "offdiag-sum"):
            jobs.append(Job(f"series-{kind}:{fam}",
                            ("series", kind, "--measure", fam, "--ks", _ks(),
                             "--format", "json")))
        jobs.append(Job(f"microstate-lower:{fam}",
                        ("microstate", "--kind", "lower", "--k", str(K_MICRO),
                         "--measure", fam, "--format", "json")))
    return jobs


def _series_distinct() -> list[Job]:
    jobs = [Job(f"series-regularized-product:{fam}",
                ("series", "regularized-product", "--eps", str(REG_EPS),
                 "--measure", fam, "--ks", _ks(), "--format", "json"))
            for fam in ("uniform", "arcsine")]
    jobs += [Job(f"microstate-upper:{fam}",
                 ("microstate", "--kind", "upper", "--k", str(K_MICRO),
                  "--eps", str(VOL_EPS), "--t", str(VOL_T),
                  "--measure", fam, "--format", "json"))
             for fam in ("uniform", "arcsine", "semicircle")]
    jobs += [Job(f"selberg:k={k}", ("selberg", "--k", str(k),
                                    "--format", "json"))
             for k in SELBERG_KS]
    jobs.append(Job("series-gamma-ratio",
                    ("series", "gamma-ratio", "--ks", _ks(),
                     "--format", "json")))
    return jobs


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "energy-quad": _energy_quad,
    "series-atoms": _series_atoms,
    "series-distinct": _series_distinct,
}


def jobs_for(workload: str) -> list[Job]:
    return WORKLOADS[workload]()
