"""Spectral measures: atomic + diffuse decompositions on a compact interval.

A measure is ``mu = sigma + nu`` with ``sigma`` a finite list of weighted
atoms and ``nu`` a diffuse part drawn from a closed family (uniform,
semicircle, arcsine, piecewise-linear CDF, or empty), all supported in a
declared interval [a, b].  Total mass is 1; when an infinite atom family
is truncated the unrepresented tail mass is carried explicitly so
downstream consumers can bound its effect instead of silently
renormalizing.

Quantiles follow the rightmost-preimage convention: the quantile at
level u is the largest point x in [a, b] with nu([a, x]) <= u, so flat
CDF stretches resolve to their right endpoint.
"""

from __future__ import annotations

import json
import math
import sys

from ._kernels import semicircle_quantile_unit
from ._record import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Iterable

__all__ = [
    "Atom",
    "DiffusePart",
    "SpectralMeasure",
    "ValidationReport",
    "MeasureSpecError",
    "validate",
    "diffuse_quantile_batch",
    "measure_from_dict",
    "measure_to_dict",
    "load_measure",
    "dump_measure",
    "uniform_measure",
    "arcsine_measure",
    "semicircle_measure",
    "atomic_measure",
    "example42_measure",
]

# The param names of each diffuse kind, the width's end last; the spec
# parser reads them, and validate() cites the last for a too narrow part.
_PARAMS = {"empty": (), "uniform": ("lo", "hi"),
           "semicircle": ("center", "radius"), "arcsine": ("lo", "hi"),
           "piecewise_linear_cdf": ("knots",)}
_DIFFUSE_KINDS = tuple(_PARAMS)
_MASS_TOL = 1e-12
# Narrower diffuse parts would have subnormal widths, with fewer than 53
# significant bits to place their quantiles and knots.
_MIN_WIDTH = sys.float_info.min


def _int_part(x: float) -> int:
    """Mathematical floor of a real-valued product like c*k.

    Plain ``math.floor`` misreads products such as 0.3 * 10 (stored as
    2.9999999999999996); values within 1e-9 of an integer snap to it.
    """
    r = round(x)
    if abs(x - r) < 1e-9:
        return int(r)
    return int(math.floor(x))


class MeasureSpecError(ValueError):
    """Invalid measure specification; ``path`` cites the offending key."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.reason = message
        super().__init__(f"{path}: {message}")


class Atom(Record):
    """A point mass: ``weight`` at ``location``."""

    __slots__ = ("location", "weight")


class DiffusePart(Record):
    """The diffuse component of a measure.

    ``mass`` is its total measure (0 for kind "empty"); ``params`` holds
    the kind-specific shape parameters:

    * uniform / arcsine: ``{"lo": a, "hi": b}``
    * semicircle: ``{"center": c, "radius": r}``
    * piecewise_linear_cdf: ``{"knots": [[x0, 0.0], ..., [xn, mass]]}``
      with both coordinates strictly increasing
    * empty: ``{}``
    """

    __slots__ = ("kind", "mass", "params")
    _defaults = {"mass": 0.0, "params": dict}

    # -- structure ----------------------------------------------------------

    def interval(self) -> tuple[float, float] | None:
        """Support interval of the diffuse part, or None when empty."""
        if self.kind == "empty":
            return None
        if self.kind in ("uniform", "arcsine"):
            return float(self.params["lo"]), float(self.params["hi"])
        if self.kind == "semicircle":
            c = float(self.params["center"])
            r = float(self.params["radius"])
            return c - r, c + r
        if self.kind == "piecewise_linear_cdf":
            knots = self.params["knots"]
            return float(knots[0][0]), float(knots[-1][0])
        raise ValueError(f"unknown diffuse kind {self.kind!r}")

    def _knot_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np
        knots = self.params["knots"]
        xs = np.array([float(p[0]) for p in knots])
        cs = np.array([float(p[1]) for p in knots])
        return xs, cs

    # -- quantiles ----------------------------------------------------------

    def quantile_unit(self, p):
        """Quantile at normalized probabilities ``p`` in [0, 1].

        Vectorized; rightmost-preimage convention (relevant only at the
        exact knot levels of a piecewise CDF, where strict monotonicity
        already makes the preimage unique).
        """
        import numpy as np
        p = np.asarray(p, dtype=float)
        scalar = p.ndim == 0
        p = np.atleast_1d(p)
        if self.kind == "empty":
            raise ValueError("empty diffuse part has no quantiles")
        if self.kind in ("uniform", "arcsine"):
            out = np.reshape(_unit_quantiles(self.kind, *self.interval(),
                                             p.ravel().tolist()), p.shape)
        elif self.kind == "semicircle":
            c = float(self.params["center"])
            r = float(self.params["radius"])
            out = c + r * semicircle_quantile_unit(p)
        elif self.kind == "piecewise_linear_cdf":
            # x0 + t (x1 - x0) on the knot segment [x0, x1], t in [0, 1]:
            # no product can overflow, where the slope (x1 - x0) / (c1 - c0)
            # that np.interp forms can.
            xs, cs = self._knot_arrays()
            u = p * self.mass
            j = np.clip(np.searchsorted(cs, u, side="right") - 1, 0,
                        xs.size - 2)
            t = np.clip((u - cs[j]) / (cs[j + 1] - cs[j]), 0.0, 1.0)
            out = xs[j] + t * (xs[j + 1] - xs[j])
        else:
            raise ValueError(f"unknown diffuse kind {self.kind!r}")
        return float(out[0]) if scalar else out

    def quantile_unit_derivative(self, p):
        """d(quantile_unit)/dp, vectorized; infinite at arcsine endpoints."""
        import numpy as np
        p = np.asarray(p, dtype=float)
        scalar = p.ndim == 0
        p = np.atleast_1d(p)
        if self.kind == "uniform":
            lo, hi = self.interval()
            out = np.full(p.shape, hi - lo)
        elif self.kind == "arcsine":
            lo, hi = self.interval()
            out = 0.5 * math.pi * (hi - lo) * np.sin(math.pi * p)
        elif self.kind == "semicircle":
            r = float(self.params["radius"])
            z = semicircle_quantile_unit(p)
            out = 0.5 * math.pi * r / np.sqrt(np.maximum(1e-300, 1.0 - z * z))
        elif self.kind == "piecewise_linear_cdf":
            xs, cs = self._knot_arrays()
            seg = np.clip(np.searchsorted(cs, p * self.mass, side="right") - 1,
                          0, len(xs) - 2)
            slopes = (xs[1:] - xs[:-1]) / (cs[1:] - cs[:-1]) * self.mass
            out = slopes[seg]
        else:
            raise ValueError(f"no quantile derivative for kind {self.kind!r}")
        return float(out[0]) if scalar else out


def _unit_quantiles(kind: str, lo: float, hi: float, ps) -> list[float]:
    """Quantiles at each p of ``ps`` of a uniform or arcsine part on
    [lo, hi]: lo + (hi - lo) p, or lo + (hi - lo) sin(pi p / 2)^2."""
    if kind == "uniform":
        return [lo + (hi - lo) * p for p in ps]
    return [lo + (hi - lo) * s * s
            for s in map(math.sin, [0.5 * math.pi * p for p in ps])]


_EMPTY_DIFFUSE = DiffusePart(kind="empty", mass=0.0)


class SpectralMeasure(Record):
    """A probability measure on [a, b]: atoms + diffuse part (+ tail note).

    ``family`` records a named infinite atom family the explicit atoms
    were expanded from (with the expansion tolerance ``family_tol``);
    ``truncated_tail`` is mass not represented by any atom, placed at the
    family's accumulation point ``truncated_tail_location`` for the
    regularized energy and the truncation bound.
    """

    __slots__ = ("support", "atoms", "diffuse", "family", "family_tol",
                 "truncated_tail", "truncated_tail_location")
    _defaults = {"atoms": (), "diffuse": _EMPTY_DIFFUSE, "family": None,
                 "family_tol": None, "truncated_tail": 0.0,
                 "truncated_tail_location": None}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "support",
                           (float(self.support[0]), float(self.support[1])))
        atoms = tuple(sorted((Atom(float(a.location), float(a.weight))
                              for a in self.atoms),
                             key=lambda a: a.location))
        object.__setattr__(self, "atoms", atoms)

    @property
    def atom_mass(self) -> float:
        return math.fsum(a.weight for a in self.atoms)

    def atoms_by_weight(self) -> tuple[Atom, ...]:
        """Atoms in decreasing-weight order (ties broken by location)."""
        return tuple(sorted(self.atoms, key=lambda a: (-a.weight, a.location)))


class ValidationReport(Record):
    __slots__ = ("ok", "problems", "total_mass", "mass_defect", "tail_mass")


def validate(measure: SpectralMeasure) -> ValidationReport:
    """Check every rule of a measure; report-style (never raises).

    Shape and type are the spec parser's: the measure's spec is parsed
    again, and a fault there is the one problem besides the total mass.
    The rules live here alone.  Each problem reads ``path: message``,
    with the JSON path of the spec key it names.  Atoms are sorted by
    location when the measure is built, so their problems cite ``atoms``
    and name the location; the truncated tail and the total mass have no
    spec key, and their problems no path.
    """
    try:
        measure_from_dict(_spec_dict(measure))
    except MeasureSpecError as exc:
        problems = [str(exc)]
    else:
        problems = _rule_problems(measure)
    total = measure.atom_mass + measure.diffuse.mass + measure.truncated_tail
    defect = total - 1.0
    if abs(defect) > _MASS_TOL:
        problems.append(f"total mass {total!r} differs from 1 by {defect:.3e}")
    return ValidationReport(ok=not problems, problems=tuple(problems),
                            total_mass=total, mass_defect=defect,
                            tail_mass=measure.truncated_tail)


def _rule_problems(measure: SpectralMeasure) -> list[str]:
    """``validate``'s rules, on a measure of valid shape and types."""
    problems: list[str] = []

    def problem(path: str, message: str) -> None:
        problems.append(f"{path}: {message}")

    a, b = measure.support
    if a > b:
        problem("support", f"interval is empty: [{a}, {b}]")
    elif math.isinf(b - a):
        # every distance between two points of the support must be finite
        problem("support", f"width b - a overflows: [{a}, {b}]")
    seen: set[float] = set()
    for atom in measure.atoms:
        x, w = atom.location, atom.weight
        if not 0.0 < w <= 1.0:
            problem("atoms", f"atom at {x} has weight {w!r} outside (0, 1]")
        if not a <= x <= b:
            problem("atoms", f"atom at {x} lies outside the support "
                             f"[{a}, {b}]")
        if x in seen:
            problem("atoms", f"two atoms at {x}")
        seen.add(x)

    d, params = measure.diffuse, measure.diffuse.params
    if not 0.0 <= d.mass <= 1.0:
        problem("diffuse.mass", f"{d.mass!r} outside [0, 1]")
    if (d.kind == "empty") != (d.mass == 0.0):
        problem("diffuse.mass", "must be 0 exactly when the kind is 'empty'")
    before = len(problems)
    if d.kind == "piecewise_linear_cdf":
        path = "diffuse.params.knots"
        xs, cs = zip(*params["knots"])
        for j, col, name in ((0, xs, "points"), (1, cs, "cumulative masses")):
            i = next((i for i in range(1, len(col)) if col[i] <= col[i - 1]),
                     0)
            if i:
                problem(f"{path}[{i}][{j}]",
                        f"knot {name} must be strictly increasing")
        if abs(cs[0]) > _MASS_TOL:
            problem(f"{path}[0][1]", f"first cumulative mass must be 0, "
                                     f"got {cs[0]!r}")
        if abs(cs[-1] - d.mass) > _MASS_TOL:
            problem(f"{path}[{len(cs) - 1}][1]",
                    f"last cumulative mass {cs[-1]!r} must equal the "
                    f"diffuse mass {d.mass!r}")
    if len(problems) == before and d.kind != "empty":
        # the width between the endpoints as floats: a semicircle whose
        # radius is below the float spacing at its center has none
        lo, hi = d.interval()
        if not hi - lo >= _MIN_WIDTH:
            problem(f"diffuse.params.{_PARAMS[d.kind][-1]}",
                    f"the diffuse part [{lo!r}, {hi!r}] must be at least "
                    f"{_MIN_WIDTH:.3g} wide")
        elif lo < a - 1e-12 or hi > b + 1e-12:
            problem("diffuse.params", f"diffuse support [{lo}, {hi}] lies "
                                      f"outside the support [{a}, {b}]")
    if measure.truncated_tail < 0.0:
        problems.append(f"negative truncated tail {measure.truncated_tail!r}")
    return problems


# ---------------------------------------------------------------------------
# Quantiles.


def diffuse_quantile_batch(measure: SpectralMeasure, k: int) -> np.ndarray:
    """All diffuse quantiles at levels j/k for j = 1 .. floor(c k).

    Each value is the largest x in [a, b] with nu([a, x]) = j/k, taken
    from the diffuse part's quantile function.  Below the top level the
    preimage is unique, because every diffuse CDF is strictly increasing
    on its interval (piecewise cumulative masses must strictly increase).
    """
    import numpy as np
    c = measure.diffuse.mass
    q, g = _diffuse_levels(c, k)
    out = np.full(q, measure.support[1], dtype=float)
    if g:
        out[:g] = measure.diffuse.quantile_unit(np.arange(1, g + 1) / k / c)
    return out


def _diffuse_levels(c: float, k: int) -> tuple[int, int]:
    """floor(c k) levels j/k of a diffuse part of mass c, and how many lie
    below the top.  Levels from c - 1e-14 up sit at b: the CDF is flat at
    mass c from the part's right end to b, and the largest preimage is b."""
    q = _int_part(c * k)
    return q, next((g for g in range(q, 0, -1) if g / k < c - 1e-14), 0)


# ---------------------------------------------------------------------------
# Factories.


def uniform_measure(lo: float = 0.0, hi: float = 1.0) -> SpectralMeasure:
    """Uniform probability measure on [lo, hi]."""
    return SpectralMeasure(support=(lo, hi),
                           diffuse=DiffusePart("uniform", 1.0,
                                               {"lo": lo, "hi": hi}))


def arcsine_measure(lo: float, hi: float) -> SpectralMeasure:
    """Arcsine (equilibrium) measure of the interval [lo, hi]."""
    return SpectralMeasure(support=(lo, hi),
                           diffuse=DiffusePart("arcsine", 1.0,
                                               {"lo": lo, "hi": hi}))


def semicircle_measure(center: float = 0.0, radius: float = 2.0) -> SpectralMeasure:
    """Semicircle law; radius 2 gives unit variance."""
    return SpectralMeasure(support=(center - radius, center + radius),
                           diffuse=DiffusePart("semicircle", 1.0,
                                               {"center": center,
                                                "radius": radius}))


def atomic_measure(pairs: Iterable[tuple[float, float]],
                   support: tuple[float, float] | None = None) -> SpectralMeasure:
    """Purely atomic measure from (location, weight) pairs."""
    atoms = tuple(Atom(loc, w) for loc, w in pairs)
    if support is None:
        locs = [a.location for a in atoms]
        support = (min(locs), max(locs))
    return SpectralMeasure(support=support, atoms=atoms)


def _check_family_tol(tol: float, path: str) -> None:
    """Refuse an example42 ``tol`` of 5e-324 = 2^-1074 or less, at ``path``:
    its tail 2^-1075 would round to 0, and its last atom weigh 0.  An
    infinite ``tol`` has no atom count either."""
    if not 5e-324 < tol < math.inf:
        raise MeasureSpecError(path, f"must be finite and exceed 5e-324, "
                                     f"got {tol!r}")


def _expand_example42(tol: float) -> tuple[tuple[Atom, ...], float]:
    """Atoms of weight 2^-j at 1/j until the remaining tail is < tol.

    The tail after J atoms is exactly 2^-J (dyadic, so the kept mass plus
    the reported tail reproduce 1 with no rounding at all).
    """
    count = max(1, math.ceil(-math.log2(tol)))
    while 2.0 ** -count >= tol:  # guard the boundary case tol = 2^-m
        count += 1
    atoms = tuple(Atom(1.0 / j, 2.0 ** -j) for j in range(1, count + 1))
    return atoms, 2.0 ** -count


def example42_measure(tol: float = 1e-10) -> SpectralMeasure:
    """The built-in infinite atom family: weight 2^-j at location 1/j.

    The locations accumulate at 0, so the truncated tail is attributed
    there.  Its free Hausdorff dimension is 1 - sum 4^-j = 2/3.  ``tol``
    must be finite and exceed 5e-324, as in a spec's ``atom_family``.
    """
    _check_family_tol(tol, "tol")
    atoms, tail = _expand_example42(tol)
    return SpectralMeasure(support=(0.0, 1.0), atoms=atoms,
                           family="example42", family_tol=tol,
                           truncated_tail=tail, truncated_tail_location=0.0)


# ---------------------------------------------------------------------------
# JSON measure specifications.


# An optional object left out of its spec: {} unless it has required keys.
_ABSENT: dict = {}


def _keys(obj: Any, path: str, required: tuple[str, ...],
          optional: dict[str, Any] = {}) -> list[Any]:
    """The values of a spec object's ``required`` keys, then of its
    ``optional`` ones, which maps each to its value when absent.  Refuses
    a non-object, an unknown key or a missing key at its JSON path."""
    prefix = f"{path}." if path else ""
    if obj is _ABSENT and required:
        raise MeasureSpecError(path, "missing required key")
    if not isinstance(obj, dict):
        raise MeasureSpecError(path, f"expected an object, got "
                                     f"{type(obj).__name__}")
    unknown = sorted(set(obj).difference(required, optional), key=str)
    if unknown:
        raise MeasureSpecError(f"{prefix}{unknown[0]}", "unknown key")
    for key in required:
        if key not in obj:
            raise MeasureSpecError(prefix + key, "missing required key")
    return [obj[key] for key in required] + [
        obj.get(key, default) for key, default in optional.items()]


def _spec_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MeasureSpecError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise MeasureSpecError(path,
                               f"expected a finite number, got {value!r}")
    return number


def _spec_pair(value: Any, path: str, form: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise MeasureSpecError(path, f"expected {form}")
    return [_spec_number(value[0], f"{path}[0]"),
            _spec_number(value[1], f"{path}[1]")]


def _spec_knots(value: Any, path: str) -> list[list[float]]:
    if not isinstance(value, list) or len(value) < 2:
        raise MeasureSpecError(path, "expected a list of >= 2 knots")
    return [_spec_pair(pair, f"{path}[{i}]", "[point, cumulative]")
            for i, pair in enumerate(value)]


def measure_from_dict(spec: dict) -> SpectralMeasure:
    """Build a measure from the documented JSON-style mapping.

    Raises MeasureSpecError citing the offending key path on any
    malformed input, an unknown key included.  An ``atom_family`` entry is expanded into explicit
    atoms (plus a reported tail) and may not be combined with an explicit
    ``atoms`` list.
    """
    support_raw, atoms_raw, diffuse_raw, family_raw = _keys(
        spec, "", ("support",),
        {"atoms": [], "diffuse": None, "atom_family": None})
    support = _spec_pair(support_raw, "support", "[a, b]")

    if not isinstance(atoms_raw, list):
        raise MeasureSpecError("atoms", "expected a list of atoms")
    atoms = []
    for i, entry in enumerate(atoms_raw):
        path = f"atoms[{i}]"
        loc, w = _keys(entry, path, ("location", "weight"))
        atoms.append(Atom(_spec_number(loc, f"{path}.location"),
                          _spec_number(w, f"{path}.weight")))

    diffuse = _EMPTY_DIFFUSE
    if diffuse_raw is not None:
        kind, mass, params_raw = _keys(diffuse_raw, "diffuse",
                                       ("kind", "mass"), {"params": _ABSENT})
        if kind not in _DIFFUSE_KINDS:
            raise MeasureSpecError("diffuse.kind", f"unknown kind {kind!r}; "
                                   f"expected one of {_DIFFUSE_KINDS}")
        mass = _spec_number(mass, "diffuse.mass")
        names = _PARAMS[kind]
        params = {key: (_spec_knots if key == "knots" else _spec_number)(
                      value, f"diffuse.params.{key}")
                  for key, value in zip(names, _keys(params_raw,
                                                     "diffuse.params", names))}
        diffuse = DiffusePart(kind=kind, mass=mass, params=params)

    if family_raw is None:
        return SpectralMeasure(support=support, atoms=tuple(atoms),
                               diffuse=diffuse)
    name, tol = _keys(family_raw, "atom_family", ("name",), {"tol": 1e-10})
    if name != "example42":
        raise MeasureSpecError("atom_family.name", f"unknown family {name!r}")
    tol = _spec_number(tol, "atom_family.tol")
    _check_family_tol(tol, "atom_family.tol")
    if atoms:
        raise MeasureSpecError("atoms", "cannot combine an explicit atom "
                                        "list with atom_family")
    fam_atoms, tail = _expand_example42(tol)
    return SpectralMeasure(support=support, atoms=fam_atoms, diffuse=diffuse,
                           family=name, family_tol=tol, truncated_tail=tail,
                           truncated_tail_location=0.0)


def measure_to_dict(measure: SpectralMeasure) -> dict:
    """Inverse of measure_from_dict (family measures keep their family form).

    A spec has no key for a truncated tail, so a measure built with one
    but without its family raises ValueError: its spec would reload as a
    different measure.
    """
    if measure.truncated_tail > 0.0 and measure.family is None:
        raise ValueError(
            f"truncated tail mass {measure.truncated_tail!r} has no spec "
            f"form; the written spec would reload without it")
    return _spec_dict(measure)


def _spec_dict(measure: SpectralMeasure) -> dict:
    """The spec mapping of a measure, truncated tail left out."""
    out: dict[str, Any] = {"support": [measure.support[0], measure.support[1]]}
    if measure.family is not None:
        out["atom_family"] = {"name": measure.family,
                              "tol": measure.family_tol}
    elif measure.atoms:
        out["atoms"] = [{"location": a.location, "weight": a.weight}
                        for a in measure.atoms]
    if measure.diffuse.kind != "empty":
        out["diffuse"] = {"kind": measure.diffuse.kind,
                          "mass": measure.diffuse.mass,
                          "params": json.loads(json.dumps(measure.diffuse.params))}
    return out


def load_measure(path: str) -> SpectralMeasure:
    """Read a measure-specification JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeasureSpecError("", f"invalid JSON: {exc}") from exc
    return measure_from_dict(spec)


def dump_measure(measure: SpectralMeasure, path: str) -> None:
    """Write the measure's JSON specification (no file when it has none)."""
    spec = measure_to_dict(measure)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)
        fh.write("\n")
