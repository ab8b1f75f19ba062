"""Independent references for every job of the benchmark.

Nothing here imports the package under test.  The references are closed
forms from logarithmic potential theory (Saff & Totik, *Logarithmic
Potentials with External Fields*), ``math.fsum`` over atom pairs,
``math.lgamma`` sums for the Selberg and Mehta constants, and the
microstate definitions of the source paper, evaluated from the spec dicts
that the benchmark itself generated.

``check(job, specs, code, stdout)`` returns ``None`` for a correct job
and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np

from workloads import KS, REG_EPS, VOL_EPS, VOL_T, Job

CHI_SHIFT = 0.75 + 0.5 * math.log(2.0 * math.pi)
UPPER_SHIFT = math.log(16.0) + 0.25
HALF_LOG_288E = 0.5 * (math.log(288.0) + 1.0)
DIM_ONE_SHIFT = 0.5 * (math.log(2.0) - 1.0 - math.log(math.pi))
LOG4 = math.log(4.0)
MC_Z_BOUND = 6.0
DEFAULT_TOL = 1e-6
_QUAD_NODES = 800


class Mismatch(Exception):
    """A job's output disagrees with its reference."""


# ---------------------------------------------------------------------------
# Measures as the oracle sees them: atoms plus diffuse pieces.


def atoms_of(spec: dict) -> list[tuple[float, float]]:
    """(location, weight) pairs; example42 expands by its definition."""
    fam = spec.get("atom_family")
    if fam is not None:
        tol = fam.get("tol", 1e-10)
        count = 1
        while 2.0 ** -count >= tol:
            count += 1
        return [(1.0 / j, 2.0 ** -j) for j in range(1, count + 1)]
    return [(float(a["location"]), float(a["weight"]))
            for a in spec.get("atoms", [])]


def diffuse_of(spec: dict) -> tuple[str, float, dict]:
    d = spec.get("diffuse")
    if d is None:
        return "empty", 0.0, {}
    return d["kind"], float(d["mass"]), d.get("params", {})


def _segments(kind: str, params: dict) -> list[tuple[float, float, float]]:
    """Uniform pieces (unit-mass share, lo, hi) of a uniform-like part."""
    if kind == "uniform":
        return [(1.0, params["lo"], params["hi"])]
    knots = params["knots"]
    total = knots[-1][1]
    return [((m1 - m0) / total, x0, x1)
            for (x0, m0), (x1, m1) in zip(knots, knots[1:])]


def _g(t: float) -> float:
    # G'' = log|t|, G(0) = G'(0) = 0
    return 0.0 if t == 0.0 else 0.5 * t * t * math.log(abs(t)) - 0.75 * t * t


def _g1(t: float) -> float:
    return 0.0 if t == 0.0 else t * math.log(abs(t)) - t


def _uniform_pair_mean(a: float, b: float, c: float, d: float) -> float:
    """Mean of log|x - y| for x ~ U[a, b], y ~ U[c, d]."""
    return (_g(b - c) - _g(a - c) - _g(b - d) + _g(a - d)) / ((b - a) * (d - c))


def _uniform_point_mean(x: float, a: float, b: float) -> float:
    return (_g1(x - a) - _g1(x - b)) / (b - a)


def _self_energy(kind: str, params: dict) -> float:
    """Log energy of the unit-mass diffuse part."""
    if kind == "arcsine":
        return math.log((params["hi"] - params["lo"]) / 4.0)
    if kind == "semicircle":
        return math.log(params["radius"] / 2.0) - 0.25
    segs = _segments(kind, params)
    return math.fsum(ms * mt * _uniform_pair_mean(a, b, c, d)
                     for ms, a, b in segs for mt, c, d in segs)


def _potential(kind: str, params: dict, x: float) -> float:
    """Integral of log|x - y| against the unit-mass diffuse part."""
    if kind == "semicircle":
        c, r = params["center"], params["radius"]
        if abs(x - c) <= r:
            return math.log(r / 2.0) + (x - c) ** 2 / r ** 2 - 0.5
    elif kind == "arcsine":
        mid = 0.5 * (params["lo"] + params["hi"])
        rho = 0.5 * (params["hi"] - params["lo"])
        if abs(x - mid) <= rho:
            return math.log(rho / 2.0)
    else:
        return math.fsum(m * _uniform_point_mean(x, a, b)
                         for m, a, b in _segments(kind, params))
    raise ValueError(f"no reference for an atom outside the {kind} support")


def offdiag_energy(spec: dict) -> float:
    """E: double integral of log|y - z| off the diagonal."""
    atoms = atoms_of(spec)
    kind, c, params = diffuse_of(spec)
    terms = [wi * wj * math.log(abs(xi - xj))
             for i, (xi, wi) in enumerate(atoms)
             for j, (xj, wj) in enumerate(atoms) if i != j]
    if c > 0.0:
        terms.append(c * c * _self_energy(kind, params))
        terms.extend(2.0 * w * c * _potential(kind, params, x)
                     for x, w in atoms)
    return math.fsum(terms)


def alpha(spec: dict) -> float:
    return 1.0 - math.fsum(w * w for _, w in atoms_of(spec))


def _complex_potential(kind: str, params: dict, z: np.ndarray) -> np.ndarray:
    """Integral of log(z - y) against the unit-mass diffuse part, Im z > 0.

    Only the real part (the logarithmic potential) is used.
    """
    if kind in ("uniform", "piecewise_linear_cdf"):
        out = np.zeros_like(z)
        for m, a, b in _segments(kind, params):
            out += m * ((z - a) * np.log(z - a) - (z - b) * np.log(z - b)
                        - (b - a)) / (b - a)
        return out
    if kind == "arcsine":
        mid = 0.5 * (params["lo"] + params["hi"])
        rho = 0.5 * (params["hi"] - params["lo"])
        u = z - mid
        s = np.sqrt(u - rho) * np.sqrt(u + rho)
        return np.log((u + s) / 2.0)
    c, r = params["center"], params["radius"]
    u = z - c
    s = np.sqrt(u - r) * np.sqrt(u + r)
    return (u * u - u * s) / (r * r) + np.log((u + s) / 2.0) - 0.5


def _nodes(kind: str, params: dict) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights for integrals against the part."""
    n = _QUAD_NODES
    if kind == "arcsine":
        mid = 0.5 * (params["lo"] + params["hi"])
        rho = 0.5 * (params["hi"] - params["lo"])
        theta = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
        return mid + rho * np.cos(theta), np.full(n, 1.0 / n)
    if kind == "semicircle":
        c, r = params["center"], params["radius"]
        theta = np.arange(1, n + 1) * math.pi / (n + 1)
        return c + r * np.cos(theta), 2.0 / (n + 1) * np.sin(theta) ** 2
    x, w = np.polynomial.legendre.leggauss(n)
    xs, ws = [], []
    for m, a, b in _segments(kind, params):
        xs.append(0.5 * (a + b) + 0.5 * (b - a) * x)
        ws.append(0.5 * m * w)
    return np.concatenate(xs), np.concatenate(ws)


def regularized_energy(spec: dict, eps: float) -> float:
    """Full-plane integral of log((y - z)^2 + eps), diagonal included.

    log((y - z)^2 + eps) = 2 Re log(y + i sqrt(eps) - z), so the inner
    integral is a closed-form complex potential and only the outer one is
    numeric, by Gauss rules matched to each density.
    """
    atoms = atoms_of(spec)
    kind, c, params = diffuse_of(spec)
    delta = math.sqrt(eps)
    terms = [wi * wj * math.log((xi - xj) ** 2 + eps)
             for xi, wi in atoms for xj, wj in atoms]
    if c > 0.0:
        xs, ws = _nodes(kind, params)
        pot = 2.0 * np.real(_complex_potential(kind, params, xs + 1j * delta))
        terms.append(c * c * math.fsum(ws * pot))
        for x, w in atoms:
            at = _complex_potential(kind, params, np.array([x + 1j * delta]))
            terms.append(2.0 * w * c * 2.0 * float(np.real(at)[0]))
    return math.fsum(terms)


def unit_cdf(kind: str, params: dict, x: np.ndarray) -> np.ndarray:
    """CDF of the unit-mass diffuse part."""
    if kind in ("uniform", "piecewise_linear_cdf"):
        out = np.zeros_like(x)
        for m, a, b in _segments(kind, params):
            out += m * np.clip((x - a) / (b - a), 0.0, 1.0)
        return out
    if kind == "arcsine":
        frac = np.clip((x - params["lo"]) / (params["hi"] - params["lo"]),
                       0.0, 1.0)
        return 2.0 / math.pi * np.arcsin(np.sqrt(frac))
    z = np.clip((x - params["center"]) / params["radius"], -1.0, 1.0)
    return 0.5 + (z * np.sqrt(1.0 - z * z) + np.arcsin(z)) / math.pi


# ---------------------------------------------------------------------------
# Gamma-function constants (math.lgamma, exactly summed).


@lru_cache(maxsize=None)
def _sum_log_factorials(k: int) -> float:
    return math.fsum(math.lgamma(j + 1.0) for j in range(1, k + 1))


@lru_cache(maxsize=None)
def selberg_log(k: int) -> float:
    """log prod_{j<=k} Gamma(j+1) Gamma(j)^2 / Gamma(k+j)."""
    return math.fsum(math.lgamma(j + 1.0) + 2.0 * math.lgamma(j)
                     - math.lgamma(k + j) for j in range(1, k + 1))


def _floor_mass(weight: float, k: int) -> int:
    """floor(weight * k) of the decimal weight, exactly."""
    return math.floor(Fraction(repr(weight)) * k)


# ---------------------------------------------------------------------------
# Microstates by the paper's definition.


def lower_multiplicities(spec: dict, k: int) -> list[tuple[float, int]]:
    """Atom entry counts of the separated microstate, heaviest first."""
    ranked = sorted(atoms_of(spec), key=lambda a: (-a[1], a[0]))
    base = [_floor_mass(w, k) for _, w in ranked]
    out = [(ranked[0][0], base[0] - math.isqrt(k))]
    out += [(x, m) for (x, _), m in zip(ranked[1:], base[1:]) if m > 0]
    return out


def lower_atom_spectrum(spec: dict, k: int) -> tuple[list, list, int]:
    """Unique values, their counts and #S_k of a pure-atom separated
    microstate: atoms with their multiplicities, then fillers b + 3 + j/F."""
    mults = lower_multiplicities(spec, k)
    fillers = k - sum(m for _, m in mults)
    b = float(spec["support"][1])
    values = [x for x, _ in mults] + [b + 3.0 + j / fillers
                                      for j in range(1, fillers + 1)]
    counts = [m for _, m in mults] + [1] * fillers
    s_count = sum(m * (m - 1) // 2 for m in counts)
    return values, counts, s_count


def distinct_pair_log_sq(values, counts) -> float:
    """Sum of log (v_i - v_j)^2 over unordered index pairs with v_i != v_j,
    given unique values and their multiplicities."""
    v = np.asarray(values, dtype=float)
    n = np.asarray(counts, dtype=float)
    partials = []
    for i0 in range(0, v.size, 512):
        d = v[i0:i0 + 512, None] - v[None, :]
        w = n[i0:i0 + 512, None] * n[None, :]
        mask = d != 0.0
        partials.append(float((w[mask] * np.log(d[mask] ** 2)).sum()))
    return 0.5 * math.fsum(partials)


def pair_log_reg(values, eps: float) -> float:
    """Sum of log((v_i - v_j)^2 + eps) over unordered pairs i < j."""
    v = np.asarray(values, dtype=float)
    partials = []
    for i0 in range(0, v.size, 512):
        d = v[i0:i0 + 512, None] - v[None, i0:]
        keep = np.triu(np.ones(d.shape, dtype=bool), 1)
        partials.append(float(np.log(d[keep] ** 2 + eps).sum()))
    return math.fsum(partials)


def packing_constant_log(k: int, pair_sum: float, s_count: int) -> float:
    log_d = 0.5 * k * (k - 1) * math.log(math.pi) - _sum_log_factorials(k)
    return math.fsum([log_d, 2.0 * pair_sum, -math.lgamma(k + 1.0),
                      (2 * s_count + k - k * k) * math.log(2.0),
                      selberg_log(k)])


def volume_bound_log(k: int, pair_reg_sum: float, eps: float,
                     t: float) -> float:
    s = t / eps + 0.25
    # positive root of 2a^2 + (1 - s^2) a - 2 s^2 = 0,
    # i.e. sqrt((a + 2a^2) / (a + 2)) = s
    a = (-(1.0 - s * s) + math.sqrt((1.0 - s * s) ** 2 + 16.0 * s * s)) / 4.0
    return math.fsum([
        0.5 * k * math.log(k), k * math.log(eps), -math.lgamma(0.5 * k + 1.0),
        0.5 * k * (k - 1) * math.log1p(2.0 * a), 2.0 * k * k * eps,
        0.5 * k * k * math.log(math.pi), 0.5 * k * (k - 1) * math.log(2.0),
        -_sum_log_factorials(k), pair_reg_sum])


# ---------------------------------------------------------------------------
# Checks.


def _close(name: str, got, want: float, tol: float) -> None:
    g = float(got)  # the CLI renders infinities as "inf" and "-inf"
    if math.isinf(want) and g == want:
        return
    if not abs(g - want) <= tol:
        raise Mismatch(f"{name} = {g!r}, reference {want!r} (tol {tol:g})")


def _equal(name: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{name} = {got!r}, expected {want!r}")


def _energy_block(name: str, block: dict, spec: dict, tol: float) -> float:
    _equal(f"{name}.status", block["status"], "ok")
    e = offdiag_energy(spec)
    _close(f"{name}.value", block["value"], e, tol)
    return e


def _bounds(e: float, a: float) -> tuple[float, float]:
    return e - a * math.log(2.0) - HALF_LOG_288E + 0.75, e + UPPER_SHIFT


def _chi(spec: dict, e: float) -> float:
    return -math.inf if atoms_of(spec) else e + CHI_SHIFT


def _check_energy(job, specs, out, tol):
    [res] = out["results"]
    spec = specs[job.measures()[0]]
    _energy_block("offdiag_energy", res["offdiag_energy"], spec, tol)
    reg = {float(r["eps"]): float(r["value"]) for r in res["regularized"]}
    _equal("regularized eps", sorted(reg), [0.01, 0.1, 1.0])
    for eps, value in reg.items():
        _close(f"regularized[eps={eps}]", value,
               regularized_energy(spec, eps), tol)


def _check_chi(job, specs, out, tol):
    [res] = out["results"]
    spec = specs[job.measures()[0]]
    _close("chi", res["chi"], _chi(spec, offdiag_energy(spec)), tol)


def _check_bounds(job, specs, out, tol):
    [res] = out["results"]
    spec = specs[job.measures()[0]]
    e = _energy_block("energy", res["energy"], spec, tol)
    a = alpha(spec)
    lower, upper = _bounds(e, a)
    _close("alpha", res["alpha"], a, 1e-12)
    _close("lower", res["lower"], lower, tol)
    _close("upper", res["upper"], upper, tol)
    _close("width", res["width"], upper - lower, 1e-12)


def _check_family_bounds(job, specs, out, tol):
    res = out["result"]
    fams = [specs[name] for name in job.measures()]
    n = len(fams)
    energies = [_energy_block(f"energies[{i}]", blk, spec, tol)
                for i, (blk, spec) in enumerate(zip(res["energies"], fams))]
    alphas = [alpha(s) for s in fams]
    beta = math.fsum(alphas)
    k1 = -0.5 * n * (math.log(288.0) + 1.0) + 0.75 * n - beta * math.log(2.0)
    k2 = n * math.log(16.0 * math.sqrt(n)) + 0.25 * n
    _equal("n", res["n"], n)
    _close("beta", res["beta"], beta, 1e-12)
    _close("k1", res["k1"], k1, 1e-12)
    _close("k2", res["k2"], k2, 1e-12)
    _close("lower", res["lower"], math.fsum(energies) + k1, n * tol)
    _close("upper", res["upper"], math.fsum(energies) + k2, n * tol)


def _check_report(job, specs, out, tol):
    [res] = out["results"]
    spec = specs[job.measures()[0]]
    e = _energy_block("energy", res["energy"], spec, tol)
    a = alpha(spec)
    lower, upper = _bounds(e, a)
    chi = _chi(spec, e)
    _close("dimension.alpha", res["dimension"]["alpha"], a, 1e-12)
    _close("chi", res["chi"], chi, tol)
    _close("h1_identity", res["h1_identity"], chi + DIM_ONE_SHIFT, tol)
    _close("bounds.lower", res["bounds"]["lower"], lower, tol)
    _close("bounds.upper", res["bounds"]["upper"], upper, tol)
    if "family" in out:
        raise Mismatch("a one-measure report carries a family block")


def _series_common(res: dict, kind: str, target: float, tol: float,
                   ks=KS) -> list[float]:
    _equal("kind", res["kind"], kind)
    _equal("ks", tuple(res["ks"]), tuple(ks))
    _close("target", res["target"], target, tol)
    values = [float(v) for v in res["values"]]
    if not all(math.isfinite(v) for v in values):
        raise Mismatch(f"non-finite series value in {values}")
    return values


def _check_series(job, specs, out, tol):
    res = out["result"]
    kind = res["kind"]
    if kind == "gamma-ratio":
        values = _series_common(res, kind, -LOG4, 1e-15)
        for k, v in zip(KS, values):
            _close(f"value[k={k}]", v, selberg_log(k) / (k * k), 1e-10)
        side = ("above" if all(v >= -LOG4 for v in values) else
                "below" if all(v < -LOG4 for v in values) else "mixed")
        _equal("approach_side", res["approach_side"], side)
        return
    spec = specs[job.measures()[0]]
    e = offdiag_energy(spec)
    if kind == "regularized-product":
        values = _series_common(res, kind, regularized_energy(spec, REG_EPS),
                                tol)
        dkind, _, params = diffuse_of(spec)
        for k, v in zip(KS, values):
            if dkind == "uniform":
                width = params["hi"] - params["lo"]
                d = np.arange(1, k, dtype=float)
                ref = math.fsum((k - d) * np.log((width * d / k) ** 2 + REG_EPS))
            elif k == KS[-1]:
                levels = np.arange(1, k + 1, dtype=float) / k
                s = np.sin(0.5 * math.pi * levels)
                q = params["lo"] + (params["hi"] - params["lo"]) * s * s
                ref = pair_log_reg(q, REG_EPS)
            else:
                continue
            _close(f"value[k={k}]", v, 2.0 * ref / (k * k), 1e-9)
        return
    a = alpha(spec)
    if kind == "offdiag-sum":
        values = _series_common(res, kind, 2.0 * e, 2.0 * tol)
    else:
        target = (2.0 * e + 0.5 * math.log(math.pi) + 0.75
                  - a * math.log(2.0) - LOG4)
        values = _series_common(res, kind, target, 2.0 * tol)
    if diffuse_of(spec)[1] > 0.0:
        return
    for k, v in zip(KS, values):
        uniq, counts, s_count = lower_atom_spectrum(spec, k)
        pair_sum = distinct_pair_log_sq(uniq, counts)
        if kind == "offdiag-sum":
            ref = 2.0 * pair_sum / (k * k)
        else:
            ref = (packing_constant_log(k, pair_sum, s_count) / (k * k)
                   + 0.5 * math.log(k))
        _close(f"value[k={k}]", v, ref, 1e-9)


def _check_quantiles(name: str, values: np.ndarray, spec: dict, k: int,
                     levels: np.ndarray) -> None:
    kind, c, params = diffuse_of(spec)
    got = unit_cdf(kind, params, values) * c * k
    bad = np.abs(got - levels) > 1e-6
    if bad.any():
        i = int(np.argmax(bad))
        raise Mismatch(f"{name}: entry {values[i]!r} sits at level "
                       f"{got[i] / k!r}, expected {levels[i] / k!r}")


def _check_microstate(job, specs, out, tol):
    res = out["result"]
    spec = specs[job.measures()[0]]
    k = int(res["k"])
    eig = np.array([float(v) for v in res["eigenvalues"]])
    _equal("eigenvalue count", eig.size, k)
    if np.any(np.diff(eig) < 0.0):
        raise Mismatch("eigenvalues are not sorted")
    counts = Counter(eig.tolist())
    s_count = sum(m * (m - 1) // 2 for m in counts.values())
    _equal("pair_partition.s_count", res["pair_partition"]["s_count"], s_count)
    _equal("pair_partition.w_count", res["pair_partition"]["w_count"],
           k * (k - 1) // 2 - s_count)
    kind, c, params = diffuse_of(spec)
    if res["kind"] == "upper":
        # atomless specs only: quantiles at levels j/k, j = 1..floor(c k)
        _equal("zero_count", res["zero_count"], 0)
        _check_quantiles("quantile", eig, spec, k,
                         np.arange(1, k + 1, dtype=float))
        _close("volume_upper_bound_log", res["volume_upper_bound_log"],
               volume_bound_log(k, pair_log_reg(eig, VOL_EPS), VOL_EPS,
                                VOL_T), 1e-9 * k * k)
        return
    mults = lower_multiplicities(spec, k)
    got = [(m["location"], m["multiplicity"])
           for m in res["atom_multiplicities"]]
    _equal("atom_multiplicities", got, mults)
    for x, m in mults:
        _equal(f"count of {x}", counts.get(x, 0), m)
    b = float(spec["support"][1])
    fillers = eig[eig > b + 3.0]
    _equal("filler_count", res["filler_count"], fillers.size)
    if fillers.size and not fillers[-1] <= b + 4.0 + 1e-12 * max(1.0, abs(b)):
        raise Mismatch(f"filler {fillers[-1]!r} above b + 4")
    atom_locs = {x for x, _ in mults}
    rest = np.array([v for v in eig[eig <= b + 3.0] if v not in atom_locs])
    _equal("quantile_count", res["quantile_count"], rest.size)
    if rest.size:
        q = _floor_mass(c, k)
        levels = np.rint(unit_cdf(kind, params, rest) * c * k)
        if levels.min() < 2 or levels.max() > q - 1:
            raise Mismatch("kept quantile outside levels 2/k .. (q-1)/k")
        _check_quantiles("kept quantile", rest, spec, k, levels)
    _equal("fills k", sum(m for _, m in mults) + rest.size + fillers.size, k)
    lhs = 2.0 * s_count + k
    rhs = (1.0 - alpha(spec)) * k * k
    _equal("counting_bound.holds", res["counting_bound"]["holds"], True)
    _equal("counting bound (reference)", lhs <= rhs, True)
    _close("counting_bound.lhs", res["counting_bound"]["lhs"], lhs, 0.0)
    _close("counting_bound.rhs", res["counting_bound"]["rhs"], rhs, 1e-9 * rhs)
    uniq = sorted(counts)
    pair_sum = distinct_pair_log_sq(uniq, [counts[v] for v in uniq])
    _close("packing_constant_log", res["packing_constant_log"],
           packing_constant_log(k, pair_sum, s_count), 1e-9 * k * k)


def _check_selberg(job, specs, out, tol):
    res = out["result"]
    k = int(res["k"])
    ref = selberg_log(k)
    _close("selberg_log", res["selberg_log"], ref, 1e-10 * max(1.0, abs(ref)))
    mc = res["monte_carlo"]
    eps = float(mc["eps"])
    closed = math.exp(k * k * math.log(2.0 * eps) + ref)
    _close("monte_carlo.closed_form", mc["closed_form"], closed, 1e-9 * closed)
    z = float(mc["z_score"])
    if not abs(z) <= MC_Z_BOUND:
        raise Mismatch(f"|z| = {abs(z):.3g} exceeds {MC_Z_BOUND}")


_CHECKS = {
    "energy": _check_energy,
    "chi": _check_chi,
    "bounds": _check_bounds,
    "family-bounds": _check_family_bounds,
    "report": _check_report,
    "series": _check_series,
    "microstate": _check_microstate,
    "selberg": _check_selberg,
}


def _job_tol(job: Job) -> float:
    argv = list(job.argv)
    return float(argv[argv.index("--tol") + 1]) if "--tol" in argv \
        else DEFAULT_TOL


def check(job: Job, specs: dict[str, dict], code: int,
          stdout: str) -> str | None:
    """None when the job's exit code and output match the reference."""
    if code != job.expect_code:
        return f"exit code {code}, expected {job.expect_code}"
    if code != 0:
        return None  # the expected rejection; stdout carries no result
    try:
        out = json.loads(stdout)
        _CHECKS[job.argv[0]](job, specs, out, _job_tol(job))
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
