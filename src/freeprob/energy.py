"""Logarithmic energy integrals of spectral measures.

* ``offdiag_energy``: E = the double integral of log|y - z| against
  mu x mu with the diagonal removed (only atom self-pairs live there).
  Exact up to rounding: every diffuse family has a closed-form
  logarithmic potential and self-energy (Saff & Totik, *Logarithmic
  Potentials with External Fields*, 1997), so atom x atom, atom x
  diffuse and diffuse x diffuse terms are all compensated sums of
  elementary functions.
* ``regularized_energy``: the full-plane integral of log((y - z)^2 + eps),
  diagonal included, which is finite for every eps > 0.  Adaptive 1-D
  panels and 2-D cells on a smooth chart of the diffuse part (its
  closed-form quantile, or x = c - r cos(pi s) for the semicircle), to
  an absolute tolerance, because energies near zero are routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._quad import adaptive_quad_1d, adaptive_quad_2d
from .measures import DiffusePart, SpectralMeasure

__all__ = [
    "EnergyComponents",
    "EnergyResult",
    "offdiag_energy",
    "regularized_energy",
]

@dataclass(frozen=True)
class EnergyComponents:
    """Breakdown of an energy value by interaction type."""

    diffuse_diffuse: float
    atom_diffuse: float
    atom_atom: float


@dataclass(frozen=True)
class EnergyResult:
    """An energy value with its accuracy diagnostics.

    ``value`` is the sum of the three components.  ``status`` is "ok" or
    "diverged" (two atoms share a location; value is -inf).  The closed
    forms carry no truncation error, so ``abs_error_estimate`` is 0.
    When the measure carries truncated atom-family mass,
    ``truncation_bound`` bounds the absolute energy contribution of the
    dropped mass (which is excluded from ``value``) and
    ``truncation_note`` says so in words.
    """

    value: float
    abs_error_estimate: float
    components: EnergyComponents
    status: str
    truncation_bound: float = 0.0
    truncation_note: str | None = None


# ---------------------------------------------------------------------------
# Closed-form logarithmic potentials of the unit-mass diffuse families.


def _g1(t: float) -> float:
    # antiderivative of log|t|, zero at 0
    return t * math.log(abs(t)) - t if t else 0.0


def _g2(t: float) -> float:
    # double antiderivative of log|t|, zero at 0
    return 0.25 * t * t * (2.0 * math.log(abs(t)) - 3.0) if t else 0.0


def _segments(diffuse: DiffusePart) -> list[tuple[float, float, float]]:
    """(mass share, lo, hi) of the constant-density pieces of a uniform
    or piecewise-linear-CDF part."""
    if diffuse.kind == "uniform":
        return [(1.0, *diffuse.interval())]
    knots = diffuse.params["knots"]
    return [((float(c1) - float(c0)) / diffuse.mass, float(x0), float(x1))
            for (x0, c0), (x1, c1) in zip(knots, knots[1:])]


def _self_energy(diffuse: DiffusePart) -> float:
    """Double integral of log|y - z| against the unit-mass diffuse part."""
    if diffuse.kind == "arcsine":
        lo, hi = diffuse.interval()
        return math.log(0.25 * (hi - lo))
    if diffuse.kind == "semicircle":
        return math.log(0.5 * float(diffuse.params["radius"])) - 0.25
    # Per segment pair, with density m / (b - a) on [a, b]: the integral
    # of log|y - z| over [a, b] x [c, d] is
    # g2(b - c) + g2(a - d) - g2(a - c) - g2(b - d).
    terms = []
    segments = _segments(diffuse)
    for m, a, b in segments:
        for n, c, d in segments:
            scale = m * n / ((b - a) * (d - c))
            terms.extend(scale * t for t in (_g2(b - c), _g2(a - d),
                                             -_g2(a - c), -_g2(b - d)))
    return math.fsum(terms)


def _potential(diffuse: DiffusePart, x: float) -> float:
    """Integral of log|x - y| against the unit-mass diffuse part.

    Valid for every real x, inside the support or outside it.
    """
    if diffuse.kind == "semicircle":
        r = float(diffuse.params["radius"])
        u = abs(x - float(diffuse.params["center"]))
        if u <= r:
            return math.log(0.5 * r) + (u / r) ** 2 - 0.5
        s = math.sqrt((u - r) * (u + r))
        # (u^2 - u s) / r^2 = u / (u + s), without the cancellation
        return math.log(0.5 * (u + s)) + u / (u + s) - 0.5
    if diffuse.kind == "arcsine":
        lo, hi = diffuse.interval()
        rho = 0.5 * (hi - lo)
        u = abs(x - 0.5 * (lo + hi))
        if u <= rho:
            return math.log(0.5 * rho)
        return math.log(0.5 * (u + math.sqrt((u - rho) * (u + rho))))
    return math.fsum(m * (_g1(x - a) - _g1(x - b)) / (b - a)
                     for m, a, b in _segments(diffuse))


# ---------------------------------------------------------------------------
# Truncated-tail bookkeeping.


def _truncation_bound(measure: SpectralMeasure) -> tuple[float, str | None]:
    tail = measure.truncated_tail
    if tail <= 0.0:
        return 0.0, None
    a, b = measure.support
    landmarks = [atom.location for atom in measure.atoms]
    if measure.diffuse.kind != "empty":
        landmarks.extend(measure.diffuse.interval())
    if measure.truncated_tail_location is not None:
        landmarks.append(measure.truncated_tail_location)
    landmarks = sorted(set(landmarks))
    gaps = [y - x for x, y in zip(landmarks, landmarks[1:]) if y > x]
    diam = b - a
    if not gaps or diam <= 0.0:
        return math.inf, ("dropped atom-family mass cannot be localized; "
                          "its energy contribution is unbounded")
    # |log|y-z|| over pairs meeting the dropped mass is at most the worse
    # of the closest-landmark and diameter scales
    log_cap = max(abs(math.log(min(gaps))), abs(math.log(diam)))
    bound = tail * (2.0 - tail) * log_cap
    note = (f"atom-family tail of mass {tail:.3e} was truncated; its pairs "
            f"contribute at most {bound:.3e} in absolute value and are "
            f"not included in the energy value")
    return bound, note


# ---------------------------------------------------------------------------
# Off-diagonal energy.


def offdiag_energy(measure: SpectralMeasure) -> EnergyResult:
    """E = the integral of log|y - z| d(mu x mu) off the diagonal.

    Every term is closed form, exact up to rounding.  Two atoms at one
    location make E = -inf with status "diverged".
    """
    atoms = measure.atoms
    diffuse = measure.diffuse
    c = diffuse.mass

    aa_terms: list[float] = []
    aa_diverged = False
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            gap = abs(atoms[i].location - atoms[j].location)
            if gap == 0.0:
                aa_diverged = True
            else:
                aa_terms.append(2.0 * atoms[i].weight * atoms[j].weight
                                * math.log(gap))
    aa = -math.inf if aa_diverged else math.fsum(aa_terms)

    ad = dd = 0.0
    if c > 0.0:
        ad = math.fsum(2.0 * atom.weight * c
                       * _potential(diffuse, atom.location)
                       for atom in atoms)
        dd = c * c * _self_energy(diffuse)

    status = "diverged" if aa_diverged else "ok"
    value = -math.inf if aa_diverged else math.fsum([aa, ad, dd])
    bound, note = _truncation_bound(measure)
    return EnergyResult(value=value,
                        abs_error_estimate=0.0,
                        components=EnergyComponents(dd, ad, aa),
                        status=status,
                        truncation_bound=bound,
                        truncation_note=note)


# ---------------------------------------------------------------------------
# Regularized energy.


def _chart(diffuse: DiffusePart):
    """(x, density): a smooth map of [0, 1] onto the diffuse support.

    Integrals against the unit-mass diffuse part become integrals of
    f(x(s)) density(s) over s in [0, 1].  The semicircle uses
    x = c - r cos(pi s) with density 2 sin^2(pi s), which needs no
    quantile solve; every other kind uses its closed-form quantile with
    density 1.
    """
    import numpy as np
    if diffuse.kind == "semicircle":
        c = float(diffuse.params["center"])
        r = float(diffuse.params["radius"])

        def x(s):
            return c - r * np.cos(math.pi * s)

        def density(s):
            return 2.0 * np.sin(math.pi * s) ** 2

        return x, density

    def unit(s):
        return 1.0

    return diffuse.quantile_unit, unit


def _chart_breaks(diffuse: DiffusePart) -> list[float]:
    """Interior chart parameters in (0, 1) where the chart has kinks."""
    if diffuse.kind != "piecewise_linear_cdf":
        return []
    return [float(cum) / diffuse.mass
            for _, cum in diffuse.params["knots"][1:-1]]


def _chart_preimage(diffuse: DiffusePart, location: float) -> float | None:
    """Chart parameter of a point of the diffuse support, else None."""
    lo, hi = diffuse.interval()
    if not lo <= location <= hi:
        return None
    if diffuse.kind == "semicircle":
        c = float(diffuse.params["center"])
        r = float(diffuse.params["radius"])
        return math.acos(min(1.0, max(-1.0, (c - location) / r))) / math.pi
    return float(diffuse.cdf_mass(location)) / diffuse.mass


def _pair_integrand(diffuse: DiffusePart, eps: float):
    """log((x(u) - x(v))^2 + eps) density(u) density(v) on the chart."""
    import numpy as np
    x, density = _chart(diffuse)

    def integrand(u, v):
        d = x(u) - x(v)
        return np.log(d * d + eps) * density(u) * density(v)

    return integrand


def regularized_energy(measure: SpectralMeasure, eps: float,
                       tol: float = 1e-6, *,
                       max_cells: int = 40000) -> float:
    """Full-plane integral of log((y - z)^2 + eps) d(mu x mu).

    The diagonal is included (each atom's self-pair contributes
    weight^2 * log(eps)) and the integrand is bounded, so the value is
    always finite.  Truncated atom-family mass participates as a point
    mass at its accumulation point, which misplaces it by at most the
    tail's spatial spread; with default truncation tolerances this is
    far below any quadrature tolerance in use.  ``max_cells`` caps the
    2-D cells.
    """
    import numpy as np
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    diffuse = measure.diffuse
    c = diffuse.mass

    point_masses = [(a.location, a.weight) for a in measure.atoms]
    if measure.truncated_tail > 0.0 and measure.truncated_tail_location is not None:
        point_masses.append((measure.truncated_tail_location,
                             measure.truncated_tail))

    aa_terms = [wi * wj * math.log((xi - xj) ** 2 + eps)
                for xi, wi in point_masses
                for xj, wj in point_masses]
    aa = math.fsum(aa_terms)

    ad = 0.0
    dd = 0.0
    if c > 0.0:
        x, density = _chart(diffuse)
        breaks = _chart_breaks(diffuse)
        for loc, w in point_masses:
            crossing = _chart_preimage(diffuse, loc)

            def integrand(s, _loc=loc):
                return np.log((_loc - x(s)) ** 2 + eps) * density(s)

            weight = 2.0 * w * c
            budget = 0.25 * tol / len(point_masses)
            res = adaptive_quad_1d(integrand, 0.0, 1.0,
                                   tol=budget / max(weight, 1e-30),
                                   breakpoints=(breaks if crossing is None
                                                else breaks + [crossing]))
            ad += weight * res.value

        res = adaptive_quad_2d(_pair_integrand(diffuse, eps),
                               tol=0.5 * tol / (c * c), max_cells=max_cells,
                               u_breaks=breaks, v_breaks=breaks)
        dd = c * c * res.value

    return math.fsum([aa, ad, dd])
