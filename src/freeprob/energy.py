"""Logarithmic energy integrals of spectral measures.

* ``offdiag_energy``: E = the double integral of log|y - z| against
  mu x mu with the diagonal removed (only atom self-pairs live there).
* ``regularized_energy``: the full-plane integral of log((y - z)^2 + eps),
  diagonal included, which is finite for every eps > 0.

Both are means of Re log(y - z + i d) over mu x mu, at d = 0 and at
d = sqrt(eps), and one set of closed-form complex potentials (Saff &
Totik, *Logarithmic Potentials with External Fields*, 1997) serves both.
Every term is a compensated sum of elementary functions, except the
regularized self term of a semicircle or arcsine part: one fixed
tanh-sinh rule over the angle, exact to rounding at every eps > 0.
Only ``math`` and ``cmath`` are used.
"""

from __future__ import annotations

import cmath
import functools
import math

from ._kernels import _check_positive_finite
from ._record import Record
from .measures import DiffusePart, SpectralMeasure

__all__ = [
    "EnergyComponents",
    "EnergyResult",
    "offdiag_energy",
    "regularized_energy",
]


class EnergyComponents(Record):
    """Breakdown of an energy value by interaction type."""

    __slots__ = ("diffuse_diffuse", "atom_diffuse", "atom_atom")


class EnergyResult(Record):
    """An energy value with its accuracy diagnostics.

    ``value`` is the sum of the three components.  ``status`` is "ok",
    or "diverged" (two atoms share a location; value is -inf).
    ``abs_error_estimate`` is 0: every term is closed form or a rule
    exact up to rounding, or for two distinct knot segments of very
    different widths an 8-point Gauss-Legendre mean accurate to about
    1e-10.
    When the measure carries truncated atom-family mass,
    ``truncation_bound`` bounds the absolute energy contribution of the
    dropped mass (which is excluded from ``value``) and
    ``truncation_note`` says so in words.
    """

    __slots__ = ("value", "abs_error_estimate", "components", "status",
                 "truncation_bound", "truncation_note")
    _defaults = {"truncation_bound": 0.0, "truncation_note": None}


# ---------------------------------------------------------------------------
# Closed-form complex potentials of the unit-mass diffuse families: means
# of Re log(x - y + i d), d >= 0, which at d = 0 are the log potentials.

# The 8-point Gauss-Legendre rule on [-1, 1]: (node, weight) for +-node.
_GAUSS_LEGENDRE_8 = ((0.18343464249564978, 0.36268378337836166),
                     (0.525532409916329, 0.3137066458778869),
                     (0.7966664774136267, 0.22238103445337443),
                     (0.9602898564975362, 0.10122853629037706))


def _segments(diffuse: DiffusePart) -> list[tuple[float, float, float]]:
    """(mass share, lo, hi) of the constant-density pieces of a uniform
    or piecewise-linear-CDF part."""
    if diffuse.kind == "uniform":
        return [(1.0, *diffuse.interval())]
    knots = diffuse.params["knots"]
    return [((float(c1) - float(c0)) / diffuse.mass, float(x0), float(x1))
            for (x0, c0), (x1, c1) in zip(knots, knots[1:])]


def _center_radius(diffuse: DiffusePart) -> tuple[float, float]:
    if diffuse.kind == "semicircle":
        return float(diffuse.params["center"]), float(diffuse.params["radius"])
    lo, hi = diffuse.interval()
    return lo + 0.5 * (hi - lo), 0.5 * (hi - lo)


def _centered_potential(kind: str, w: complex, r: float) -> float:
    """Re of the integral of log(w - y) against the semicircle or arcsine
    law on [-r, r], for Im w >= 0."""
    # the branch of sqrt(w^2 - r^2) that behaves like w at infinity; on
    # the support it is i sqrt(r^2 - w^2), so |w + s| = r there
    s = cmath.sqrt(w - r) * cmath.sqrt(w + r)
    value = cmath.log(0.5 * w + 0.5 * s).real
    if kind == "semicircle":
        # (w^2 - w s) / r^2 = w / (w + s), without the cancellation
        value += (w / (w + s)).real - 0.5
    return value


def _segment_mean(x: float, a: float, b: float, d: float) -> float:
    """Mean of Re log(x - y + i d) over y uniform on [a, b]."""
    w = b - a
    p, q = complex(x - a, d), complex(x - b, d)
    if min(abs(p), abs(q)) <= w:
        # the antiderivative t log t - t of log t differenced over
        # [q, p] and divided by w, with |p / w| and |q / w| at most 2
        return ((p / w * cmath.log(p) if p else 0j)
                - (q / w * cmath.log(q) if q else 0j)).real - 1.0
    # Farther than w from the segment: the same difference written as
    # log q + (1 + r) log(1 + r) / r - 1 with r = w / q, |r| < 1, which
    # neither cancels nor overflows however narrow the segment is.
    # log(u) / (u - 1) is log(1 + r) / r to full precision although
    # u = 1 + r is rounded.
    u = 1.0 + w / q
    ratio = cmath.log(u) / (u - 1.0) if u != 1.0 else 1.0
    return (cmath.log(q) + u * ratio).real - 1.0


def _g(t: complex) -> complex:
    # double antiderivative of log t, zero at 0
    return 0.5 * t * t * (cmath.log(t) - 1.5) if t else 0j


def _segment_pair(a: float, b: float, c: float, e: float, d: float) -> float:
    """Mean of Re log(y - z + i d) over y uniform on [a, b] and z uniform
    on [c, e].  A segment of width L with itself, at beta = d/L < 2, is
    log L + (1 - beta^2) log1p(beta^2)/2 + beta^2 log beta
    + 2 beta atan(1/beta) - 3/2, whose terms cancel like beta^2 log beta
    from beta = 2 on; there it is log d + log1p(u)/2 - log1p(u)/(2u)
    + 2 atan(v)/v - 3/2 with v = 1/beta and u = v^2."""
    p, q = b - a, e - c
    if a == c and b == e:
        if d >= 2.0 * p:
            v = p / d
            u = v * v
            return (math.log(d) + 0.5 * math.log1p(u)
                    - 0.5 * (math.log1p(u) / u if u else 1.0)
                    + 2.0 * (math.atan(v) / v if v else 1.0) - 1.5)
        beta = d / p
        cross = (beta * (beta * math.log(beta) + 2.0 * math.atan(1.0 / beta))
                 if beta else 0.0)
        return (math.log(p) + 0.5 * (1.0 - beta * beta) * math.log1p(
            beta * beta) + cross - 1.5)
    corners = [complex(t, d) for t in (b - c, a - e, a - c, b - e)]
    scale = max(map(abs, corners))
    amplification = (scale / p) * (scale / q)
    # The four-term form loses about `amplification` ulps to cancellation.
    # The Gauss-Legendre mean below is exact to rounding once d is twice
    # the narrower width, and within about 1e-10 next to a wider
    # segment's endpoint once the amplification passes 1e6.
    if amplification <= 1e6 and d < 2.0 * min(p, q):
        # g(b - c) + g(a - e) - g(a - c) - g(b - e) over p q, g'' = log,
        # in units of the largest corner: the second difference of t^2 / 2
        # is p q, so the scale comes back as its log.
        g = [_g(z / scale).real for z in corners]
        return math.log(scale) + amplification * math.fsum(
            [g[0], g[1], -g[2], -g[3]])
    # the mean over the narrower segment of the wider one's potential
    # (Re log is symmetric in y and z)
    if p < q:
        a, b, c, e = c, e, a, b
    half = 0.5 * (e - c)
    return math.fsum(0.5 * weight * _segment_mean(c + (1.0 + t) * half,
                                                  a, b, d)
                     for node, weight in _GAUSS_LEGENDRE_8
                     for t in (node, -node))


def _potential(diffuse: DiffusePart, x: float, d: float) -> float:
    """Mean of Re log(x - y + i d) over the unit-mass diffuse part, for
    every real x, inside the support or outside it."""
    if diffuse.kind in ("semicircle", "arcsine"):
        center, r = _center_radius(diffuse)
        return _centered_potential(diffuse.kind, complex(x - center, d), r)
    return math.fsum(m * _segment_mean(x, a, b, d)
                     for m, a, b in _segments(diffuse))


@functools.cache
def _angle_rule() -> tuple[tuple[float, float, float], ...]:
    """(cos phi, arcsine weight, semicircle weight) of ``_angle_mean``'s
    nodes, made on first use: the tanh-sinh rule (Takahasi & Mori, Publ.
    RIMS 9, 1974) over theta in [0, pi], theta = pi/2 (1 + tanh u) with
    u = pi/2 sinh t, at t = j/40 for |j| <= 140, folded at pi/2 onto
    j >= 0.  A node is kept as its distance phi = pi / (1 + e^(2u)) from
    the nearer end, which holds its digits there as pi - theta would
    not.  A weight is the step 1/40 times d theta/dt times the density
    in theta, 1/pi or 2/pi sin^2 theta, doubled for j > 0."""
    rule = []
    for j in range(141):
        t = j / 40
        u = 0.5 * math.pi * math.sinh(t)
        phi = math.pi / (1.0 + math.exp(2.0 * u))
        weight = (2.0 if j else 1.0) * math.pi / 160 * math.cosh(t) / (
            math.cosh(u) ** 2)
        rule.append((math.cos(phi), weight, 2.0 * weight * math.sin(phi) ** 2))
    return tuple(rule)


def _angle_mean(kind: str, r: float, d: float) -> float:
    """Mean of Re log(y - z + i d), d > 0, over y and z drawn
    independently from the semicircle or arcsine law on [-r, r]: the mean
    over z = r cos(theta) of the potential at z + i d, by one fixed
    tanh-sinh rule of 141 potentials (``_angle_rule``).  The integrand is
    even about theta = pi/2, and its branch points (z + i d = +-r) come
    within about sqrt(2 d/r) of the ends of the real theta axis, which is
    why an evenly spread rule needs more nodes as d falls (Trefethen &
    Weideman, SIAM Review 56, 2014).  The tanh-sinh nodes crowd doubly
    exponentially into those ends, and this one rule is exact to rounding
    at every d/r from 1e-300 to 1e300 (against mpmath at 40 digits)."""
    return math.fsum((a if kind == "arcsine" else s) * _centered_potential(
        kind, complex(r * x, d), r) for x, a, s in _angle_rule())


def _self_energy(diffuse: DiffusePart, d: float) -> float:
    """Mean of Re log(y - z + i d) over y and z drawn independently from
    the unit-mass diffuse part: segment pairs in closed form, and a
    semicircle or arcsine in closed form at d = 0, else by the one angle
    rule (``_angle_mean``)."""
    kind = diffuse.kind
    if kind not in ("semicircle", "arcsine"):
        segments = _segments(diffuse)
        return math.fsum(m * n * _segment_pair(a, b, c, e, d)
                         for m, a, b in segments
                         for n, c, e in segments)
    _, r = _center_radius(diffuse)
    if d:
        return _angle_mean(kind, r, d)
    return math.log(0.5 * r) - (0.25 if kind == "semicircle" else 0.0)


def _energy(points: list[tuple[float, float]], diffuse: DiffusePart,
            d: float) -> tuple[float, float, float]:
    """(diffuse x diffuse, atom x diffuse, atom x atom) terms of the mean
    of Re log(y - z + i d) over mu x mu, for mu the (location, weight)
    point masses plus the diffuse part.  At d = 0 the self-pairs of the
    points are left out; two points at one location make the atom x atom
    term -inf."""
    c = diffuse.mass
    # Unordered pairs once, doubled, and at d > 0 the self-pairs w^2 log d:
    # the exact ordered-pair terms, so fsum rounds them to the same double.
    # |xi - xj + i d| by hypot, which cannot overflow as a square can.
    terms = [w * w * math.log(d) for _, w in points] if d else []
    for i, (xi, wi) in enumerate(points):
        for xj, wj in points[i + 1:]:
            gap = math.hypot(xi - xj, d)
            terms.append(2.0 * wi * wj * math.log(gap) if gap else -math.inf)
    ad = math.fsum(2.0 * w * c * _potential(diffuse, x, d)
                   for x, w in points) if c > 0.0 else 0.0
    # c^2 underflows to 0 below c ~ 1.5e-162, and the self term with it
    dd = c * c * _self_energy(diffuse, d) if c * c > 0.0 else 0.0
    return dd, ad, math.fsum(terms)


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
# The two energies.


def offdiag_energy(measure: SpectralMeasure) -> EnergyResult:
    """E = the integral of log|y - z| d(mu x mu) off the diagonal.

    Every term is closed form, exact up to rounding, except a pair of
    knot segments of very different widths: an 8-point Gauss-Legendre
    mean, accurate to about 1e-10 (``abs_error_estimate`` stays 0).
    Two atoms at one location make E = -inf with status "diverged".
    """
    parts = _energy([(a.location, a.weight) for a in measure.atoms],
                    measure.diffuse, 0.0)
    bound, note = _truncation_bound(measure)
    return EnergyResult(value=math.fsum(parts),
                        abs_error_estimate=0.0,
                        components=EnergyComponents(*parts),
                        status="diverged" if parts[2] == -math.inf else "ok",
                        truncation_bound=bound,
                        truncation_note=note)


def regularized_energy(measure: SpectralMeasure, eps: float) -> EnergyResult:
    """Full-plane integral of log((y - z)^2 + eps) d(mu x mu).

    The diagonal is included (each atom's self-pair contributes
    weight^2 * log(eps)) and the integrand is bounded, so the value is
    always finite and ``status`` is "ok".  Truncated atom-family mass
    participates as a point mass at its accumulation point, which
    misplaces it by at most the tail's spatial spread; with default
    truncation tolerances this is far below any tolerance in use.  The
    integrand is 2 Re log(y - z + i sqrt(eps)), so every term is closed
    form except the self term of a semicircle or arcsine part, one fixed
    tanh-sinh rule exact to rounding at every eps.
    """
    _check_positive_finite(eps)
    points = [(a.location, a.weight) for a in measure.atoms]
    if measure.truncated_tail > 0.0 and measure.truncated_tail_location is not None:
        points.append((measure.truncated_tail_location,
                       measure.truncated_tail))
    parts = [2.0 * part
             for part in _energy(points, measure.diffuse, math.sqrt(eps))]
    return EnergyResult(value=math.fsum(parts), abs_error_estimate=0.0,
                        components=EnergyComponents(*parts), status="ok")
