"""Logarithmic energy integrals of spectral measures.

* ``offdiag_energy``: E = the double integral of log|y - z| against
  mu x mu with the diagonal removed (only atom self-pairs live there).
* ``regularized_energy``: the full-plane integral of log((y - z)^2 + eps),
  diagonal included, which is finite for every eps > 0.

Both are means of Re log(y - z + i d) over mu x mu, at d = 0 and at
d = sqrt(eps), and one set of closed-form complex potentials (Saff &
Totik, *Logarithmic Potentials with External Fields*, 1997) serves both.
Every term is a compensated sum of elementary functions, except the
regularized self term of a semicircle or arcsine part: one Gauss-Chebyshev
rule whose size follows from eps and the radius, exact to rounding up to
``MAX_NODES`` nodes, and past them the eps = 0 value with a bound and a
status.  Only ``math`` and ``cmath`` are used.
"""

from __future__ import annotations

import cmath
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
    "diverged" (two atoms share a location; value is -inf) or
    "not_converged" (a semicircle or arcsine self term is its eps = 0
    value, and ``abs_error_estimate``, its bound, exceeds the tolerance).
    Else the estimate is 0: every term is closed form or a rule exact up
    to rounding, or for two distinct knot segments of very different
    widths an 8-point Gauss-Legendre mean accurate to about 1e-10.
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

# Largest Gauss-Chebyshev rule of a semicircle or arcsine self term: it serves
# every eps >= 1e-15 r^2, and below about 5e-16 r^2 the eps = 0 value does.
MAX_NODES = 2 ** 17
# The regularized energy's default absolute tolerance, for the library and
# the command line alike.
DEFAULT_TOL = 1e-6

# A sum that stands for an analytic function's integral is exact to rounding
# once the function's singularities lie 20 units off: 20 levels from a uniform
# grid's points, and 20 / n off the real angle axis for n angles (an arcsine
# grid's levels, ``_angle_mean``'s nodes), which err by e^(-40) = 4e-18.
_SMOOTH = 20.0

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


def _angle_mean(kind: str, r: float, d: float) -> float | None:
    """Mean of Re log(y - z + i d) over y and z drawn independently from
    the semicircle or arcsine law on [-r, r], or None past ``MAX_NODES``:
    over z = r cos(theta), the potential at z + i d by an n-node
    Gauss-Chebyshev rule, of the second kind for the semicircle and the
    first for the arcsine.  Its branch points (z + i d = +-r) lie
    sigma = |Im acos(1 + i d/r)| off the real theta axis, so the rule errs
    by about e^(-2 n sigma) (Trefethen & Weideman, SIAM Review 56, 2014),
    below the rounding at n = ceil(20 / sigma)."""
    sigma = abs(cmath.acos(complex(1.0, d / r)).imag)
    if not sigma * MAX_NODES >= _SMOOTH:
        return None
    n = max(1, math.ceil(_SMOOTH / sigma))  # sigma is inf at d/r = inf
    if kind == "semicircle":
        angles = [j * math.pi / (n + 1) for j in range(1, n + 1)]
        weights = [2.0 / (n + 1) * math.sin(t) ** 2 for t in angles]
    else:
        angles = [(j - 0.5) * math.pi / n for j in range(1, n + 1)]
        weights = [1.0 / n] * n
    return math.fsum(weight * _centered_potential(
        kind, complex(r * math.cos(t), d), r)
        for weight, t in zip(weights, angles))


def _self_energy(diffuse: DiffusePart, d: float,
                 tol: float) -> tuple[float, float, str]:
    """(value, error estimate, status) of the mean of Re log(y - z + i d)
    over y and z drawn independently from the unit-mass diffuse part.

    Segment pairs are closed form, and a semicircle or arcsine is one
    rule (``_angle_mean``), both with estimate 0.  Past ``MAX_NODES`` (d
    below about 2.3e-8 r, and d = 0) the value is the closed form at
    d = 0, with a bound on the mean of log|y - z + i d| - log|y - z| >= 0
    as the estimate, which ``tol`` checks: with delta = d / r, 2 delta
    for the semicircle (its density is at most 2 / (pi r), and
    log(1 + d^2 / t^2) integrates to 2 pi d), and for the arcsine the
    mean over x = cos(theta) of the Green's function of [-1, 1] at
    x + i delta, which is at most delta / sin(theta) and at most its value
    eta at 1 + i delta.
    """
    kind = diffuse.kind
    if kind not in ("semicircle", "arcsine"):
        segments = _segments(diffuse)
        return math.fsum(m * n * _segment_pair(a, b, c, e, d)
                         for m, a, b in segments
                         for n, c, e in segments), 0.0, "ok"
    _, r = _center_radius(diffuse)
    value = _angle_mean(kind, r, d)
    if value is not None:
        return value, 0.0, "ok"
    delta = d / r
    eta = cmath.acosh(complex(1.0, delta)).real
    theta = math.asin(delta / eta) if delta else 1.0
    bound = 2.0 * delta if kind == "semicircle" else 2.0 / math.pi * (
        eta * theta - delta * math.log(math.tan(0.5 * theta)))
    flat = math.log(0.5 * r) - (0.25 if kind == "semicircle" else 0.0)
    return flat, bound, "ok" if bound <= tol else "not_converged"


def _energy(points: list[tuple[float, float]], diffuse: DiffusePart,
            d: float, tol: float) -> tuple[tuple[float, float, float],
                                           float, str]:
    """((diffuse x diffuse, atom x diffuse, atom x atom), error estimate,
    status) of the mean of Re log(y - z + i d) over mu x mu, for mu the
    (location, weight) point masses plus the diffuse part.  At d = 0 the
    self-pairs of the points are left out; two points at one location
    make the atom x atom term -inf with status "diverged"."""
    c = diffuse.mass
    # Unordered pairs once, doubled, and at d > 0 the self-pairs w^2 log d:
    # the exact ordered-pair terms, so fsum rounds them to the same double.
    # |xi - xj + i d| by hypot, which cannot overflow as a square can.
    terms = [w * w * math.log(d) for _, w in points] if d else []
    for i, (xi, wi) in enumerate(points):
        for xj, wj in points[i + 1:]:
            gap = math.hypot(xi - xj, d)
            terms.append(2.0 * wi * wj * math.log(gap) if gap else -math.inf)
    aa = math.fsum(terms)
    ad = dd = error = 0.0
    status = "ok"
    if c > 0.0:
        ad = math.fsum(2.0 * w * c * _potential(diffuse, x, d)
                       for x, w in points)
    # c^2 underflows to 0 below c ~ 1.5e-162, and the self term with it
    if c * c > 0.0:
        dd, error, status = _self_energy(diffuse, d, tol / (c * c))
        dd, error = c * c * dd, c * c * error
    return (dd, ad, aa), error, "diverged" if aa == -math.inf else status


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
    parts, _, status = _energy([(a.location, a.weight) for a in measure.atoms],
                               measure.diffuse, 0.0, math.inf)
    bound, note = _truncation_bound(measure)
    return EnergyResult(value=math.fsum(parts),
                        abs_error_estimate=0.0,
                        components=EnergyComponents(*parts),
                        status=status,
                        truncation_bound=bound,
                        truncation_note=note)


def regularized_energy(measure: SpectralMeasure, eps: float,
                       tol: float = DEFAULT_TOL) -> EnergyResult:
    """Full-plane integral of log((y - z)^2 + eps) d(mu x mu).

    The diagonal is included (each atom's self-pair contributes
    weight^2 * log(eps)) and the integrand is bounded, so the value is
    always finite.  Truncated atom-family mass participates as a point
    mass at its accumulation point, which misplaces it by at most the
    tail's spatial spread; with default truncation tolerances this is
    far below any tolerance in use.  The integrand is
    2 Re log(y - z + i sqrt(eps)), so every term is closed form except
    the self term of a semicircle or arcsine part, a Gauss-Chebyshev
    rule exact to rounding.  Below eps of about 5e-16 r^2 that term is
    the eps = 0 value: ``abs_error_estimate`` is its weighted bound, and
    ``status`` is "not_converged" when that exceeds ``tol``.
    """
    _check_positive_finite(eps)
    _check_positive_finite(tol, "tol")
    points = [(a.location, a.weight) for a in measure.atoms]
    if measure.truncated_tail > 0.0 and measure.truncated_tail_location is not None:
        points.append((measure.truncated_tail_location,
                       measure.truncated_tail))
    parts, error, status = _energy(points, measure.diffuse, math.sqrt(eps),
                                   0.5 * tol)
    parts = [2.0 * part for part in parts]
    return EnergyResult(value=math.fsum(parts),
                        abs_error_estimate=2.0 * error,
                        components=EnergyComponents(*parts),
                        status=status)
