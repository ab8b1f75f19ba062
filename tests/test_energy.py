"""Logarithmic energy: closed forms, oracles, invariances, regularization."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate

import freeprob as fp
from conftest import (MIXED_ENERGY, affine_pushforward, atomic_plus_uniform,
                      chebyshev_reference, mpmath_self_energy, purely_atomic,
                      uniform_regularized_energy)
from freeprob import energy

TOL = 1e-6


def energy_value(measure):
    res = fp.offdiag_energy(measure)
    assert res.status == "ok"
    return res.value


class TestClosedForms:
    def test_uniform_unit_interval(self, uniform01):
        res = fp.offdiag_energy(uniform01)
        assert res.status == "ok"
        assert res.value == pytest.approx(-1.5, abs=TOL)

    def test_uniform_general_interval(self):
        # E scales as log(length) - 3/2.
        m = fp.uniform_measure(2.0, 7.0)
        assert energy_value(m) == pytest.approx(math.log(5.0) - 1.5, abs=TOL)

    def test_arcsine_is_equilibrium(self, arcsine2):
        # [-2, 2] has logarithmic capacity 1, so its equilibrium measure
        # (the arcsine law) has zero energy.
        assert energy_value(arcsine2) == pytest.approx(0.0, abs=TOL)

    def test_semicircle(self, semicircle2):
        assert energy_value(semicircle2) == pytest.approx(-0.25, abs=TOL)

    def test_mixed_measure(self, mixed_measure):
        res = fp.offdiag_energy(mixed_measure)
        assert res.status == "ok"
        assert res.value == pytest.approx(MIXED_ENERGY, abs=TOL)
        # aa: single atom, no pairs.  ad: 2 * (1/2)(1/2) int_1^2 log x dx.
        # dd: (1/2)^2 * (log 1 - 3/2).
        assert res.components.atom_atom == 0.0
        assert res.components.atom_diffuse == pytest.approx(
            math.log(2.0) - 0.5, abs=TOL)
        assert res.components.diffuse_diffuse == pytest.approx(-0.375,
                                                               abs=TOL)

    def test_two_atoms(self, two_atoms):
        # 2 * (1/2)(1/2) * log 1 = 0.
        res = fp.offdiag_energy(two_atoms)
        assert res.value == 0.0
        assert res.components.atom_atom == 0.0

    @pytest.mark.parametrize("eps", [None, 1.0, 1e-3])
    def test_atom_pairs_match_the_ordered_pair_sum(self, eps):
        # each unordered pair is summed once, doubled: the same exact
        # terms as the ordered pairs, so fsum gives the same double
        rng = np.random.default_rng(7)
        locs = np.unique(rng.normal(size=60) * 10.0 ** rng.integers(-3, 4, 60))
        weights = rng.random(locs.size)
        weights /= weights.sum()
        points = list(zip(locs.tolist(), weights.tolist()))
        m = fp.atomic_measure(points)
        d = 0.0 if eps is None else math.sqrt(eps)
        want = math.fsum(wi * wj * math.log(math.hypot(xi - xj, d))
                         for i, (xi, wi) in enumerate(points)
                         for j, (xj, wj) in enumerate(points) if d or i != j)
        if eps is None:
            assert fp.offdiag_energy(m).components.atom_atom == want
        else:
            got = fp.regularized_energy(m, eps).components.atom_atom
            assert got == 2.0 * want

    def test_atom_pair_distance(self):
        m = fp.atomic_measure([(0.0, 0.25), (3.0, 0.75)])
        assert energy_value(m) == pytest.approx(
            2 * 0.25 * 0.75 * math.log(3.0), abs=1e-15)


class TestScipyOracles:
    def test_uniform_direct_x_space(self, uniform01):
        # Independent route: reduce the double integral to
        # 2 int_0^1 (x log x - x) dx and evaluate with scipy.
        oracle, err = integrate.quad(lambda x: 2 * (x * math.log(x) - x),
                                     0.0, 1.0, points=[0.0])
        assert err < 1e-9
        assert energy_value(uniform01) == pytest.approx(oracle, abs=TOL)

    @pytest.mark.filterwarnings(
        "ignore::scipy.integrate.IntegrationWarning")
    def test_semicircle_density_dblquad(self, semicircle2):
        def rho(x):
            return math.sqrt(max(0.0, 4.0 - x * x)) / (2.0 * math.pi)

        # x > y half, doubled; absolute tolerance loose but independent.
        oracle, err = integrate.dblquad(
            lambda y, x: 2.0 * math.log(x - y) * rho(x) * rho(y),
            -2.0, 2.0, -2.0, lambda x: x, epsabs=1e-6)
        assert energy_value(semicircle2) == pytest.approx(
            oracle, abs=max(1e-5, 10 * err))

    def test_mixed_regularized_dblquad(self, mixed_measure):
        eps = 0.25
        aa = 0.25 * math.log(eps)
        ad, err_ad = integrate.quad(
            lambda x: 2 * 0.25 * math.log(x * x + eps), 1.0, 2.0)
        dd, err_dd = integrate.dblquad(
            lambda y, x: 0.25 * math.log((x - y) ** 2 + eps),
            1.0, 2.0, 1.0, 2.0)
        oracle = aa + ad + dd
        got = fp.regularized_energy(mixed_measure, eps, TOL).value
        assert got == pytest.approx(oracle, abs=max(TOL, 10 * (err_ad
                                                               + err_dd)))

    def test_uniform_regularized_dblquad(self, uniform01):
        eps = 0.01
        oracle, err = integrate.dblquad(
            lambda y, x: math.log((x - y) ** 2 + eps),
            0.0, 1.0, 0.0, 1.0, epsabs=1e-10)
        got = fp.regularized_energy(uniform01, eps, TOL).value
        assert got == pytest.approx(oracle, abs=max(TOL, 10 * err))


ORACLE_TOL = 1e-10
PARAMS = {"semicircle": {"center": 0.5, "radius": 1.5},
          "arcsine": {"lo": -1.0, "hi": 3.0},
          "uniform": {"lo": 2.0, "hi": 7.0}}
UNIT_KNOTS = [[0.0, 0.0], [0.5, 0.1], [1.5, 0.6], [4.0, 1.0]]


def _diffuse(kind, mass):
    if kind == "piecewise_linear_cdf":
        knots = [[x, mass * c] for x, c in UNIT_KNOTS]
        return fp.DiffusePart(kind, mass, {"knots": knots})
    return fp.DiffusePart(kind, mass, PARAMS[kind])


def _density(kind):
    """(unit-mass density as an mpmath function, its breakpoints)."""
    if kind == "semicircle":
        c, r = PARAMS[kind]["center"], PARAMS[kind]["radius"]
        return (lambda y: 2 / (mpmath.pi * r * r)
                * mpmath.sqrt(r * r - (y - c) ** 2)), [c - r, c + r]
    if kind == "arcsine":
        lo, hi = PARAMS[kind]["lo"], PARAMS[kind]["hi"]
        return (lambda y: 1 / (mpmath.pi * mpmath.sqrt((y - lo) * (hi - y))),
                [lo, hi])
    if kind == "uniform":
        lo, hi = PARAMS[kind]["lo"], PARAMS[kind]["hi"]
        return (lambda y: mpmath.mpf(1) / (hi - lo)), [lo, hi]
    segments = _knot_segments(UNIT_KNOTS)

    def rho(y):
        return next(m / (b - a) for m, a, b in segments if a <= y <= b)

    return rho, [x for x, _ in UNIT_KNOTS]


def _knot_segments(knots):
    return [(c1 - c0, x0, x1) for (x0, c0), (x1, c1) in zip(knots, knots[1:])]


def _mp_log_abs(d):
    # tanh-sinh nodes can round onto the singular point itself
    return mpmath.log(abs(d)) if d else 0


def _difference_energy(segments, eps=0.0):
    """E as the integral of log|t| (of log(t^2 + eps) when eps > 0) against
    the density of y - z, for y and z independent with constant density
    m / (b - a) on each (m, a, b)."""
    def f(t):
        return math.log(t * t + eps) if eps else math.log(abs(t))

    def h(t):
        return math.fsum(m * n * max(0.0, min(b, t + d) - max(a, t + c))
                         / ((b - a) * (d - c))
                         for m, a, b in segments for n, c, d in segments)

    corners = sorted({0.0} | {t for _, a, b in segments
                              for _, c, d in segments
                              for t in (a - d, a - c, b - d, b - c)})
    value, err = integrate.quad(lambda t: f(t) * h(t),
                                corners[0], corners[-1], points=corners[1:-1],
                                epsabs=1e-14, epsrel=1e-14, limit=200)
    assert err < 1e-12
    return value


def _angle_energy(radius, weight):
    """E for x = -radius cos(theta) with density weight(theta) on [0, pi],
    by nested mpmath quadrature split at the inner singularity."""
    with mpmath.workdps(20):
        def inner(t):
            x = mpmath.cos(t)
            return mpmath.quad(
                lambda p: _mp_log_abs(radius * (mpmath.cos(p) - x))
                * weight(p), [0, t, mpmath.pi])

        return float(mpmath.quad(lambda t: inner(t) * weight(t),
                                 [0, mpmath.pi]))


class TestClosedFormOracles:
    """Every closed form against scipy or mpmath integration of its
    definition, at 1e-10."""

    @pytest.mark.parametrize("kind", ["uniform", "arcsine", "semicircle",
                                      "piecewise_linear_cdf"])
    def test_self_energy(self, kind):
        lo, hi = _diffuse(kind, 1.0).interval()
        if kind == "uniform":
            oracle = _difference_energy([(1.0, lo, hi)])
        elif kind == "piecewise_linear_cdf":
            oracle = _difference_energy(_knot_segments(UNIT_KNOTS))
        elif kind == "arcsine":
            oracle = _angle_energy(0.5 * (hi - lo), lambda t: 1 / mpmath.pi)
        else:
            oracle = _angle_energy(0.5 * (hi - lo),
                                   lambda t: 2 / mpmath.pi
                                   * mpmath.sin(t) ** 2)
        m = fp.SpectralMeasure(support=(lo, hi), diffuse=_diffuse(kind, 1.0))
        res = fp.offdiag_energy(m)
        assert res.status == "ok"
        assert res.value == pytest.approx(oracle, abs=ORACLE_TOL)

    @pytest.mark.parametrize("kind, location", [
        ("semicircle", -0.7), ("semicircle", 1.9), ("semicircle", 2.5),
        ("semicircle", -3.0), ("arcsine", 0.2), ("arcsine", 2.9),
        ("arcsine", 3.5), ("arcsine", -3.0), ("uniform", 3.0),
        ("uniform", 1.0), ("uniform", 9.0), ("piecewise_linear_cdf", 0.5),
        ("piecewise_linear_cdf", 1.0), ("piecewise_linear_cdf", -1.0),
        ("piecewise_linear_cdf", 6.0),
    ])
    def test_atom_potential(self, kind, location):
        # An atom inside or outside the diffuse support: the atom x
        # diffuse term is 2 w c times the potential at the atom.
        rho, breaks = _density(kind)
        with mpmath.workdps(30):
            inside = breaks[0] < location < breaks[-1]
            points = sorted(set(breaks) | ({location} if inside else set()))
            potential = float(mpmath.quad(
                lambda y: _mp_log_abs(location - y) * rho(y), points))
        w, c = 0.25, 0.75
        m = fp.SpectralMeasure(support=(-4.0, 10.0),
                               atoms=(fp.Atom(location, w),),
                               diffuse=_diffuse(kind, c))
        assert fp.validate(m).ok
        res = fp.offdiag_energy(m)
        assert res.status == "ok"
        assert res.components.atom_diffuse == pytest.approx(
            2 * w * c * potential, abs=ORACLE_TOL)

    @pytest.mark.parametrize("eps", [1.0, 0.1])
    def test_semicircle_regularized_dblquad(self, eps):
        c, r = PARAMS["semicircle"]["center"], PARAMS["semicircle"]["radius"]
        x0, w, mass = 1.2, 0.3, 0.7

        def rho(x):
            return 2 / (math.pi * r * r) * math.sqrt(max(0.0, r * r
                                                         - (x - c) ** 2))

        ad, err_ad = integrate.quad(
            lambda y: math.log((x0 - y) ** 2 + eps) * rho(y), c - r, c + r,
            points=[x0], epsabs=1e-13, epsrel=1e-13)
        dd, err_dd = integrate.dblquad(
            lambda y, x: math.log((x - y) ** 2 + eps) * rho(x) * rho(y),
            c - r, c + r, c - r, c + r, epsabs=1e-12, epsrel=1e-12)
        assert err_ad + err_dd < 1e-11
        oracle = w * w * math.log(eps) + 2 * w * mass * ad + mass ** 2 * dd
        m = fp.SpectralMeasure(support=(c - r, c + r), atoms=(fp.Atom(x0, w),),
                               diffuse=_diffuse("semicircle", mass))
        got = fp.regularized_energy(m, eps, ORACLE_TOL).value
        assert got == pytest.approx(oracle, abs=ORACLE_TOL)


REG_EPS = [1.0, 0.1, 0.01, 1e-4]
# One atom inside and one outside each diffuse support.
ATOMS = {"semicircle": (-0.7, 2.5), "arcsine": (0.2, 3.5),
         "uniform": (3.0, 9.0), "piecewise_linear_cdf": (1.0, 6.0)}


def _angle_law(kind):
    """(center, radius, weight) with x = center - radius cos(theta) and
    weight(theta) d theta the unit-mass law on [0, pi]."""
    lo, hi = _diffuse(kind, 1.0).interval()
    if kind == "semicircle":
        return 0.5 * (lo + hi), 0.5 * (hi - lo), (
            lambda t: 2 / math.pi * math.sin(t) ** 2)
    return 0.5 * (lo + hi), 0.5 * (hi - lo), lambda t: 1 / math.pi


def _quad(f, lo, hi, points=()):
    value, err = integrate.quad(f, lo, hi, points=points or None,
                                epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err < 1e-11
    return value


def _regularized_self(kind, eps):
    """The integral of log((y - z)^2 + eps) against the unit-mass law."""
    if kind == "uniform":
        return _difference_energy([(1.0, *PARAMS[kind].values())], eps)
    if kind == "piecewise_linear_cdf":
        return _difference_energy(_knot_segments(UNIT_KNOTS), eps)
    _, r, weight = _angle_law(kind)

    def inner(t):
        def f(p):
            gap = 2 * r * math.sin(0.5 * (p + t)) * math.sin(0.5 * (p - t))
            return math.log(gap * gap + eps) * weight(p)

        return _quad(f, 0.0, math.pi, [t])

    return _quad(lambda t: inner(t) * weight(t), 0.0, math.pi)


def _regularized_potential(kind, x, eps):
    """The integral of log((x - y)^2 + eps) against the unit-mass law."""
    if kind in ("semicircle", "arcsine"):
        c, r, weight = _angle_law(kind)
        inside = abs(x - c) < r
        return _quad(lambda t: math.log((x - c + r * math.cos(t)) ** 2 + eps)
                     * weight(t), 0.0, math.pi,
                     [math.acos((c - x) / r)] if inside else ())
    segments = (_knot_segments(UNIT_KNOTS) if kind == "piecewise_linear_cdf"
                else [(1.0, *PARAMS[kind].values())])
    return math.fsum(
        m / (b - a) * _quad(lambda y: math.log((x - y) ** 2 + eps), a, b,
                            [x] if a < x < b else ())
        for m, a, b in segments)


class TestRegularizedOracles:
    """The regularized energy against mpmath closed forms and scipy
    quadrature of its definition, and the Gauss-Chebyshev status against
    a 2^21-node sum."""

    @pytest.mark.parametrize("width", [10.0 ** (k / 2)
                                       for k in range(-16, 17)])
    def test_uniform_closed_form(self, width):
        # at eps 1, widths above 1/2 take the self-pair closed form in
        # beta = d/L and narrower ones its form in 1/beta
        res = fp.regularized_energy(fp.uniform_measure(0.0, width), 1.0)
        assert res.status == "ok"
        assert res.value == pytest.approx(
            uniform_regularized_energy(width, 1.0), abs=1e-12)

    @pytest.mark.parametrize("width", [2.0, 0.37, 1e-5, 3e4])
    def test_segment_self_pair_matches_mpmath(self, width):
        # below d = 2L the closed form in beta = d/L, from there on its
        # form in 1/beta; the oracle integrates (L - x) log(x^2 + d^2)
        # over [0, L], split at d
        assert energy._segment_pair(0.0, width, 0.0, width, 0.0) == \
            math.log(width) - 1.5
        for beta in [1e-300, 1e-8, 1.99, 1.999] + [i / 20 for i in range(61)]:
            d = beta * width
            with mpmath.workdps(40):
                w, e = mpmath.mpf(width), mpmath.mpf(d)
                want = float(mpmath.quad(
                    lambda x: (w - x) * mpmath.log(x * x + e * e),
                    [0, e, w] if 0 < e < w else [0, w]) / (w * w))
            got = energy._segment_pair(0.0, width, 0.0, width, d)
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want)), beta

    @pytest.mark.parametrize("width", [1e-300, 1e-100, 1e-20, 0.1, 0.5, 1.0,
                                       3.0, 1e20, 1e150])
    def test_segment_self_pair_far_out_matches_mpmath(self, width):
        # From beta = d/L = 2 to 1e300.  The oracle is the textbook form
        # log L + (1 - beta^2) log1p(beta^2)/2 + beta^2 log beta
        # + 2 beta atan(1/beta) - 3/2, whose terms cancel like
        # beta^2 log beta, so it takes 80 digits plus twice log10(beta).
        for beta in (2.0, 2.5, 3.0, 7.0, 10.0, 1e3, 1e8, 1e20, 1e100, 1e154,
                     1e160, 1e300):
            d = beta * width
            if not d < 1e300:
                continue
            with mpmath.workdps(80 + 2 * int(math.log10(beta))):
                w = mpmath.mpf(width)
                b = mpmath.mpf(d) / w
                want = float(mpmath.log(w) + (1 - b * b) / 2
                             * mpmath.log1p(b * b) + b * b * mpmath.log(b)
                             + 2 * b * mpmath.atan(1 / b) - 1.5)
            got = energy._segment_pair(0.0, width, 0.0, width, d)
            assert abs(got - want) <= 4.5e-16 * max(1.0, abs(want)), beta

    @pytest.mark.parametrize("r", [0.5, 1.3, 7.0])
    def test_arcsine_matches_the_elliptic_integral(self, r):
        # For the arcsine law on [c - r, c + r], the mean of
        # log|y - z + i delta| is log(r/2) plus the integral over t from 0
        # to delta of (2/pi) K / sqrt(t^2 + 4 r^2), K the complete elliptic
        # integral of the first kind with complementary modulus
        # k' = t / sqrt(t^2 + 4 r^2): a Laplace transform of J_0^2
        # (Gradshteyn & Ryzhik, section 6.61).  K = pi / (2 agm(1, k'))
        # keeps its digits near t = 0, where k^2 rounds to 1.  This shares
        # no code with the Gauss-Chebyshev rule.
        c = 0.2
        m = fp.arcsine_measure(c - r, c + r)
        for eps in (10.0, 0.5, 1e-2, 1e-4, 1e-8, 1e-12):
            with mpmath.workdps(30):
                two_r = 2 * mpmath.mpf(r)

                def slope(t):  # (2/pi) K / sqrt(t^2 + 4 r^2)
                    s = mpmath.hypot(t, two_r)
                    return 1 / (mpmath.agm(1, t / s) * s)

                mean = mpmath.log(two_r / 4) + mpmath.quad(
                    slope, [0, mpmath.sqrt(mpmath.mpf(eps))])
                want = float(2 * mean)
            res = fp.regularized_energy(m, eps, tol=1e-12)
            bound = 1e-14 if res.status == "ok" else res.abs_error_estimate
            assert abs(res.value - want) <= bound, (eps, res.status)

    @pytest.mark.filterwarnings(
        "ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("eps", REG_EPS)
    @pytest.mark.parametrize("kind", ["uniform", "arcsine", "semicircle",
                                      "piecewise_linear_cdf"])
    @pytest.mark.parametrize("with_atoms", [False, True],
                             ids=["alone", "two_atoms"])
    def test_against_quadrature(self, with_atoms, kind, eps):
        mass, w = (0.75, 0.125) if with_atoms else (1.0, 0.0)
        xs = ATOMS[kind] if with_atoms else ()
        oracle = math.fsum(
            [mass * mass * _regularized_self(kind, eps)]
            + [2 * w * mass * _regularized_potential(kind, x, eps)
               for x in xs]
            + [w * w * math.log((x - y) ** 2 + eps) for x in xs for y in xs])
        m = fp.SpectralMeasure(
            support=(-4.0, 10.0) if with_atoms
            else _diffuse(kind, 1.0).interval(),
            atoms=tuple(fp.Atom(x, w) for x in xs),
            diffuse=_diffuse(kind, mass))
        assert fp.validate(m).ok
        res = fp.regularized_energy(m, eps, 1e-12)
        assert res.status == "ok"
        assert res.value == pytest.approx(oracle, abs=ORACLE_TOL)

    @pytest.mark.parametrize("kind", ["semicircle", "arcsine"])
    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-13,
                                     1e-14, 1e-15, 1e-16, 1e-18, 1e-20,
                                     1e-22])
    def test_ok_status_meets_tol(self, eps, kind):
        # Below eps ~ 3e-16 the rule cannot resolve the layer of width
        # sqrt(eps) at the ends of the support; what is returned there is
        # the eps = 0 value with a bound.
        m = (fp.semicircle_measure(0.0, 1.0) if kind == "semicircle"
             else fp.arcsine_measure(-1.0, 1.0))
        results = [fp.regularized_energy(m, eps, tol) for tol in (1e-6, 1e-10)]
        assert results[0].status == "ok"
        reference = chebyshev_reference(kind, 1.0, eps)
        for tol, res in zip((1e-6, 1e-10), results):
            assert math.isfinite(res.value)
            if res.status == "ok":
                assert res.abs_error_estimate <= tol
                assert res.value == pytest.approx(reference, abs=tol)


def _flat_bound(kind, delta):
    """The bound on a semicircle or arcsine self term that reads its
    eps = 0 value at height delta = sqrt(eps)/r, doubled as the
    regularized energy doubles it, in mpmath."""
    if kind == "semicircle":
        return 4 * delta
    with mpmath.workdps(30):
        eta = mpmath.re(mpmath.acosh(mpmath.mpc(1, delta)))
        theta = mpmath.asin(delta / eta)
        return float(4 / mpmath.pi * (eta * theta - delta
                                      * mpmath.log(mpmath.tan(theta / 2))))


class TestSelfTermRule:
    """A semicircle or arcsine self term is one Gauss-Chebyshev rule of
    ceil(20 / sigma) nodes, sigma = |Im acos(1 + i delta)|, delta =
    sqrt(eps)/r, up to 2^17 nodes, and past them the eps = 0 value with
    its bound."""

    @staticmethod
    def _measure(kind, r):
        return (fp.semicircle_measure(0.0, r) if kind == "semicircle"
                else fp.arcsine_measure(-r, r))

    @staticmethod
    def _takes_the_rule(delta):
        with mpmath.workdps(30):
            sigma = abs(mpmath.im(mpmath.acos(mpmath.mpc(1, delta))))
            return mpmath.ceil(20 / sigma) <= 2 ** 17

    @pytest.mark.parametrize("kind", ["semicircle", "arcsine"])
    @pytest.mark.parametrize("r", [0.5, 3.0])
    @pytest.mark.parametrize("delta", [1e-7, 1e-6, 1e-5, 0.03, 2.0, 1e3,
                                       1e8])
    def test_matches_mpmath(self, kind, r, delta):
        eps = (delta * r) ** 2
        res = fp.regularized_energy(self._measure(kind, r), eps, 1e-12)
        want = mpmath_self_energy(kind, r, eps)
        assert res.status == "ok"
        assert res.abs_error_estimate == 0.0
        assert abs(res.value - want) <= 1e-15 * max(1.0, abs(want))

    @pytest.mark.parametrize("kind", ["semicircle", "arcsine"])
    def test_status_at_unit_radius(self, kind):
        m = self._measure(kind, 1.0)
        for j in range(45):
            eps = 10.0 ** (-j / 2)
            for tol in (1e-6, 1e-9, 1e-12):
                res = fp.regularized_energy(m, eps, tol)
                if eps >= 1e-15 or tol == 1e-6:
                    assert res.status == "ok", (eps, tol)

    @pytest.mark.parametrize("kind", ["semicircle", "arcsine"])
    def test_estimate_is_zero_or_the_flat_bound(self, kind):
        m = self._measure(kind, 1.0)
        flat = 2.0 * math.log(0.5) - (0.5 if kind == "semicircle" else 0.0)
        for j in range(0, 45, 2):
            eps = 10.0 ** (-j / 2)
            res = fp.regularized_energy(m, eps, 1e-6)
            delta = math.sqrt(eps)
            if self._takes_the_rule(delta):
                assert res.abs_error_estimate == 0.0, eps
                continue
            assert res.value == flat, eps
            assert res.abs_error_estimate == pytest.approx(
                _flat_bound(kind, delta), rel=1e-12), eps
            assert abs(res.value - mpmath_self_energy(kind, 1.0, eps)) <= (
                res.abs_error_estimate), eps


class TestRegularizedEnergy:
    def test_monotone_in_eps(self, mixed_measure):
        values = [fp.regularized_energy(mixed_measure, e, TOL).value
                  for e in (1.0, 0.1, 0.01, 0.001)]
        assert values == sorted(values, reverse=True)

    def test_diffuse_limit_is_twice_offdiag(self, uniform01):
        # For atomless measures the off-diagonal energy is half the
        # regularized limit: the diagonal carries no mass.
        reg = fp.regularized_energy(uniform01, 1e-10, TOL).value
        assert reg == pytest.approx(2.0 * (-1.5), abs=5e-4)

    def test_atom_diagonal_carries_log_eps(self, two_atoms):
        # Purely atomic: sum w_i w_j log((a_i - a_j)^2 + eps) including
        # the diagonal, which contributes (sum w_i^2) log eps.
        eps = 1e-8
        got = fp.regularized_energy(two_atoms, eps, TOL).value
        want = 0.5 * math.log(eps) + 2 * 0.25 * math.log(1.0 + eps)
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_eps_that_is_not_finite(self, two_atoms, arcsine2):
        for m in (two_atoms, arcsine2):
            for eps in (math.inf, math.nan, 0.0, -1.0):
                with pytest.raises(ValueError, match="positive and finite"):
                    fp.regularized_energy(m, eps, TOL)

    def test_rejects_tol_that_is_not_finite(self, semicircle2):
        # tol = inf once returned status "ok" for any error estimate
        for tol in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="positive and finite"):
                fp.regularized_energy(semicircle2, 0.01, tol)

    def test_dominates_twice_offdiag(self, mixed_measure):
        # log((y-z)^2 + eps) >= 2 log|y-z| pointwise off the diagonal
        # and the diagonal only adds mass, provided eps >= 1.
        reg = fp.regularized_energy(mixed_measure, 1.0, TOL).value
        assert reg >= 2.0 * MIXED_ENERGY - 1e-9


class TestInvariances:
    @given(purely_atomic())
    @settings(max_examples=25, deadline=None)
    def test_affine_rule_atomic(self, m):
        # E(t mu + c) = E(mu) + (1 - sum w_i^2) log|t|, exactly in the
        # atomic case up to fsum rounding.
        base = fp.offdiag_energy(m).value
        alpha = fp.free_hausdorff_dimension(m)
        moved = affine_pushforward(m, -2.0, 5.0)
        got = fp.offdiag_energy(moved).value
        assert got == pytest.approx(base + alpha * math.log(2.0),
                                    abs=1e-10, rel=1e-10)

    @given(atomic_plus_uniform())
    @settings(max_examples=10, deadline=None)
    def test_translation_invariance_mixed(self, m):
        base = fp.offdiag_energy(m).value
        moved = affine_pushforward(m, 1.0, 10.0)
        got = fp.offdiag_energy(moved).value
        assert got == pytest.approx(base, abs=5e-6)

    def test_scaling_rule_diffuse(self, semicircle2):
        base = energy_value(semicircle2)
        doubled = affine_pushforward(semicircle2, 2.0, 0.0)
        assert energy_value(doubled) == pytest.approx(
            base + math.log(2.0), abs=5e-6)

    def test_reflection_invariance(self, mixed_measure):
        base = fp.offdiag_energy(mixed_measure).value
        flipped = affine_pushforward(mixed_measure, -1.0, 0.0)
        got = fp.offdiag_energy(flipped).value
        assert got == pytest.approx(base, abs=5e-6)


class TestExtremeScales:
    """The closed forms at widths and positions near the float range."""

    @pytest.mark.parametrize("kind", ["uniform", "arcsine", "semicircle",
                                      "piecewise_linear_cdf"])
    @pytest.mark.parametrize("scale", [2.0 ** -1000, 1e-300, 1e300])
    def test_scale_law(self, kind, scale):
        # E(s mu) = E(mu) + alpha log s (atom self-pairs are off the
        # integral, alpha = 1 - sum c_i^2), with an atom inside and one
        # outside the diffuse support so every potential branch counts.
        m = fp.SpectralMeasure(support=(-4.0, 10.0),
                               atoms=(fp.Atom(-3.0, 0.125),
                                      fp.Atom(1.0, 0.125)),
                               diffuse=_diffuse(kind, 0.75))
        scaled = affine_pushforward(m, scale, 0.0)
        assert fp.validate(scaled).ok
        alpha = fp.free_hausdorff_dimension(m)
        want = energy_value(m) + alpha * math.log(scale)
        assert energy_value(scaled) == pytest.approx(want, rel=1e-13)

    def test_narrow_segment_far_from_atom(self):
        # A uniform part on [1e-200, 2e-200] seen from an atom at 0.5:
        # the potential there is log 0.5 to within the width.
        m = fp.SpectralMeasure(support=(0.0, 0.5),
                               atoms=(fp.Atom(0.5, 0.5),),
                               diffuse=fp.DiffusePart(
                                   "uniform", 0.5,
                                   {"lo": 1e-200, "hi": 2e-200}))
        assert fp.validate(m).ok
        res = fp.offdiag_energy(m)
        assert res.components.atom_diffuse == pytest.approx(
            2 * 0.25 * math.log(0.5), rel=1e-15)
        assert res.components.diffuse_diffuse == pytest.approx(
            0.25 * (math.log(1e-200) - 1.5), rel=1e-15)

    @pytest.mark.parametrize("kind", ["uniform", "arcsine", "semicircle",
                                      "piecewise_linear_cdf"])
    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_regularized_scale_law(self, kind, scale):
        # E_reg(s mu, s^2 eps) = E_reg(mu, eps) + 2 log s, atom self-pairs
        # included, with an atom inside and one outside the diffuse part.
        m = fp.SpectralMeasure(support=(-4.0, 10.0),
                               atoms=(fp.Atom(-3.0, 0.125),
                                      fp.Atom(1.0, 0.125)),
                               diffuse=_diffuse(kind, 0.75))
        scaled = affine_pushforward(m, scale, 0.0)
        assert fp.validate(scaled).ok
        base = fp.regularized_energy(m, 0.01, 1e-10)
        got = fp.regularized_energy(scaled, 0.01 * scale * scale, 1e-10)
        assert base.status == got.status == "ok"
        assert got.value == pytest.approx(base.value + 2 * math.log(scale),
                                          abs=1e-10)

    @pytest.mark.parametrize("shape, h", [
        ("boundary", 1e-2), ("boundary", 1e-8), ("boundary", 1e-16),
        ("boundary", 1e-200), ("interior", 1e-6), ("interior", 1e-13),
        ("interior", 1e-15), ("twin", 1e-4), ("twin", 1e-50),
        ("twin", 1e-200)])
    def test_narrow_knot_segments(self, shape, h):
        # A narrow segment next to a wide one, against the segment-pair
        # closed forms in mpmath: a width of 1e-200 cancels 200 digits of
        # the off-diagonal pairs, and twice that of a regularized
        # diagonal pair.
        knots = {
            "boundary": [[0.0, 0.0], [h, 0.5], [1.0, 1.0]],
            "interior": [[0.0, 0.0], [0.5, 0.25], [0.5 + h, 0.75], [1.0, 1.0]],
            "twin": [[-1.0, 0.0], [-h, 0.25], [0.0, 0.5], [h, 0.75],
                     [1.0, 1.0]],
        }[shape]
        m = fp.SpectralMeasure(support=(knots[0][0], knots[-1][0]),
                               diffuse=fp.DiffusePart("piecewise_linear_cdf",
                                                      1.0, {"knots": knots}))
        assert fp.validate(m).ok
        res = fp.offdiag_energy(m)
        assert res.status == "ok"
        assert res.value == pytest.approx(_mp_knot_energy(knots, 0),
                                          abs=ORACLE_TOL)
        assert math.isfinite(fp.chi(m))
        reg = fp.regularized_energy(m, 1e-4)
        assert reg.status == "ok"
        assert reg.value == pytest.approx(2 * _mp_knot_energy(knots, 1e-2),
                                          abs=ORACLE_TOL)


def _mp_knot_energy(knots, d):
    """Mean of Re log(y - z + i d) over a piecewise-linear CDF: per segment
    pair, the second difference of g(t) = t^2 log t / 2 - 3 t^2 / 4 at the
    four corners plus i d, over both widths, in mpmath at 500 digits."""
    with mpmath.workdps(500):
        segments = [(mpmath.mpf(c1) - mpmath.mpf(c0), mpmath.mpf(x0),
                     mpmath.mpf(x1))
                    for (x0, c0), (x1, c1) in zip(knots, knots[1:])]

        def g(t):
            z = mpmath.mpc(t, d)
            return z * z * mpmath.log(z) / 2 - 3 * z * z / 4 if z else 0

        return float(mpmath.fsum(
            m * n * mpmath.re(g(b - c) + g(a - e) - g(a - c) - g(b - e))
            / ((b - a) * (e - c))
            for m, a, b in segments for n, c, e in segments))


class TestStatuses:
    def test_duplicate_atom_locations_diverge(self):
        # Not a valid spec, but the energy must report the divergence
        # rather than crash or return a finite number.
        m = fp.SpectralMeasure(support=(0.0, 1.0),
                               atoms=(fp.Atom(0.5, 0.5), fp.Atom(0.5, 0.5)))
        res = fp.offdiag_energy(m)
        assert res.status == "diverged"
        assert res.value == -math.inf

    def test_starved_quadrature_reports_not_converged(self, monkeypatch):
        # An arcsine of radius 1 takes a rule of 200 nodes at eps 1e-4 and
        # of 20000 at eps 1e-12.  With a cap of 64 both are past the cap,
        # so both return the eps = 0 value with a bound above 1e-12.
        monkeypatch.setattr(energy, "MAX_NODES", 64)
        arcsine = fp.arcsine_measure(-1.0, 1.0)
        for eps in (1e-4, 1e-12):
            res = fp.regularized_energy(arcsine, eps, 1e-12)
            assert res.status == "not_converged"
            assert res.abs_error_estimate > 1e-12
            assert math.isfinite(res.value)

    def test_regularized_result_carries_status(self, mixed_measure):
        res = fp.regularized_energy(mixed_measure, 0.1, TOL)
        assert res.status == "ok"
        assert 0.0 <= res.abs_error_estimate <= TOL
        parts = res.components
        assert res.value == math.fsum([parts.diffuse_diffuse,
                                       parts.atom_diffuse, parts.atom_atom])
        assert parts.atom_atom == pytest.approx(0.25 * math.log(0.1),
                                                rel=1e-15)

    def test_regularized_not_converged_is_reported(self, semicircle2):
        # An arcsine of radius 1 at eps 1e-18 would need more than
        # MAX_NODES nodes: its self term is the eps = 0 value, whose bound
        # of about 1.5e-8 misses tol 1e-12.
        arcsine = fp.arcsine_measure(-1.0, 1.0)
        res = fp.regularized_energy(arcsine, 1e-18, 1e-12)
        assert res.status == "not_converged"
        assert res.abs_error_estimate > 1e-12
        assert math.isfinite(res.value)
        # At eps 1e-14 the rule meets tol 1e-12.
        res = fp.regularized_energy(arcsine, 1e-14, 1e-12)
        assert res.status == "ok"
        assert abs(res.value - mpmath_self_energy("arcsine", 1.0,
                                                  1e-14)) <= 1e-15
        # The semicircle at eps 1e-8 converges.
        res = fp.regularized_energy(semicircle2, 1e-8, TOL)
        assert res.status == "ok"
        assert res.value == pytest.approx(
            chebyshev_reference("semicircle", 2.0, 1e-8), abs=TOL)

    def test_semicircle_tight_tol_is_ok(self, semicircle2):
        res = fp.offdiag_energy(semicircle2)
        assert res.status == "ok"
        assert res.value == pytest.approx(-0.25, abs=1e-12)

    def test_error_estimate_honest(self, uniform01, arcsine2, semicircle2):
        for m, truth in ((uniform01, -1.5), (arcsine2, 0.0),
                         (semicircle2, -0.25)):
            res = fp.offdiag_energy(m)
            assert abs(res.value - truth) <= max(TOL,
                                                 10 * res.abs_error_estimate)


class TestTruncationReporting:
    def test_no_tail_no_note(self, mixed_measure):
        res = fp.offdiag_energy(mixed_measure)
        assert res.truncation_bound == 0.0
        assert res.truncation_note is None

    def test_tail_bound_reported(self, example42):
        res = fp.offdiag_energy(example42)
        assert res.truncation_note is not None
        assert 0.0 < res.truncation_bound < 1e-8

    def test_regularized_tail_is_a_point_mass(self):
        # The tail of mass 2^-20 sits at its accumulation point 0 and
        # pairs with every atom and with itself, diagonal included.
        m = fp.example42_measure(1e-6)
        assert m.truncated_tail > 0.0 and m.truncated_tail_location == 0.0
        points = [(a.location, a.weight) for a in m.atoms]
        points.append((0.0, m.truncated_tail))
        eps = 1e-3
        want = math.fsum(wy * wz * math.log((y - z) ** 2 + eps)
                         for y, wy in points for z, wz in points)
        res = fp.regularized_energy(m, eps)
        assert res.status == "ok"
        assert res.value == pytest.approx(want, rel=1e-13, abs=1e-15)
        atoms_only = math.fsum(wy * wz * math.log((y - z) ** 2 + eps)
                               for y, wy in points[:-1]
                               for z, wz in points[:-1])
        assert abs(res.value - atoms_only) > 1e-9

    def test_tail_bound_scales_with_tail(self):
        coarse = fp.example42_measure(1e-4)
        fine = fp.example42_measure(1e-12)
        b_coarse = fp.offdiag_energy(coarse).truncation_bound
        b_fine = fp.offdiag_energy(fine).truncation_bound
        assert b_fine < b_coarse
