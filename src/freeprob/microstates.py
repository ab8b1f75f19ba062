"""Diagonal microstates, their pair statistics, and convergence series.

Two explicit diagonal-matrix approximants of a spectral measure:

* the quantile-fill microstate ("upper"): the first floor(c k) entries
  are the diffuse quantiles at levels j/k, then each atom r_i appears
  floor(c_i k) times (atoms in decreasing-weight order), and remaining
  slots are zeros.  It drives the regularized-product series and the
  packing volume upper bound.
* the separated microstate ("lower"): the heaviest atom is deflated by
  floor(sqrt(k)) copies, interior quantiles adjacent to an atom are
  excluded, and the F leftover slots get synthetic fillers
  b + 3 + j/F, j = 1..F, in (b + 3, b + 4], so they collide with
  nothing.  Its distinct-value pair sum drives the packing-constant
  lower-bound machinery.

A microstate stores its spectrum as sorted distinct values with counts,
and a lower one keeps its fillers symbolic as (F, b); only
``eigenvalues`` expands them to floats.  One pair sum serves both kinds,
at eps = 0 and at eps > 0 (``_pair_log_sum``).  Over U distinct values
the numpy kernel takes O(U^2) terms (an atom counts once, however often
it repeats).  The fillers add one Stirling difference per value
(``_filler_log_sum``) and, their gaps being (j - i)/F, log-factorials,
exact sums from one table grown on first use (``_log_factorials``) that
serves every log-factorial here.  An atom-only microstate has a few
values (a lower one also about sqrt(k) fillers), so its pair sums run in
``math`` (up to 2^18 log terms).  A uniform diffuse part's quantiles
are a grid lo + j h, and an arcsine part's with c k an integer n the
interior Chebyshev-Lobatto nodes lo + w sin^2(pi j/2n) of its interval.
Each kind has one function, ``_uniform_sums`` or ``_arcsine_sums``, that
gives the grid's own pair terms and a row that pairs any other entry
with every level, at every eps: the uniform in O(1), by Euler-Maclaurin
past a near field of at most 20 levels, the arcsine in n/2 closed-form
row products, or in O(1) from the energy's arcsine self term once
sqrt(eps) is wide against the level spacing.  A row takes each level at
its exact offset from lo, but at gap 0 when the level's float equals the
entry.  None of these loads numpy.  k is at most K_CAP.

Sums over the distinct-value pair set are taken over ordered pairs
(both (i, j) and (j, i)), which is the normalization under which k^{-2}
times the sum of log(b_i - b_j)^2 converges to twice the off-diagonal
energy; the series reports also carry the halved (unordered) gap so
both readings are visible.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, repeat
from operator import ge, mul

from ._kernels import (
    _check_positive_finite,
    pair_log_reg_sum,
    pair_log_sq_skip,
)
from ._record import Record
from .asymptotics import (
    SeriesReport,
    _check_positive_int,
    _validated_ks,
)
from .energy import (
    DEFAULT_TOL,
    _SMOOTH,
    _angle_mean,
    _centered_potential,
    _segment_mean,
    _segment_pair,
    offdiag_energy,
    regularized_energy,
)
from .entropy import free_hausdorff_dimension
from .measures import (
    SpectralMeasure,
    _diffuse_levels,
    _int_part,
    _unit_quantiles,
    diffuse_quantile_batch,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable

__all__ = [
    "DiagonalMicrostate",
    "PairPartition",
    "CountingCheck",
    "NoSolutionError",
    "build_upper_microstate",
    "build_lower_microstate",
    "pair_partition",
    "sk_counting_check",
    "regularized_product_series",
    "offdiag_sum_series",
    "volume_upper_bound_log",
    "packing_constant_log",
    "packing_constant_series",
    "packing_series_target",
]

K_CAP = 5000
# The block of values outside a grid, when it holds no quantiles, runs in
# plain math up to this many log terms, at eps = 0 and eps > 0 alike and
# whether or not numpy is loaded, so its bits depend on the microstate
# alone.  n values count n (n - 1)/2 pair terms and at most 16 each for
# their fillers (``_log_steps``).  On a 2-core box (Python 3.11, numpy
# 2.4), `series offdiag-sum --ks 5000` in a fresh process on one atom of
# weight 1/2 and n - 1 equal ones took 0.29 s in math against 0.32 s with
# numpy at n = 600 (1.9e5 terms), 0.39 against 0.37 s at 800 (3.3e5) and
# 0.52 against 0.48 s at 1000 (5.1e5), medians of 9 interleaved runs.
# Once numpy is loaded the kernel is quicker from about 200 terms and at
# most 35 us slower below; the library keeps math there anyway.
_MATH_TERMS = 1 << 18
# The table (A_i, S_i) of ``_log_factorials``: grown on first use, never at
# import, to the largest i asked for, which is at most 2 K_CAP - 1.
_LOG_FACTORIALS = ([0], [0])


class NoSolutionError(ValueError):
    """The inner-radius equation of the volume bound has no root."""


class DiagonalMicrostate(Record):
    """A diagonal matrix approximant, stored as its sorted spectrum.

    ``values`` are the ascending distinct entries other than fillers and
    ``counts`` their multiplicities (tuples of floats and ints).
    ``atom_multiplicity_map`` pairs atom locations (decreasing-weight
    order) with their entry counts.  A "lower" microstate also holds
    ``filler_count`` = F fillers b + 3 + j/F, j = 1..F, above
    ``filler_base`` = b; ``zero_count`` counts the zero padding of an
    "upper" microstate (one of its ``values``).  A uniform diffuse part,
    and in an upper microstate an arcsine part with c k an integer, has
    ``grid`` = (kind, lo, hi, c, k, first, last, holes): one quantile at
    each level j = first .. last but the holes, at p = j/(c k) of the
    part's quantile function; ``_grid_values`` renders their floats.
    ``off_grid`` is then (values, counts) of the entries besides these
    and the fillers: atoms, zeros and a top quantile at b.
    """

    __slots__ = ("kind", "k", "values", "counts", "atom_multiplicity_map",
                 "quantile_count", "zero_count", "filler_count",
                 "filler_base", "excluded_quantile_count", "grid",
                 "off_grid")
    _defaults = {"zero_count": 0, "filler_count": 0, "filler_base": None,
                 "excluded_quantile_count": 0, "grid": None,
                 "off_grid": ((), ())}

    @property
    def filler_range(self) -> tuple[float, float] | None:
        """The first and last filler as floats, None without fillers."""
        if not self.filler_count:
            return None
        top = self.filler_base + 3.0
        return top + 1 / self.filler_count, top + 1.0

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        """All k entries in ascending order, fillers expanded to floats.

        From b of about 1e15 up, 1/F is below the float spacing at b + 3
        and distinct fillers round onto equal floats; ``pair_partition``
        and the pair sums count the exact entries, not these floats.
        """
        out = list(chain.from_iterable(map(repeat, self.values, self.counts)))
        if self.filler_count:
            top, f = self.filler_base + 3.0, self.filler_count
            out.extend(top + j / f for j in range(1, f + 1))
        return tuple(out)


class PairPartition(Record):
    """Counts of equal-value vs distinct-value index pairs (i < j)."""

    __slots__ = ("k", "s_count", "w_count")


class CountingCheck(Record):
    """Evaluation of the packing counting bound 2 #S_k + k <= (1-alpha) k^2."""

    __slots__ = ("k", "s_count", "lhs", "rhs", "margin", "holds")


def _check_k(k: int) -> int:
    k = _check_positive_int(k)
    if k > K_CAP:
        raise ValueError(f"k = {k} exceeds the cap K_CAP = {K_CAP}")
    return k


# ---------------------------------------------------------------------------
# Constructions.


def _spectrum(entries, pairs=()) -> tuple[tuple, tuple]:
    """Ascending distinct values and counts of strictly ascending single
    ``entries`` and a few (value, count) ``pairs``: a pair merges with an
    equal value, found by bisection, and a zero count drops out."""
    values, counts = list(entries), [1] * len(entries)
    for value, count in pairs:
        i = bisect_left(values, value)
        if i < len(values) and values[i] == value:
            counts[i] += count
        elif count:
            values.insert(i, value)
            counts.insert(i, count)
    return tuple(values), tuple(counts)


def _check_distinct(k: int, quantiles: list[float]) -> None:
    """Refuse quantiles of which one rounds onto (or below) its
    neighbour: pair sums would take them as one repeated value."""
    repeats = sum(map(ge, quantiles, quantiles[1:]))
    if repeats:
        raise ValueError(
            f"k = {k}: {repeats} of the {len(quantiles)} diffuse quantiles "
            f"round onto their neighbour; the diffuse part is too narrow "
            f"for its location at this k")


def _grid_values(grid: tuple, levels) -> list[float]:
    """The floats of ``levels`` j of a uniform or arcsine part's grid:
    its quantiles at p = (j / k) / c."""
    kind, lo, hi, c, k = grid[:5]
    return _unit_quantiles(kind, lo, hi, [(j / k) / c for j in levels])


def _quantiles(measure: SpectralMeasure, k: int) -> tuple[list, tuple | None]:
    """``diffuse_quantile_batch(measure, k)`` as a list, and for a uniform
    or arcsine part its grid (kind, lo, hi, c, k, 1, g, ()) of the levels
    1 .. g below the top, whose value is b.  An arcsine part has a grid
    only when c k = g + 1 exactly.  Only semicircle and piecewise parts
    load numpy, in ``diffuse_quantile_batch``; the rest use ``math``."""
    diffuse = measure.diffuse
    if diffuse.kind == "empty":
        return [], None
    if diffuse.kind not in ("uniform", "arcsine"):
        return diffuse_quantile_batch(measure, k).tolist(), None
    q, g = _diffuse_levels(diffuse.mass, k)
    grid = (diffuse.kind, *diffuse.interval(), diffuse.mass, k)
    out = _grid_values(grid, range(1, g + 1))
    out += [float(measure.support[1])] * (q - g)
    if not g or diffuse.kind == "arcsine" and diffuse.mass * k != g + 1:
        return out, None
    return out, grid + (1, g, ())


def build_upper_microstate(measure: SpectralMeasure,
                           k: int) -> DiagonalMicrostate:
    """Quantile-fill approximant: quantiles, atom copies, zero padding.

    Entry counts are exact: floor(c k) diffuse quantiles at levels j/k,
    floor(c_i k) copies of each atom (decreasing weight), and
    k - floor(c k) - sum floor(c_i k) zeros (never negative, because the
    integer parts of masses summing to at most 1 sum to at most k).
    Quantiles that round onto each other raise ValueError
    (``_check_distinct``).  An atom or zero equal to a quantile is a
    real repeated eigenvalue.
    """
    k = _check_k(k)
    ranked = measure.atoms_by_weight()
    quantiles, grid = _quantiles(measure, k)
    _check_distinct(k, quantiles)
    mults = tuple((a.location, _int_part(a.weight * k)) for a in ranked)
    zero_count = k - len(quantiles) - sum(m for _, m in mults)
    rest = mults + ((0.0, zero_count),)
    values, counts = _spectrum(quantiles, rest)
    extra = {}
    if grid:
        extra = {"grid": grid,
                 "off_grid": _spectrum(quantiles[grid[6]:], rest)}
    return DiagonalMicrostate(kind="upper", k=k, values=values, counts=counts,
                              atom_multiplicity_map=mults,
                              quantile_count=len(quantiles),
                              zero_count=zero_count, **extra)


def build_lower_microstate(measure: SpectralMeasure,
                           k: int) -> DiagonalMicrostate:
    """Separated approximant for the packing lower-bound machinery.

    The heaviest atom appears floor(c_1 k) - floor(sqrt(k)) times (k
    must be large enough for that to be nonnegative), lighter atoms with
    positive floor(c_j k) appear that many times, interior quantiles at
    levels 2/k .. (floor(c k) - 1)/k are kept except the nearest one on
    each side of every contributing atom, and the remaining F slots hold
    fillers b + 3 + j/F strictly above the support.  The slot identity
    multiplicities + kept quantiles + fillers = k is exact.  numpy is
    loaded only for interior quantiles of a diffuse part that is neither
    uniform nor arcsine.  Kept quantiles that round onto each other
    (``_check_distinct``) or an atom raise ValueError: pair sums would
    skip them.
    """
    k = _check_k(k)
    ranked = measure.atoms_by_weight()
    if not ranked:
        raise ValueError("the separated microstate requires at least one atom")
    base = [_int_part(a.weight * k) for a in ranked]
    root = math.isqrt(k)
    if base[0] - root < 0:
        raise ValueError(
            f"k = {k} too small: the heaviest atom contributes {base[0]} "
            f"entries, fewer than the floor(sqrt(k)) = {root} it must shed")
    live = sum(1 for m in base if m > 0)  # weights descend, so a prefix
    mults = [(ranked[0].location, base[0] - root)]
    mults.extend((ranked[j].location, base[j]) for j in range(1, live))
    mults = tuple(mults)

    q = _int_part(measure.diffuse.mass * k)
    kept, excluded, extra = [], set(), {}
    if q >= 3:
        quantiles, grid = _quantiles(measure, k)
        interior = quantiles[1:q - 1]  # levels 2 .. q - 1, below the top
        for loc, _ in mults:  # the nearest level on each side
            excluded |= {bisect_right(interior, loc) - 1,
                         bisect_left(interior, loc)}
        excluded &= set(range(len(interior)))
        kept = [v for i, v in enumerate(interior) if i not in excluded]
        _check_distinct(k, kept)
        if grid and kept and grid[0] == "uniform":
            holes = tuple(sorted(i + 2 for i in excluded))
            extra = {"grid": grid[:5] + (2, q - 1, holes),
                     "off_grid": _spectrum((), mults)}

    values, counts = _spectrum(kept, mults)
    collisions = len(kept) + sum(1 for _, m in mults if m) - len(values)
    if collisions:
        raise ValueError(
            f"k = {k}: {collisions} of the {len(kept)} diffuse quantiles "
            f"round onto an atom; the diffuse part is too narrow for its "
            f"location at this k")
    return DiagonalMicrostate(kind="lower", k=k, values=values, counts=counts,
                              atom_multiplicity_map=mults,
                              quantile_count=len(kept),
                              filler_count=k - sum(counts),
                              filler_base=measure.support[1],
                              excluded_quantile_count=len(excluded), **extra)


# ---------------------------------------------------------------------------
# Pair statistics.


def _equal_pairs(microstate: DiagonalMicrostate) -> int:
    return sum(c * (c - 1) // 2 for c in microstate.counts)


def _stirling_tail(z: float) -> float:
    # B_2i / (2i (2i - 1) z^(2i - 1)), i = 1 .. 7, of Stirling's series
    # for log Gamma(z); from z = 10 up the next term is below 3e-17
    r = 1.0 / z
    s = r * r
    return r * (1 / 12 + s * (-1 / 360 + s * (1 / 1260 + s * (
        -1 / 1680 + s * (1 / 1188 + s * (-691 / 360360 + s / 156))))))


def _log_steps(offset: float, n: int) -> float:
    """Sum of log(offset + j/n), j = 1 .. n, for a filler's offset >= 3
    (``_filler_log_sum``): up to 16 steps one by one, else log Gamma(z + n)
    - log Gamma(z) - n log n at z = offset n + 1 >= 52, which cancels, so
    Stirling's series is differenced term by term: n ((offset + 1/(2n))
    log1p(1/(offset + 1/n)) + log(offset + 1 + 1/n) - 1) plus the tails,
    which neither cancel nor overflow."""
    if n <= 16:
        return math.fsum(math.log(offset + j / n) for j in range(1, n + 1))
    z = offset * n + 1.0
    inner = offset + 1.0 / n
    return (n * ((offset + 0.5 / n) * math.log1p(1.0 / inner)
                 + math.log(inner + 1.0) - 1.0)
            + (_stirling_tail(z + n) - _stirling_tail(z)))


def _log_factorials(top: int, units) -> tuple[float, float]:
    """``units(A, S)``, an integer combination of A_i = log i! and
    S_i = sum_{j<=i} log j!, i <= top, in units of 2^-53 of the float
    logs, as two floats with an exact sum, which ``math.fsum`` keeps.
    Every float log j, j >= 2, is a multiple of 2^-53 (log j > 1/2) and
    log 1 = 0, so the table ``_LOG_FACTORIALS``, grown to top, is exact.
    """
    global _LOG_FACTORIALS
    a, s = _LOG_FACTORIALS
    if top >= len(a):  # in new lists, so no reader sees a half-grown one
        logs = map(math.log, range(len(a), top + 1))
        m = map(int, map(float(1 << 53).__mul__, logs))  # log j = m 2^-53
        a = a[:-1] + list(accumulate(m, initial=a[-1]))
        s = s[:-1] + list(accumulate(a[len(s):], initial=s[-1]))
        _LOG_FACTORIALS = a, s
    whole, part = divmod(units(a, s), 1 << 53)
    return float(whole), part / (1 << 53)


def _filler_log_sum(offsets, counts, f: int) -> float:
    """Sum of c_a log(t_a + j/f), j = 1 .. f: from values v to the fillers
    at offsets t = (b - v) + 3, which are at least 3 (else ValueError)."""
    if offsets and not min(offsets) >= 3.0:
        raise ValueError(f"offsets must be at least 3, got {min(offsets)!r}")
    return math.fsum(map(mul, counts, map(_log_steps, offsets, repeat(f))))


def _pair_log_sum(microstate: DiagonalMicrostate, eps: float = 0.0) -> float:
    """Sum of log((b_i - b_j)^2 + eps) over unordered pairs i < j, of a
    lower microstate at eps = 0, whose equal pairs drop out, or of an
    upper one at eps > 0, whose equal pairs add log eps each.

    A grid sums in closed form, by ``_uniform_sums`` or ``_arcsine_sums``:
    its own pairs as a few terms, and each other entry's pairs with it as
    a row at the entry's offset from lo, (v - lo) for a value v and
    (b - lo) + 3 + j/F for a filler.  Fillers enter through their exact
    gaps (j - i)/F, summed in closed form, and (b - v) + 3 + j/F from a
    value v (``_filler_log_sum``).  The other values are one block, summed
    a pair at a time in ``math`` when it holds no quantiles outside a grid
    and makes at most ``_MATH_TERMS`` log terms, else by the numpy kernel.
    """
    grid, f = microstate.grid, microstate.filler_count
    root = math.sqrt(eps)  # log|d + i root| is half the log
    values, counts = (microstate.off_grid if grid
                      else (microstate.values, microstate.counts))
    terms = []
    if grid:  # terms of log|gap + i root|
        lo = grid[1]
        terms, row = (_uniform_sums if grid[0] == "uniform"
                      else _arcsine_sums)(grid, root)
        terms.extend(c * row(v - lo, v) for v, c in zip(values, counts))
        terms.extend(row((microstate.filler_base - lo) + 3.0 + j / f)
                     for j in range(1, f + 1))
    if f:
        terms += _log_factorials(f - 1, lambda a, s: s[f - 1])
        terms.append(-math.comb(f, 2) * math.log(f))
        offsets = [(microstate.filler_base - v) + 3.0 for v in values]
        terms.append(_filler_log_sum(offsets, counts, f))
    n = len(values)
    if (microstate.quantile_count and not grid
            or n * (n - 1) // 2 + n * min(f, 16) > _MATH_TERMS):
        terms.append(0.5 * (pair_log_reg_sum(values, eps, counts) if eps
                            else pair_log_sq_skip(values, counts)[0]))
    else:
        if eps:
            terms.extend(c * (c - 1) // 2 * (0.5 * math.log(eps))
                         for c in counts)
        for a in range(n):
            va, ca = values[a], counts[a]
            terms.extend(ca * counts[b]
                         * math.log(math.hypot(va - values[b], root))
                         for b in range(a + 1, n))
    return 2.0 * math.fsum(terms)


_BERNOULLI = (-1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)  # B_4..


def _uniform_sums(grid: tuple, root: float):
    """Half the pair sum of log(d^2 + root^2) over a uniform grid, as
    terms, and the row function of an entry at offset t from lo: the sum
    of log|t - x + i root| over the levels x = j h, h = (hi - lo)/(c k),
    j = first .. last but the holes.  O(1) at every root >= 0.

    At root 0 (a lower grid) the n levels pair to C(n, 2) log h +
    sum_{m<n} log m!; a hole p takes away its pairs, log h and
    log (p - first)! + log (last - p)!, and two holes give back theirs.
    At root > 0 (an upper grid, which has no holes), with a = root/h the
    summands are analytic off +-i a in level units, and from near =
    ceil(sqrt(max(0, 20^2 - a^2))) levels on they lie at least 20 from
    there, where Euler-Maclaurin's B_2 .. B_14 terms leave remainders
    below the rounding of the sums.  The grid's terms sum
    f(d) = (n - d) g(d), g(d) = log|d h + i root|, over d = 1 .. n - 1:
    one by one below d0 = min(n, max(1, near)), and from d0 on as the
    integral of f over [d0, n] (``energy._segment_pair`` over [0, n h] and
    [0, d0 h], ``energy._segment_mean`` over [0, d0 h]), f(d0)/2 and
    B_2j/(2j)! (f^(2j-1)(n) - f^(2j-1)(d0)), j = 1 .. 7, with
    f^(m) = (n - x) g^(m) - m g^(m-1) and, in level units,
    g^(m)(x) = (-1)^(m-1) (m - 1)! Re (x + i a)^-m.

    A row, at every root, sums the levels within near of t one by one at
    their exact offsets j h, each run of levels beyond them by its
    integral (``energy._segment_mean``), its end values halved and
    Stirling's tail differenced between its ends, and takes away the
    holes outside the near field.  Only the level nearest t, if inside
    the near field, pairs at gap 0 with an entry ``v`` equal to its
    float, as ``_spectrum`` merges them; no other float is rendered.
    """
    _, lo, hi, c, k, first, last, holes = grid
    h, n = (hi - lo) / (c * k), last - first + 1
    a = root / h
    near = math.ceil(math.sqrt(max(0.0, _SMOOTH * _SMOOTH - a * a)))
    skip = set(holes)

    def run(t: float, i: int, j: int) -> float:  # over levels i .. j
        p, q = complex(i * h - t, root), complex(j * h - t, root)
        return ((j - i) * _segment_mean(t, i * h, j * h, root)
                + 0.5 * (math.log(abs(p)) + math.log(abs(q)))
                + (_stirling_tail(q / h) - _stirling_tail(p / h)).real)

    def row(t: float, v: float | None = None) -> float:
        m = round(min(max(t / h, first - near), last + near))
        i, j = max(first, m - near + 1), min(last, m + near - 1)
        if i > j:  # no level within near of t
            logs = [run(t, first, last)]
        else:
            logs = [run(t, *ends) for ends in ((first, i - 1), (j + 1, last))
                    if ends[0] <= ends[1]]
            gaps = {p: t - p * h for p in range(i, j + 1) if p not in skip}
            if m in gaps and _grid_values(grid, [m]) == [v]:
                gaps[m] = 0.0
            logs.extend(math.log(math.hypot(d, root)) for d in gaps.values())
        logs.extend(-math.log(math.hypot(t - p * h, root))
                    for p in holes if not i <= p <= j)
        return math.fsum(logs)

    if not root:  # a lower grid
        terms = [math.comb(n - len(holes), 2) * math.log(h),
                 *_log_factorials(n - 1, lambda a, s: s[n - 1] - sum(
                     a[p - first] + a[last - p] for p in holes))]
        for i, p in enumerate(holes):
            terms.extend(math.log(r - p) for r in holes[i + 1:])
        return terms, row
    d0 = min(n, max(1, near))
    g0, gn = (math.log(math.hypot(d * h, root)) for d in (d0, n))
    z0, zn = h / complex(d0 * h, root), h / complex(n * h, root)
    terms = [0.5 * n * n * _segment_pair(0.0, n * h, 0.0, n * h, root),
             -0.5 * d0 * d0 * _segment_pair(0.0, d0 * h, 0.0, d0 * h, root),
             -(n - d0) * d0 * _segment_mean(0.0, 0.0, d0 * h, root),
             0.5 * (n - d0) * g0, (g0 - gn) / 12]
    terms.extend((n - d) * math.log(math.hypot(d * h, root))
                 for d in range(1, d0))
    terms.extend(b / (2 * j * (2 * j - 2))
                 * ((zn ** (2 * j - 2)).real - (z0 ** (2 * j - 2)).real)
                 for j, b in enumerate(_BERNOULLI, 2))
    terms.extend(-(n - d0) * b / (2 * j * (2 * j - 1))
                 * (z0 ** (2 * j - 1)).real
                 for j, b in enumerate((1 / 6, *_BERNOULLI), 1))
    return terms, row


def _lobatto_near(n: int, r: float, m: int, u: complex) -> float:
    """log((r/2)^(n-1) |U_{n-1}(t)|) at t = cos(theta) + u near the node
    theta = pi m/n, less log|r u|, the node's own factor, when 0 < m < n.
    With t = cos(theta + e), U_{n-1}(t) is +-sin(n e) / sin(theta + e),
    and T = tan(e/2) is the root of
    (u + 2 cos theta) T^2 + 2 sin(theta) T + u = 0 nearest 0:
    T = -u/d, d = sin theta + sqrt(sin^2 theta - u (2 cos theta + u)).
    So sin(n e) = T W with W = sin(2n atan T)/T, which tends to 2n as u
    does, and |T| / |u| = 1 / |d|: the node's factor divides out exactly,
    also where u underflows."""
    h = math.sin(0.5 * math.pi * m / n)
    g = math.sin(0.5 * math.pi * (n - m) / n)  # cos(theta / 2)
    c, s = (g - h) * (g + h), 2.0 * h * g
    d = s + cmath.sqrt(s * s - u * (2.0 * c + u))
    t = -u / d if u else 0j
    wave = abs(cmath.sin(2.0 * n * cmath.atan(t)) / t) if t else 2.0 * n
    if 0 < m < n:
        sine = (s * (1.0 - t * t) + 2.0 * c * t) / (1.0 + t * t)
        ratio = wave / (r * abs(d) * abs(sine))
    else:  # sin(theta + e) = +-2T / (1 + T^2)
        ratio = 0.5 * wave * abs(1.0 + t * t)
    return (n - 1) * math.log(0.5 * r) + math.log(ratio)


def _arcsine_sums(grid: tuple, root: float):
    """Half the pair sum of log(d^2 + root^2) over an arcsine grid with
    c k = n, as terms, and the row function of an entry at offset t from
    lo: the sum of log|t - x + i root| over the levels x.

    The levels j = 1 .. n - 1 sit at 2r sin^2(pi j/2n) from lo,
    r = (hi - lo)/2: the interior Chebyshev-Lobatto nodes, whose monic
    polynomial is (r/2)^(n-1) U_{n-1}(x/r) about the centre.  So a row,
    the sum over the levels of log|w - x| at w = z + i root (z from the
    centre), is log((r/2)^(n-1) |sin(n phi) / sin(phi)|) with
    cos(phi) = w/r.  With s = sqrt(w - r) sqrt(w + r) (no overflow up to
    root = 1e150) and zeta = (w + s)/r, |zeta| >= 1, that is
    n log|(w + s)/2| - log|s| + log|1 - zeta^(-2n)| (``far``): n times the
    arcsine potential of ``energy._centered_potential`` and a correction.
    From |zeta| >= e^(1/n) the correction cannot cancel, and from
    |zeta| >= e^(20/n) it is below 5e-18 and left out.  Closer to the
    levels a row is ``_lobatto_near`` at the nearest node, whose level it
    pairs at its exact offset 2r sin^2(pi j/2n), or at gap 0 with an entry
    ``v`` equal to its float, as ``_spectrum`` merges them.

    The grid's terms are the levels' own rows, halved, which take their
    nodes from the exact angles pi j/n and leave out their factors root:
    n/2 rows, since levels j and n - j have the same row.  Once
    n asinh(root/r) >= 20 (smooth), every real point lies past e^(20/n),
    and at x = centre - r cos(theta) the row F is even, 2 pi-periodic
    and analytic; its sum over the levels theta = pi j/n is
    n mean(F) - (F(0) + F(pi))/2 up to aliasing at frequency 2n, which
    is below the dropped correction (Trefethen & Weideman, "The
    exponentially convergent trapezoidal rule", SIAM Review 56, 2014).
    The terms halve that and take away (n - 1)/2 log root, the levels'
    own factors, in O(1).  The mean of F is n A - U: A is the arcsine self
    term at height root (``energy._angle_mean``, 252 angles at n = 5000,
    eps = 4e-5, r = 1, where 128 trapezoid angles erred by 1.7e-13 in
    ``2|Δ|/k^2``), and U, the mean of log|s|, is the arcsine potential at
    r + i root.
    """
    _, lo, hi, _, _, _, last, _ = grid
    n, r = last + 1, 0.5 * (hi - lo)
    near, full = r * math.exp(1.0 / n), r * math.exp(20.0 / n)

    def lift(x: float) -> tuple[complex, complex]:  # w + s and s at x
        w = complex(x, root)
        s = cmath.sqrt(w - r) * cmath.sqrt(w + r)
        return w + s, s

    def far(a: complex, s: complex) -> float:
        value = n * math.log(0.5 * abs(a)) - math.log(abs(s))
        if abs(a) < full:
            value += math.log(abs(1.0 - cmath.exp(-2 * n * cmath.log(a / r))))
        return value

    def row(t: float, v: float | None = None) -> float:
        a, s = lift(t - r)
        if abs(a) >= near:
            return far(a, s)
        m = round(n * cmath.phase(a) / math.pi)  # level n - m's node
        q = math.sin(0.5 * math.pi * (n - m) / n)
        gap = t - (hi - lo) * q * q
        if 0 < m < n and _grid_values(grid, [n - m]) == [v]:
            gap = 0.0
        own = math.log(math.hypot(gap, root)) if 0 < m < n else 0.0
        return _lobatto_near(n, r, m, complex(gap, root) / r) + own

    if n * math.asinh(root / r) >= _SMOOTH:
        mean = (n * _angle_mean("arcsine", r, root)
                - _centered_potential("arcsine", complex(r, root), r))
        ends = far(*lift(-r)) + far(*lift(r))
        return [0.5 * n * mean, -0.25 * ends,
                -0.5 * (n - 1) * math.log(root)], row
    log_root = math.log(root)

    def own_row(m: int) -> float:  # at node m's level, less log root
        h = math.sin(0.5 * math.pi * m / n)
        g = math.sin(0.5 * math.pi * (n - m) / n)  # cos(pi m/2n)
        s = (cmath.sqrt(complex(-2.0 * r * h * h, root))
             * cmath.sqrt(complex(2.0 * r * g * g, root)))
        a = complex(r * ((g - h) * (g + h)), root) + s
        if abs(a) >= near:
            return far(a, s) - log_root
        return _lobatto_near(n, r, m, complex(0.0, root / r))

    # each row holds each of its pairs once, so a row is half its pairs
    terms = list(map(own_row, range(1, n // 2 + 1)))
    if n % 2 == 0:
        terms[-1] *= 0.5
    return terms, row


def pair_partition(microstate: DiagonalMicrostate) -> PairPartition:
    """Split the C(k, 2) index pairs into equal-value and distinct-value."""
    k = microstate.k
    s_count = _equal_pairs(microstate)
    return PairPartition(k=k, s_count=s_count,
                         w_count=k * (k - 1) // 2 - s_count)


def sk_counting_check(measure: SpectralMeasure,
                      microstate: DiagonalMicrostate) -> CountingCheck:
    """Evaluate 2 #S_k + k <= (1 - alpha) k^2 and report the margin.

    The bound is claimed only for large k; this reports rather than
    assumes, so small-k failures show up as a negative margin.
    """
    part = pair_partition(microstate)
    alpha = free_hausdorff_dimension(measure)
    lhs = 2.0 * part.s_count + part.k
    rhs = (1.0 - alpha) * part.k ** 2
    return CountingCheck(k=part.k, s_count=part.s_count, lhs=lhs, rhs=rhs,
                         margin=rhs - lhs, holds=lhs <= rhs)


# ---------------------------------------------------------------------------
# Convergence series.


def regularized_product_series(measure: SpectralMeasure, eps: float,
                               ks: Iterable[int],
                               tol: float = DEFAULT_TOL) -> SeriesReport:
    """Per-k regularized pair averages of the quantile-fill microstate.

    value(k) = k^{-2} sum over ordered pairs i != j of
    log((a_i - a_j)^2 + eps), which converges to the regularized energy
    (the diagonal's k^{-1} log eps vanishes in the limit).  The single
    atom of full weight shows the trendline exactly:
    value(k) = (1 - 1/k) log eps.  ``status`` is the target's
    convergence status.
    """
    ks = tuple(map(_check_k, _validated_ks(ks)))
    target = regularized_energy(measure, eps, tol)
    values = [2.0 * _pair_log_sum(build_upper_microstate(measure, k), eps)
              / (k * k) for k in ks]
    return SeriesReport(ks=tuple(ks), values=tuple(values),
                        target=target.value, relation="converges_to",
                        achieved_gap=values[-1] - target.value,
                        status=target.status)


def offdiag_sum_series(measure: SpectralMeasure,
                       ks: Iterable[int]) -> SeriesReport:
    """Distinct-value pair averages of the separated microstate.

    value(k) = k^{-2} sum over ordered distinct-value pairs of
    log(b_i - b_j)^2, eventually at least the target 2 E (twice the
    off-diagonal energy).  ``achieved_gap`` is the worst value-minus-
    target over the largest quartile of ks; ``extras`` records the same
    gap under the halved (unordered-pair) normalization, so both
    readings of the sum are reported.
    """
    ks = tuple(map(_check_k, _validated_ks(ks)))
    target = 2.0 * offdiag_energy(measure).value
    values = [2.0 * _pair_log_sum(build_lower_microstate(measure, k))
              / (k * k) for k in ks]
    tail = values[-max(1, len(ks) // 4):]
    achieved = min(v - target for v in tail)
    half = min(0.5 * v - target for v in tail)
    return SeriesReport(ks=tuple(ks), values=tuple(values), target=target,
                        relation="eventually_at_least", achieved_gap=achieved,
                        extras={"unordered_normalization_gap": half})


# ---------------------------------------------------------------------------
# Packing volume bounds.


_INNER_SUP = math.sqrt(0.4)


def _inner_alpha(s: float) -> float:
    # sqrt((a + 2a^2) / (a + 2)) = s is the quadratic
    # 2a^2 + (1 - s^2) a - 2 s^2 = 0; its positive root, written without
    # the cancellation of the textbook form.
    b = 1.0 - s * s
    return 4.0 * s * s / (b + math.sqrt(b * b + 16.0 * s * s))


def volume_upper_bound_log(microstate: DiagonalMicrostate, eps: float,
                           t: float) -> float:
    """Log of the neighborhood-volume upper bound at scales (eps, t).

    Evaluates, entirely in the log domain,
    k^{k/2} eps^k Gamma(k/2+1)^{-1} (1+2a)^{k(k-1)/2} e^{2 k^2 eps}
    pi^{k^2/2} 2^{k(k-1)/2} (prod_j j!)^{-1}
    prod_{i<j} ((a_i - a_j)^2 + eps),
    where the inner radius ratio a in (0, 1/2) solves
    sqrt((a + 2a^2) / (a + 2)) = t/eps + 1/4 (a quadratic's positive root).
    Raises NoSolutionError when a finite t puts t/eps + 1/4 outside the
    range (0, sqrt(2/5)) of the left side, ValueError for a non-finite t.
    """
    if microstate.kind != "upper":
        raise ValueError("the volume bound is defined for the quantile-fill "
                         "(upper) microstate")
    _check_positive_finite(eps)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    ratio = t / eps + 0.25
    if not 0.0 < ratio < _INNER_SUP:
        raise NoSolutionError(
            f"t/eps + 1/4 = {ratio:.6g} is outside (0, sqrt(2/5)) = "
            f"(0, {_INNER_SUP:.6f}); no inner radius ratio in (0, 1/2) exists")
    alpha = _inner_alpha(ratio)
    k = microstate.k
    pair_sum = _pair_log_sum(microstate, eps)
    return math.fsum([
        0.5 * k * math.log(k),
        k * math.log(eps),
        -math.lgamma(0.5 * k + 1.0),
        0.5 * k * (k - 1) * math.log1p(2.0 * alpha),
        2.0 * k * k * eps,
        0.5 * k * k * math.log(math.pi),
        0.5 * k * (k - 1) * math.log(2.0),
        *_log_factorials(k, lambda a, s: -s[k]),
        pair_sum,
    ])


def packing_constant_log(microstate: DiagonalMicrostate) -> float:
    """Log of the packing constant of a separated (lower) microstate.

    log C_k = log D_k + sum over ordered distinct-value pairs of
    log(b_i - b_j)^2 - log k! + (2 #S_k + k - k^2) log 2 + selberg_log(k),
    with D_k = pi^{k(k-1)/2} / prod_{j<=k} j! (the Mehta density
    normalizer).  All five summands live in the log domain; #S_k is the
    number of equal-value index pairs.  The three log-factorial terms,
    -sum_{j<=k} log j! - log k! + selberg_log(k), are
    4 S_{k-1} - S_{2k-1} - S_k with S_i = sum_{j<=i} log j! (the log k!
    terms cancel), added exactly (``_log_factorials``).
    """
    if microstate.kind != "lower":
        raise ValueError("the packing constant is defined for the separated "
                         "(lower) microstate")
    k = microstate.k
    return math.fsum((
        0.5 * k * (k - 1) * math.log(math.pi),
        2.0 * _pair_log_sum(microstate),
        (2 * _equal_pairs(microstate) + k - k * k) * math.log(2.0),
        *_log_factorials(2 * k - 1,
                         lambda a, s: 4 * s[k - 1] - s[2 * k - 1] - s[k])))


def packing_series_target(measure: SpectralMeasure) -> float:
    """Limit of the normalized packing-constant series.

    2E + (1/2) log pi + 3/4 - alpha log 2 - log 4: twice the off-diagonal
    energy plus the aggregate of the Mehta normalizer, factorial, pair-
    doubling, and Selberg limits.
    """
    e = offdiag_energy(measure).value
    alpha = free_hausdorff_dimension(measure)
    return (2.0 * e + 0.5 * math.log(math.pi) + 0.75
            - alpha * math.log(2.0) - math.log(4.0))


def packing_constant_series(measure: SpectralMeasure,
                            ks: Iterable[int]) -> SeriesReport:
    """Normalized packing constants k^{-2} log C_k + (1/2) log k per k.

    Converges (slowly, at the sqrt(k)/k scale of the atom deflation) to
    ``packing_series_target``; approach is from above.
    """
    ks = tuple(map(_check_k, _validated_ks(ks)))
    target = packing_series_target(measure)
    values = [packing_constant_log(build_lower_microstate(measure, k))
              / (k * k) + 0.5 * math.log(k) for k in ks]
    return SeriesReport(ks=tuple(ks), values=tuple(values), target=target,
                        relation="converges_to",
                        achieved_gap=values[-1] - target)
