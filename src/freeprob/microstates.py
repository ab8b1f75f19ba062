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
``eigenvalues`` expands them to floats.  Pair sums over the U distinct
values take O(U^2) terms in the numpy kernel (each atom value counts
once, however often it repeats).  The fillers add U F terms
c_v 2 log((b - v) + 3 + j/F) and, because their gaps are (j - i)/F, a
closed-form filler x filler sum 2 (sum_{m<F} log m! - C(F, 2) log F).
An atom-only lower microstate has a few atoms and about sqrt(k)
fillers, so its pair sums run in ``math`` and never load numpy (up to
2^19 log terms).  k is capped at K_CAP = 5000.

Sums over the distinct-value pair set are taken over ordered pairs
(both (i, j) and (j, i)), which is the normalization under which k^{-2}
times the sum of log(b_i - b_j)^2 converges to twice the off-diagonal
energy; the series reports also carry the halved (unordered) gap so
both readings are visible.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, repeat

from ._kernels import (
    _check_eps,
    pair_log_reg_sum,
    pair_log_sq_skip,
    shifted_log_sum,
)
from ._record import Record
from .asymptotics import (
    _check_positive_int,
    _sum_log_factorials,
    _validated_ks,
    log_gamma,
)
from .energy import offdiag_energy, regularized_energy
from .entropy import free_hausdorff_dimension
from .measures import SpectralMeasure, _int_part, diffuse_quantile_batch

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable

__all__ = [
    "DiagonalMicrostate",
    "PairPartition",
    "CountingCheck",
    "SeriesReport",
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
# A pair sum without quantiles runs in plain math up to this many log
# terms, whether or not numpy is loaded, so its bits depend on the
# microstate alone.  Atom-only specs at k = 5000 (2-core box, Python
# 3.11, numpy 2.4) took 0.30-0.43 us a term in math against 5-30 ns in
# the numpy kernel, and importing numpy took about 170 ms, so
# math is quicker up to about 2^19 terms.  `series offdiag-sum --ks 5000`
# in a fresh process took 0.36 s in math against 0.48 s with numpy at
# 2.5e5 terms, 0.68 against 0.70 s at 5.8e5 and 1.09 against 0.92 s at
# 1.1e6.  Once numpy is loaded the kernel is quicker from about 200 terms
# and at most 35 us slower below; the library keeps math there anyway.
_MATH_TERMS = 1 << 19


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
    "upper" microstate (one of its ``values``).
    """

    __slots__ = ("kind", "k", "values", "counts", "atom_multiplicity_map",
                 "quantile_count", "zero_count", "filler_count",
                 "filler_base", "excluded_quantile_count")
    _defaults = {"zero_count": 0, "filler_count": 0, "filler_base": None,
                 "excluded_quantile_count": 0}

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


class SeriesReport(Record):
    """A sampled sequence against its limit or eventual bound.

    ``relation`` is "converges_to" or "eventually_at_least".  For the
    former, ``achieved_gap`` is the signed gap at the largest k; for the
    latter it is the worst (minimum) value-minus-target over the largest
    quartile of the sampled ks, the finite stand-in for a liminf claim.
    ``extras`` carries alternative-normalization diagnostics.
    ``status`` is "not_converged" when the target is a regularized
    energy that did not meet its tolerance, else "ok".
    """

    __slots__ = ("ks", "values", "target", "relation", "achieved_gap",
                 "extras", "status")
    _defaults = {"extras": dict, "status": "ok"}


def _check_k(k: int) -> int:
    k = _check_positive_int(k)
    if k > K_CAP:
        raise ValueError(f"k = {k} exceeds the cap K_CAP = {K_CAP}")
    return k


def _validated_series_ks(ks: Iterable[int]) -> tuple[int, ...]:
    ks = _validated_ks(ks)
    for k in ks:
        _check_k(k)
    return ks


# ---------------------------------------------------------------------------
# Constructions.


def _spectrum(pairs, quantiles=()) -> tuple[tuple, tuple]:
    """Ascending distinct values and their counts.

    ``pairs`` are (value, count) and ``quantiles`` an array of single
    entries; equal values merge and zero counts drop out.
    """
    if not len(quantiles):
        merged: dict[float, int] = {}
        for value, count in pairs:
            if count:
                merged[value] = merged.get(value, 0) + count
        values = sorted(merged)
        return tuple(values), tuple(merged[v] for v in values)
    import numpy as np
    pairs = [(v, m) for v, m in pairs if m]
    vals = np.concatenate([quantiles, [v for v, _ in pairs]])
    cnts = np.concatenate([np.ones(len(quantiles), dtype=np.int64),
                           np.array([m for _, m in pairs], dtype=np.int64)])
    order = np.argsort(vals, kind="stable")
    vals, cnts = vals[order], cnts[order]
    first = np.flatnonzero(np.concatenate(([True], vals[1:] != vals[:-1])))
    return (tuple(vals[first].tolist()),
            tuple(np.add.reduceat(cnts, first).tolist()))


def build_upper_microstate(measure: SpectralMeasure,
                           k: int) -> DiagonalMicrostate:
    """Quantile-fill approximant: quantiles, atom copies, zero padding.

    Entry counts are exact: floor(c k) diffuse quantiles at levels j/k,
    floor(c_i k) copies of each atom (decreasing weight), and
    k - floor(c k) - sum floor(c_i k) zeros (never negative, because the
    integer parts of masses summing to at most 1 sum to at most k).
    Quantiles that round onto each other raise ValueError: pair sums
    would take them as one repeated value.  An atom or zero equal to a
    quantile is a real repeated eigenvalue.
    """
    k = _check_k(k)
    ranked = measure.atoms_by_weight()
    quantiles = diffuse_quantile_batch(measure, k)
    repeats = int((quantiles[1:] == quantiles[:-1]).sum())
    if repeats:
        raise ValueError(
            f"k = {k}: {repeats} of the {quantiles.size} diffuse quantiles "
            f"round onto their neighbour; the diffuse part is too narrow "
            f"for its location at this k")
    mults = tuple((a.location, _int_part(a.weight * k)) for a in ranked)
    zero_count = k - quantiles.size - sum(m for _, m in mults)
    values, counts = _spectrum(mults + ((0.0, zero_count),), quantiles)
    return DiagonalMicrostate(kind="upper", k=k, values=values, counts=counts,
                              atom_multiplicity_map=mults,
                              quantile_count=int(quantiles.size),
                              zero_count=zero_count)


def build_lower_microstate(measure: SpectralMeasure,
                           k: int) -> DiagonalMicrostate:
    """Separated approximant for the packing lower-bound machinery.

    The heaviest atom appears floor(c_1 k) - floor(sqrt(k)) times (k
    must be large enough for that to be nonnegative), lighter atoms with
    positive floor(c_j k) appear that many times, interior quantiles at
    levels 2/k .. (floor(c k) - 1)/k are kept except the nearest one on
    each side of every contributing atom, and the remaining F slots hold
    fillers b + 3 + j/F strictly above the support.  The slot identity
    multiplicities + kept quantiles + fillers = k is exact.  Without
    interior quantiles no numpy is loaded.  Kept quantiles that round onto
    each other or an atom raise ValueError: pair sums would skip them.
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
    kept, excluded = (), set()
    if q >= 3:
        import numpy as np
        interior = diffuse_quantile_batch(measure, k)[1:q - 1]
        for loc, _ in mults:
            below = np.searchsorted(interior, loc, side="right") - 1
            if below >= 0:
                excluded.add(int(below))
            above = np.searchsorted(interior, loc, side="left")
            if above < interior.size:
                excluded.add(int(above))
        kept = np.delete(interior, sorted(excluded))

    values, counts = _spectrum(mults, kept)
    entries = len(kept) + sum(1 for _, m in mults if m)
    if len(values) < entries:
        raise ValueError(
            f"k = {k}: {entries - len(values)} of the {len(kept)} diffuse "
            f"quantiles round onto another quantile or an atom; the "
            f"diffuse part is too narrow for its location at this k")
    return DiagonalMicrostate(kind="lower", k=k, values=values, counts=counts,
                              atom_multiplicity_map=mults,
                              quantile_count=len(kept),
                              filler_count=k - sum(counts),
                              filler_base=measure.support[1],
                              excluded_quantile_count=len(excluded))


# ---------------------------------------------------------------------------
# Pair statistics.


def _equal_pairs(microstate: DiagonalMicrostate) -> int:
    return sum(c * (c - 1) // 2 for c in microstate.counts)


def _pair_log_sq_sum(microstate: DiagonalMicrostate) -> float:
    """Sum of log(b_i - b_j)^2 over unordered pairs with b_i != b_j.

    Fillers enter through their exact gaps, never as floats: (j - i)/F
    among themselves, summed in closed form, and (b - v) + 3 + j/F from
    a value v.  The values go to ``math`` when the microstate has no
    quantiles and at most ``_MATH_TERMS`` log terms, else to the numpy
    kernel.
    """
    values, counts = microstate.values, microstate.counts
    f = microstate.filler_count
    offsets = [(microstate.filler_base - v) + 3.0 for v in values] if f else []
    terms = []
    if f:
        terms.append(2.0 * (_sum_log_factorials(f - 1)
                            - math.comb(f, 2) * math.log(f)))
    n = len(values)
    if microstate.quantile_count or n * (n - 1) // 2 + n * f > _MATH_TERMS:
        terms.append(pair_log_sq_skip(values, counts)[0])
        if f:
            terms.append(2.0 * shifted_log_sum(offsets, counts, f))
        return math.fsum(terms)
    steps = [j / f for j in range(1, f + 1)]
    for a in range(n):
        va, ca = values[a], counts[a]
        terms.extend(2.0 * ca * counts[b] * math.log(abs(va - values[b]))
                     for b in range(a + 1, n))
        if f:
            terms.append(2.0 * ca * math.fsum(
                map(math.log, [offsets[a] + s for s in steps])))
    return math.fsum(terms)


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
                               tol: float = 1e-6) -> SeriesReport:
    """Per-k regularized pair averages of the quantile-fill microstate.

    value(k) = k^{-2} sum over ordered pairs i != j of
    log((a_i - a_j)^2 + eps), which converges to the regularized energy
    (the diagonal's k^{-1} log eps vanishes in the limit).  The single
    atom of full weight shows the trendline exactly:
    value(k) = (1 - 1/k) log eps.  ``status`` is the target's
    convergence status.
    """
    _check_eps(eps)
    ks = _validated_series_ks(ks)
    target = regularized_energy(measure, eps, tol)
    values = []
    for k in ks:
        ms = build_upper_microstate(measure, k)
        values.append(2.0 * pair_log_reg_sum(ms.values, eps, ms.counts)
                      / (k * k))
    return SeriesReport(ks=tuple(ks), values=tuple(values),
                        target=target.value, relation="converges_to",
                        achieved_gap=values[-1] - target.value,
                        status=target.status)


def _top_quartile(n: int) -> int:
    return max(1, n // 4)


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
    ks = _validated_series_ks(ks)
    target = 2.0 * offdiag_energy(measure).value
    values = []
    for k in ks:
        ms = build_lower_microstate(measure, k)
        values.append(2.0 * _pair_log_sq_sum(ms) / (k * k))
    tail = values[-_top_quartile(len(ks)):]
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
    _check_eps(eps)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    ratio = t / eps + 0.25
    if not 0.0 < ratio < _INNER_SUP:
        raise NoSolutionError(
            f"t/eps + 1/4 = {ratio:.6g} is outside (0, sqrt(2/5)) = "
            f"(0, {_INNER_SUP:.6f}); no inner radius ratio in (0, 1/2) exists")
    alpha = _inner_alpha(ratio)
    k = microstate.k
    pair_sum = pair_log_reg_sum(microstate.values, eps, microstate.counts)
    return math.fsum([
        0.5 * k * math.log(k),
        k * math.log(eps),
        -log_gamma(0.5 * k + 1.0),
        0.5 * k * (k - 1) * math.log1p(2.0 * alpha),
        2.0 * k * k * eps,
        0.5 * k * k * math.log(math.pi),
        0.5 * k * (k - 1) * math.log(2.0),
        -_sum_log_factorials(k),
        pair_sum,
    ])


def packing_constant_log(measure: SpectralMeasure, k: int, *,
                         microstate: DiagonalMicrostate | None = None) -> float:
    """Log of the packing constant assembled from the separated microstate.

    log C_k = log D_k + sum over ordered distinct-value pairs of
    log(b_i - b_j)^2 - log k! + (2 #S_k + k - k^2) log 2 + selberg_log(k),
    with D_k = pi^{k(k-1)/2} / prod_{j<=k} j! (the Mehta density
    normalizer).  All five summands live in the log domain; #S_k is the
    number of equal-value index pairs.  The three log-factorial terms,
    -sum_{j<=k} log j! - log k! + selberg_log(k), are one sum of integer
    multiples of log i, i < 2k, added exactly (``_log_sums``).
    """
    if microstate is None:
        microstate = build_lower_microstate(measure, k)
    k = microstate.k
    return _packing_log(microstate, _log_sums((k, 2 * k - 1)))


def _log_sums(ends: Iterable[int]) -> dict[int, tuple[int, int]]:
    """(A_i, B_i) = (sum_{j<=i} m_j, sum_{j<=i} j m_j) at each i in
    ``ends``, of the floats log j = m_j 2^-53.

    For j >= 2, log j > 1/2, so its float is an integer multiple of
    2^-53 (and log 1 = 0): the sums are exact integers.  B_i is
    i A_i - sum_{t<i} A_t, so two running sums replace the products.
    """
    ends = sorted(set(ends))
    m = map(int, map(float(1 << 53).__mul__,
                     map(math.log, range(1, ends[-1] + 1))))
    a = list(accumulate(m, initial=0))  # a[i] = A_i
    c = list(accumulate(a))  # c[i] = sum_{t<=i} A_t
    return {i: (a[i], i * a[i] - c[i - 1]) for i in ends}


def _packing_log(microstate: DiagonalMicrostate, sums) -> float:
    """``packing_constant_log`` with ``_log_sums`` at k and 2k - 1 (one
    table serves a series), in O(1) besides the pair sum."""
    k = microstate.k
    (ak, bk), (atop, btop) = sums[k], sums[2 * k - 1]
    # The weight of log i is k - 1 - 2i for i <= k and i - 2k for k < i < 2k.
    total = (k - 1) * ak - 2 * bk + (btop - bk) - 2 * k * (atop - ak)
    # total 2^-53 as two floats with an exact sum
    high = float(total)
    return math.fsum((
        0.5 * k * (k - 1) * math.log(math.pi),
        2.0 * _pair_log_sq_sum(microstate),
        (2 * _equal_pairs(microstate) + k - k * k) * math.log(2.0),
        math.ldexp(high, -53), math.ldexp(float(total - int(high)), -53)))


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
    ks = _validated_series_ks(ks)
    target = packing_series_target(measure)
    sums = _log_sums(chain.from_iterable((k, 2 * k - 1) for k in ks))
    values = []
    for k in ks:
        log_c = _packing_log(build_lower_microstate(measure, k), sums)
        values.append(log_c / (k * k) + 0.5 * math.log(k))
    return SeriesReport(ks=tuple(ks), values=tuple(values), target=target,
                        relation="converges_to",
                        achieved_gap=values[-1] - target)
