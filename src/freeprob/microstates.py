"""Diagonal microstates, their pair statistics, and convergence series.

Two explicit diagonal-matrix approximants of a spectral measure:

* the quantile-fill microstate ("upper"): the first floor(c k) entries
  are the diffuse quantiles at levels j/k, then each atom r_i appears
  floor(c_i k) times (atoms in decreasing-weight order), and remaining
  slots are zeros.  It drives the regularized-product series and the
  packing volume upper bound.
* the separated microstate ("lower"): the heaviest atom is deflated by
  floor(sqrt(k)) copies, interior quantiles adjacent to an atom are
  excluded, and leftover slots get synthetic fillers in (b + 3, b + 4]
  so they collide with nothing.  Its distinct-value pair sum drives the
  packing-constant lower-bound machinery.

Pair sums run over the distinct eigenvalues weighted by their
multiplicities, in O(U^2) for U distinct values (each atom value counts
once, however often it repeats); k is capped at K_CAP = 5000.  Sums over
the distinct-value pair set are taken over ordered pairs (both (i, j)
and (j, i)), which is the normalization under which k^{-2} times the
sum of log(b_i - b_j)^2 converges to twice the off-diagonal energy; the
series reports also carry the halved (unordered) gap so both readings
are visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import mul
from typing import Iterable

from ._kernels import pair_log_reg_sum, pair_log_sq_skip
from .asymptotics import (
    _check_positive_int,
    _sum_log_factorials,
    _validated_ks,
    log_gamma,
)
from .energy import offdiag_energy, regularized_energy
from .entropy import free_hausdorff_dimension
from .measures import SpectralMeasure, _int_part, diffuse_quantile_batch

__all__ = [
    "K_CAP",
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


class NoSolutionError(ValueError):
    """The inner-radius equation of the volume bound has no root."""


@dataclass(frozen=True)
class DiagonalMicrostate:
    """A diagonal matrix approximant, stored as its sorted spectrum.

    ``eigenvalues`` is ascending, length ``k``; treat it as read-only.
    ``atom_multiplicity_map`` pairs atom locations (decreasing-weight
    order) with their entry counts.  ``filler_range`` spans the
    synthetic entries of a "lower" microstate, None for "upper";
    ``zero_count`` counts the zero padding of an "upper" microstate.
    """

    kind: str
    k: int
    eigenvalues: np.ndarray
    atom_multiplicity_map: tuple[tuple[float, int], ...]
    quantile_count: int
    zero_count: int = 0
    filler_count: int = 0
    filler_range: tuple[float, float] | None = None
    excluded_quantile_count: int = 0
    live_atom_count: int = 0


@dataclass(frozen=True)
class PairPartition:
    """Counts of equal-value vs distinct-value index pairs (i < j)."""

    k: int
    s_count: int
    w_count: int


@dataclass(frozen=True)
class CountingCheck:
    """Evaluation of the packing counting bound 2 #S_k + k <= (1-alpha) k^2."""

    k: int
    s_count: int
    lhs: float
    rhs: float
    margin: float
    holds: bool


@dataclass(frozen=True)
class SeriesReport:
    """A sampled sequence against its limit or eventual bound.

    ``relation`` is "converges_to" or "eventually_at_least".  For the
    former, ``achieved_gap`` is the signed gap at the largest k; for the
    latter it is the worst (minimum) value-minus-target over the largest
    quartile of the sampled ks, the finite stand-in for a liminf claim.
    ``extras`` carries alternative-normalization diagnostics.
    ``status`` is "not_converged" when the target is a regularized
    energy that did not meet its tolerance, else "ok".
    """

    ks: tuple[int, ...]
    values: tuple[float, ...]
    target: float
    relation: str
    achieved_gap: float
    extras: dict[str, float] = field(default_factory=dict)
    status: str = "ok"


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


def build_upper_microstate(measure: SpectralMeasure,
                           k: int) -> DiagonalMicrostate:
    """Quantile-fill approximant: quantiles, atom copies, zero padding.

    Entry counts are exact: floor(c k) diffuse quantiles at levels j/k,
    floor(c_i k) copies of each atom (decreasing weight), and
    k - floor(c k) - sum floor(c_i k) zeros (never negative, because the
    integer parts of masses summing to at most 1 sum to at most k).
    """
    import numpy as np
    k = _check_k(k)
    ranked = measure.atoms_by_weight()
    quantiles = diffuse_quantile_batch(measure, k)
    mults = tuple((a.location, _int_part(a.weight * k)) for a in ranked)
    zero_count = k - quantiles.size - sum(m for _, m in mults)
    parts = [quantiles]
    parts.extend(np.full(m, loc) for loc, m in mults)
    parts.append(np.zeros(zero_count))
    eig = np.sort(np.concatenate(parts))
    return DiagonalMicrostate(kind="upper", k=k, eigenvalues=eig,
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
    each side of every contributing atom, and the remaining slots hold
    fillers b + 3 + j/F strictly above the support.  The slot identity
    multiplicities + kept quantiles + fillers = k is exact.
    """
    import numpy as np
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
    interior = diffuse_quantile_batch(measure, k)[1:q - 1] if q >= 3 else np.empty(0)
    excluded: set[int] = set()
    for loc, _ in mults:
        below = np.searchsorted(interior, loc, side="right") - 1
        if below >= 0:
            excluded.add(int(below))
        above = np.searchsorted(interior, loc, side="left")
        if above < interior.size:
            excluded.add(int(above))
    kept = np.delete(interior, sorted(excluded))

    filler_count = k - sum(m for _, m in mults) - kept.size
    b = measure.support[1]
    fillers = b + 3.0 + np.arange(1, filler_count + 1) / filler_count
    parts = [np.full(m, loc) for loc, m in mults]
    parts.append(kept)
    parts.append(fillers)
    eig = np.sort(np.concatenate(parts))
    return DiagonalMicrostate(kind="lower", k=k, eigenvalues=eig,
                              atom_multiplicity_map=mults,
                              quantile_count=int(kept.size),
                              filler_count=int(filler_count),
                              filler_range=(float(fillers[0]), float(fillers[-1])),
                              excluded_quantile_count=len(excluded),
                              live_atom_count=live)


# ---------------------------------------------------------------------------
# Pair statistics.


def pair_partition(microstate: DiagonalMicrostate) -> PairPartition:
    """Split the C(k, 2) index pairs into equal-value and distinct-value.

    For a "lower" microstate, equal values can only occur at atom
    locations (quantiles are strictly increasing, fillers distinct and
    disjoint from the support); a repeated non-atom value raises
    ValueError.
    """
    import numpy as np
    values, counts = np.unique(microstate.eigenvalues, return_counts=True)
    s_count = int(sum(int(c) * (int(c) - 1) // 2 for c in counts))
    k = microstate.k
    if microstate.kind == "lower":
        atom_locs = {loc for loc, _ in microstate.atom_multiplicity_map}
        repeated = values[counts > 1]
        if not all(float(v) in atom_locs for v in repeated):
            raise ValueError("separated microstate repeats a non-atom value")
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
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    ks = _validated_series_ks(ks)
    target = regularized_energy(measure, eps, tol)
    values = []
    for k in ks:
        ms = build_upper_microstate(measure, k)
        values.append(2.0 * pair_log_reg_sum(ms.eigenvalues, eps) / (k * k))
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
        pair_sum, _ = pair_log_sq_skip(ms.eigenvalues)
        values.append(2.0 * pair_sum / (k * k))
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
    Raises NoSolutionError when t/eps + 1/4 falls outside the range
    (0, sqrt(2/5)) of the left side.
    """
    if microstate.kind != "upper":
        raise ValueError("the volume bound is defined for the quantile-fill "
                         "(upper) microstate")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    ratio = t / eps + 0.25
    if not 0.0 < ratio < _INNER_SUP:
        raise NoSolutionError(
            f"t/eps + 1/4 = {ratio:.6g} is outside (0, sqrt(2/5)) = "
            f"(0, {_INNER_SUP:.6f}); no inner radius ratio in (0, 1/2) exists")
    alpha = _inner_alpha(ratio)
    k = microstate.k
    pair_sum = pair_log_reg_sum(microstate.eigenvalues, eps)
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
    equal-pair count of the pair kernel.  The three log-factorial terms,
    -sum_{j<=k} log j! - log k! + selberg_log(k), are one sum of integer
    multiples of log i, i < 2k, added in the same exact fsum as the rest.
    """
    if microstate is None:
        microstate = build_lower_microstate(measure, k)
    k = microstate.k
    pair_sum, s_count = pair_log_sq_skip(microstate.eigenvalues)
    # The weight of log i is k - 1 - 2i for i <= k and i - 2k for k < i < 2k.
    weights = chain(range(k - 3, -k - 2, -2), range(1 - k, 0))
    return math.fsum(chain(
        (0.5 * k * (k - 1) * math.log(math.pi), 2.0 * pair_sum,
         (2 * s_count + k - k * k) * math.log(2.0)),
        map(mul, weights, map(math.log, range(1, 2 * k)))))


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
    values = []
    for k in ks:
        ms = build_lower_microstate(measure, k)
        log_c = packing_constant_log(measure, k, microstate=ms)
        values.append(log_c / (k * k) + 0.5 * math.log(k))
    return SeriesReport(ks=tuple(ks), values=tuple(values), target=target,
                        relation="converges_to",
                        achieved_gap=values[-1] - target)
