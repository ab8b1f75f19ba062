"""Log-domain special functions and their asymptotic diagnostics.

Everything Gamma-laden is evaluated exclusively in log space: the raw
products (factorial towers, Vandermonde-squared integrals) overflow
float64 around k = 20.  The module provides

* ``selberg_log``: the closed-form squared-Vandermonde integral over the
  unit cube, assembled cancellation-free as one weighted sum of log i;
* ``selberg_mc_check``: a seeded Monte Carlo cross-check of that
  closed form on small cubes;
* ``gamma_ratio_limit_series``: the normalized sequence
  k^{-2} selberg_log(k), which tends to -log 4;
* ``SeriesReport``: the record of every sampled series against its
  limit or bound, this one and the three microstate series alike.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain
from operator import index, mul

from ._kernels import _check_positive_finite, vandermonde_sq_moments
from ._record import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable

__all__ = [
    "SelbergMonteCarlo",
    "SeriesReport",
    "GAMMA_RATIO_LIMIT",
    "selberg_log",
    "selberg_mc_check",
    "gamma_ratio_limit_series",
]

GAMMA_RATIO_LIMIT = -math.log(4.0)
# The Monte Carlo seed of the library and the command line.
DEFAULT_SEED = 42
# Monte Carlo rows per draw: 2^14 ran fastest, 2^13 and 2^15 within 5%,
# 2^16 8-10% and 2^12 17-19% slower (k = 4 and 6, 10^6 samples, medians
# of 11 interleaved runs on 2 cores).
_MC_CHUNK = 1 << 14


def _check_positive_int(k, name: str = "k") -> int:
    try:
        value = index(k)
    except TypeError:
        value = 0
    if isinstance(k, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {k!r}")
    return value


def selberg_log(k: int) -> float:
    """log of prod_{j=1..k} Gamma(j+1) Gamma(j)^2 / Gamma(k+j).

    This is the closed form of the squared-Vandermonde integral
    int_{[0,1]^k} prod_{i<j} (t_i - t_j)^2 dt.  It equals

        4 sum_{j<=k} log Gamma(j) - sum_{j<=2k} log Gamma(j) + log Gamma(k+1),

    and with sum_{j<=n} log Gamma(j) = sum_{i<n} (n - i) log i this is one
    sum of integer multiples of log i, i < 2k, accumulated by exact
    compensated summation, so no two huge nearly-equal partial sums are
    ever subtracted.
    """
    k = _check_positive_int(k)
    # The weight of log i is 2k + 1 - 3i for i <= k and i - 2k for k < i < 2k.
    weights = chain(range(2 * k - 2, -k, -3), range(1 - k, 0))
    return math.fsum(map(mul, weights, map(math.log, range(1, 2 * k))))


class SelbergMonteCarlo(namedtuple("SelbergMonteCarlo",
                                    "mc_estimate closed_form z_score")):
    """A tuple (estimate, closed form, z): unpacks and indexes."""

    __slots__ = ()


def selberg_mc_check(k: int, eps: float, samples: int,
                     seed: int = DEFAULT_SEED) -> SelbergMonteCarlo:
    """Monte Carlo check of int_{[-eps,eps]^k} prod_{i<j}(t_i-t_j)^2 dt.

    By the change of variables t = -eps + 2 eps u the integral is
    (2 eps)^{k^2} times the same integral over the unit cube, whose
    exact value is exp(selberg_log(k)).  u is drawn from a PCG64 stream
    keyed by ``SeedSequence((seed, k))``, so runs are reproducible and
    the streams for different k are independent, in (k, 2^14) blocks
    whose transposes the moment kernel reads without a copy.
    Returns the estimate and the closed form on [-eps, eps]^k, and the
    standardized discrepancy z of the unit-cube moments, which does not
    depend on eps.  ValueError when (2 eps)^{k^2} times either value
    overflows, and for fewer than 2 samples, which have no variance.

    The integrand's variance explodes with k, so k is capped at 6.
    """
    import numpy as np
    k = _check_positive_int(k)
    if k > 6:
        raise ValueError(f"selberg_mc_check supports k <= 6, got {k}")
    _check_positive_finite(eps)
    samples = _check_positive_int(samples, "samples")
    if samples < 2:
        raise ValueError(f"samples must be at least 2 to estimate a "
                         f"variance, got {samples}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        (int(seed) & 0xFFFFFFFFFFFFFFFF, k))))
    s1_parts: list[float] = []
    s2_parts: list[float] = []
    for start in range(0, samples, _MC_CHUNK):
        m = min(_MC_CHUNK, samples - start)
        a, b = vandermonde_sq_moments(rng.random((k, m)).T)
        s1_parts.append(a)
        s2_parts.append(b)
    n = float(samples)
    mean = math.fsum(s1_parts) / n
    second = math.fsum(s2_parts) / n
    log_unit = selberg_log(k)
    log_volume = k * k * math.log(2.0 * eps)
    try:
        closed = math.exp(log_volume + log_unit)
        estimate = math.exp(log_volume + math.log(mean)) if mean else 0.0
    except OverflowError:
        raise ValueError(f"the integral over [-eps, eps]^k overflows a "
                         f"float at eps = {eps!r}, k = {k}") from None
    stderr = math.sqrt(max(0.0, second - mean * mean) / n)
    unit = math.exp(log_unit)
    if stderr == 0.0:
        z = 0.0 if mean == unit else math.inf
    else:
        z = (mean - unit) / stderr
    return SelbergMonteCarlo(estimate, closed, z)


class SeriesReport(Record):
    """A sampled sequence against its limit or eventual bound.

    ``relation`` is "converges_to" or "eventually_at_least".  For the
    former, ``achieved_gap`` is the signed gap at the largest k; for the
    latter it is the worst (minimum) value-minus-target over the largest
    quartile of the sampled ks, the finite stand-in for a liminf claim.
    ``status`` is "ok": every target is closed form or exact to rounding.
    ``approach_side`` is worked out from ``values`` and ``target``, not
    taken from the caller: "above" when every value is at least the
    target, "below" when every value is under it, else "mixed".  ``extras`` carries
    alternative-normalization diagnostics.
    """

    __slots__ = ("ks", "values", "target", "relation", "achieved_gap",
                 "status", "approach_side", "extras")
    _defaults = {"extras": dict, "status": "ok", "approach_side": None}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        sides = {v >= self.target for v in self.values}
        side = ("above" if sides == {True} else
                "below" if sides == {False} else "mixed")
        object.__setattr__(self, "approach_side", side)


def _validated_ks(ks: Iterable[int]) -> tuple[int, ...]:
    out = tuple(_check_positive_int(k) for k in ks)
    if not out:
        raise ValueError("ks must be nonempty")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError("ks must be strictly increasing")
    return out


def gamma_ratio_limit_series(ks: Iterable[int]) -> SeriesReport:
    """k^{-2} selberg_log(k) over ``ks``, converging to -log 4.

    The finite-k gap decays like O(log k / k); the report's
    ``approach_side`` lets tests assert a consistent one-sided trend.
    """
    ks = _validated_ks(ks)
    values = tuple(selberg_log(k) / (k * k) for k in ks)
    return SeriesReport(ks=ks, values=values, target=GAMMA_RATIO_LIMIT,
                        relation="converges_to",
                        achieved_gap=values[-1] - GAMMA_RATIO_LIMIT)
