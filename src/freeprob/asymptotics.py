"""Log-domain special functions and their asymptotic diagnostics.

Everything Gamma-laden is evaluated exclusively in log space: the raw
products (factorial towers, Vandermonde-squared integrals, ball volumes
in dimension k^2) overflow float64 around k = 20.  The module provides

* ``log_gamma``: ``math.lgamma`` restricted to x > 0;
* ``selberg_log``: the closed-form squared-Vandermonde integral over the
  unit cube, assembled cancellation-free as one weighted sum of log i;
* ``selberg_mc_check``: a seeded, counter-based Monte Carlo cross-check
  of that closed form on small cubes;
* ``gamma_ratio_limit_series``: the normalized sequence
  k^{-2} selberg_log(k), which tends to -log 4;
* ``log_ball_volume``: log volume of the radius-sqrt(k) ball in R^{k^2};
* ``mehta_log_density``: the log joint eigenvalue density of the
  Gaussian Hermitian ensemble's Vandermonde-squared weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from numbers import Integral
from operator import mul
from typing import Iterable, NamedTuple

from ._kernels import pair_log_sq_skip, vandermonde_sq_moments

__all__ = [
    "GammaSeries",
    "SelbergMonteCarlo",
    "GAMMA_RATIO_LIMIT",
    "log_gamma",
    "selberg_log",
    "selberg_mc_check",
    "gamma_ratio_limit_series",
    "log_ball_volume",
    "mehta_log_density",
]

GAMMA_RATIO_LIMIT = -math.log(4.0)


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0, by ``math.lgamma``."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def _sum_log_factorials(k: int) -> float:
    """sum_{j=1..k} log j! = sum_{i<=k} (k + 1 - i) log i, exactly accumulated."""
    return math.fsum(map(mul, range(k, 0, -1), map(math.log, range(1, k + 1))))


def _check_positive_int(k, name: str = "k") -> int:
    if not isinstance(k, Integral) or isinstance(k, bool) or k < 1:
        raise ValueError(f"{name} must be a positive integer, got {k!r}")
    return int(k)


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


class SelbergMonteCarlo(NamedTuple):
    mc_estimate: float
    closed_form: float
    z_score: float


def selberg_mc_check(k: int, eps: float, samples: int,
                     seed: int = 42) -> SelbergMonteCarlo:
    """Monte Carlo check of int_{[-eps,eps]^k} prod_{i<j}(t_i-t_j)^2 dt.

    The exact value is (2 eps)^{k^2} exp(selberg_log(k)) by the change of
    variables t = -eps + 2 eps u.  Sampling uses a counter-based Philox
    stream keyed by (seed, k): runs are reproducible and the streams for
    different k are independent.  Returns the estimate, the closed form,
    and the standardized discrepancy z.

    The integrand's variance explodes with k, so k is capped at 6.
    """
    import numpy as np
    k = _check_positive_int(k)
    if k > 6:
        raise ValueError(f"selberg_mc_check supports k <= 6, got {k}")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    samples = _check_positive_int(samples, "samples")
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, k], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    scale = 2.0 * eps
    s1_parts: list[float] = []
    s2_parts: list[float] = []
    remaining = samples
    chunk = 1 << 16
    while remaining > 0:
        m = min(chunk, remaining)
        t = scale * rng.random((m, k)) - eps
        a, b = vandermonde_sq_moments(t)
        s1_parts.append(a)
        s2_parts.append(b)
        remaining -= m
    n = float(samples)
    mean = math.fsum(s1_parts) / n
    second = math.fsum(s2_parts) / n
    volume = math.exp(k * math.log(scale))
    estimate = volume * mean
    closed = math.exp(k * k * math.log(scale) + selberg_log(k))
    variance = max(0.0, second - mean * mean)
    stderr = volume * math.sqrt(variance / n)
    if stderr == 0.0:
        z = 0.0 if estimate == closed else math.inf
    else:
        z = (estimate - closed) / stderr
    return SelbergMonteCarlo(estimate, closed, z)


@dataclass(frozen=True)
class GammaSeries:
    """The normalized log Gamma-ratio sequence and its limit -log 4."""

    ks: tuple[int, ...]
    normalized_values: tuple[float, ...]
    limit: float
    gaps: tuple[float, ...]
    approach_side: str  # "below", "above", or "mixed"


def _validated_ks(ks: Iterable[int]) -> tuple[int, ...]:
    out = tuple(_check_positive_int(k) for k in ks)
    if not out:
        raise ValueError("ks must be nonempty")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError("ks must be strictly increasing")
    return out


def gamma_ratio_limit_series(ks: Iterable[int]) -> GammaSeries:
    """k^{-2} selberg_log(k) over ``ks``; the limit is -log 4.

    The finite-k gap decays like O(log k / k); the approach side is
    recorded so tests can assert a consistent one-sided trend.
    """
    ks = _validated_ks(ks)
    values = tuple(selberg_log(k) / (k * k) for k in ks)
    gaps = tuple(abs(v - GAMMA_RATIO_LIMIT) for v in values)
    sides = {v >= GAMMA_RATIO_LIMIT for v in values}
    if sides == {True}:
        side = "above"
    elif sides == {False}:
        side = "below"
    else:
        side = "mixed"
    return GammaSeries(ks=ks, normalized_values=values,
                       limit=GAMMA_RATIO_LIMIT, gaps=gaps, approach_side=side)


def log_ball_volume(k: int) -> float:
    """log of the Lebesgue volume of the radius-sqrt(k) ball in R^{k^2}.

    log L_k = (k^2/2) log(pi k) - log Gamma(k^2/2 + 1).  The normalized
    quantity k^{-2} log L_k + (1/2) log k tends to (1/2) log 2 pi e.
    """
    k = _check_positive_int(k)
    half_dim = 0.5 * k * k
    return half_dim * math.log(math.pi * k) - log_gamma(half_dim + 1.0)


def mehta_log_density(eigenvalues) -> float:
    """log of D_k prod_{i<j} (t_j - t_i)^2 at the given sorted eigenvalues.

    D_k = pi^{k(k-1)/2} / prod_{j<=k} j! is the normalizer of the joint
    eigenvalue density of the Gaussian Hermitian ensemble on the ordered
    simplex.  Repeated eigenvalues give -inf (a value, not an error);
    unsorted input is rejected.
    """
    import numpy as np
    evals = np.ascontiguousarray(eigenvalues, dtype=float)
    if evals.ndim != 1 or evals.size < 1:
        raise ValueError("eigenvalues must be a nonempty 1-D sequence")
    k = int(evals.size)
    if k > 1 and np.any(np.diff(evals) < 0.0):
        raise ValueError("eigenvalues must be sorted ascending")
    log_dk = 0.5 * k * (k - 1) * math.log(math.pi) - _sum_log_factorials(k)
    if k == 1:
        return log_dk
    pair_sum, skipped = pair_log_sq_skip(evals)
    if skipped > 0:
        return -math.inf
    return log_dk + pair_sum
