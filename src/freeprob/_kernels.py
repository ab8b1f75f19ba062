"""Hot numeric kernels: pair log sums, Monte Carlo moments, and the
semicircle quantile solver.

All kernels are plain numpy and single-threaded, and accumulate in a
fixed order, so results are deterministic run to run.  numpy is imported
inside each kernel, so importing this module does not load it.

The pair sums run over the spectrum compressed to its distinct values u_a
with multiplicities c_a.  Microstate spectra repeat each atom value
floor(c_i k) times, so the U distinct values are often far fewer than
the k entries, and the cost is O(U^2) instead of O(k^2).  Distinct-value
pairs are evaluated in square blocks of the U x U log-gap matrix, each
block is weighted by the counts on both sides, and the block partials
are summed with ``math.fsum``.  Equal-value pairs are counted, not
evaluated: there are sum c_a (c_a - 1) / 2 of them.
"""

from __future__ import annotations

import math

_BLOCK = 256


def backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


def _distinct_pair_log_sum(vals, eps: float) -> tuple[float, int]:
    """Sum of log((u_a - u_b)^2 + eps) c_a c_b over distinct values a < b.

    Returns the sum together with the number of equal-value index pairs,
    sum c_a (c_a - 1) / 2, which the sum leaves out.
    """
    import numpy as np
    values, counts = np.unique(np.asarray(vals, dtype=float),
                               return_counts=True)
    equal = int(np.sum(counts * (counts - 1) // 2))
    weights = counts.astype(np.float64)
    n = values.size
    partials = []
    for i0 in range(0, n, _BLOCK):
        vi, ci = values[i0:i0 + _BLOCK], weights[i0:i0 + _BLOCK]
        for j0 in range(i0, n, _BLOCK):
            vj, cj = values[j0:j0 + _BLOCK], weights[j0:j0 + _BLOCK]
            d = np.subtract.outer(vi, vj)
            np.multiply(d, d, out=d)
            np.add(d, eps, out=d)
            if j0 == i0:
                # Keep only a < b: log(1) = 0 on and below the diagonal.
                d[np.tril_indices(d.shape[0])] = 1.0
            np.log(d, out=d)
            partials.append(float(ci @ (d @ cj)))
    return math.fsum(partials), equal


def pair_log_reg_sum(vals, eps: float) -> float:
    """Sum of log((v_i - v_j)^2 + eps) over unordered pairs i < j.

    ``eps`` must be positive: each equal-value pair contributes log eps.
    """
    eps = float(eps)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    total, equal = _distinct_pair_log_sum(vals, eps)
    return total + equal * math.log(eps)


def pair_log_sq_skip(vals) -> tuple[float, int]:
    """Sum of log((v_i - v_j)^2) over unordered pairs with v_i != v_j.

    Returns the sum together with the number of equal pairs skipped.
    """
    return _distinct_pair_log_sum(vals, 0.0)


def vandermonde_sq_moments(t) -> tuple[float, float]:
    """First two moments of f(rows) = prod_{i<j} (t_i - t_j)^2.

    ``t`` is a (samples, k) block; returns (sum f, sum f^2).
    """
    import numpy as np
    block = np.ascontiguousarray(t, dtype=np.float64)
    m, k = block.shape
    f = np.ones(m)
    for i in range(k):
        ti = block[:, i]
        for j in range(i + 1, k):
            d = ti - block[:, j]
            f = f * (d * d)
    return float(f.sum()), float((f * f).sum())


def semicircle_quantile_unit(u) -> np.ndarray:
    """Quantile of the unit-radius semicircle law at probabilities ``u``.

    With z = -cos(psi / 2), F(z) = 1/2 + (z sqrt(1-z^2) + asin z) / pi
    becomes the parabolic Kepler equation psi - sin psi = 2 pi u.  It is
    solved for M = 2 pi min(u, 1-u) from psi = (6 M)^(1/3) by three
    Halley steps, and the sign is mirrored above u = 1/2, so the result
    is odd about u = 1/2 and u = 0, 1 map exactly to -1, 1.
    """
    import numpy as np
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    m = 2.0 * math.pi * np.minimum(u, 1.0 - u)
    psi = np.cbrt(6.0 * m)
    for _ in range(3):
        sin = np.sin(psi)
        one_minus_cos = 2.0 * np.sin(0.5 * psi) ** 2
        f = psi - sin - m
        denom = 2.0 * one_minus_cos * one_minus_cos - f * sin
        psi -= np.divide(2.0 * f * one_minus_cos, denom,
                         out=np.zeros_like(psi), where=denom != 0.0)
    return np.sign(u - 0.5) * np.cos(0.5 * psi)
