"""Hot numeric kernels: pair log sums, Monte Carlo moments, and the
semicircle quantile solver.

All kernels are plain numpy and single-threaded, and accumulate in a
fixed order, so results are deterministic run to run.  numpy is imported
inside each kernel, so importing this module does not load it.

The pair sums run over distinct values u_a with multiplicities c_a.
Microstates store their spectra that way (each atom value repeats
floor(c_i k) times), so the U distinct values are often far fewer than
the k entries, and the cost is O(U^2) instead of O(k^2); a raw spectrum
is compressed first.  Distinct-value pairs are evaluated in square
blocks of the U x U log-gap matrix, each block is weighted by the counts
on both sides, and the block partials are summed with ``math.fsum``.
Equal-value pairs are counted, not evaluated: there are
sum c_a (c_a - 1) / 2 of them.  ``shifted_log_sum`` is the cross term
between such values and a microstate's evenly spaced fillers.
"""

from __future__ import annotations

import math

_BLOCK = 256


def backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


def _distinct_pair_log_sum(values, counts, eps: float) -> tuple[float, int]:
    """Sum of log((u_a - u_b)^2 + eps) c_a c_b over distinct values a < b.

    ``values`` are distinct with multiplicities ``counts``; with
    ``counts`` None, ``values`` is a raw spectrum and is compressed
    first.  At eps = 0 each term is 2 log|u_a - u_b|, so gaps whose
    squares would overflow or underflow stay finite.  Returns the sum
    together with the number of equal-value index pairs,
    sum c_a (c_a - 1) / 2, which the sum leaves out.
    """
    import numpy as np
    if counts is None:
        values, counts = np.unique(np.asarray(values, dtype=float),
                                   return_counts=True)
    else:
        values = np.asarray(values, dtype=float)
        counts = np.asarray(counts, dtype=np.int64)
    equal = int(np.sum(counts * (counts - 1) // 2))
    weights = counts.astype(np.float64)
    n = values.size
    buffer = np.empty((min(n, _BLOCK), min(n, _BLOCK)))
    partials = []
    for i0 in range(0, n, _BLOCK):
        vi, ci = values[i0:i0 + _BLOCK], weights[i0:i0 + _BLOCK]
        for j0 in range(i0, n, _BLOCK):
            vj, cj = values[j0:j0 + _BLOCK], weights[j0:j0 + _BLOCK]
            d = np.subtract.outer(vi, vj, out=buffer[:vi.size, :vj.size])
            if eps == 0.0:
                np.abs(d, out=d)
            else:
                with np.errstate(over="ignore"):
                    np.multiply(d, d, out=d)
                np.add(d, eps, out=d)
            # The diagonal block is symmetric: log(1) = 0 on its diagonal,
            # and the pairs a < b are half of the rest.
            half = 0.5 if j0 == i0 else 1.0
            if j0 == i0:
                np.fill_diagonal(d, 1.0)
            np.log(d, out=d)
            partial = half * float(ci @ (d @ cj))
            if eps and not math.isfinite(partial):
                # a squared gap overflowed: take log(d^2 + eps) as
                # logaddexp(2 log|d|, log eps), which cannot
                d = np.subtract.outer(vi, vj)
                with np.errstate(divide="ignore"):
                    d = np.logaddexp(2.0 * np.log(np.abs(d)), math.log(eps))
                if j0 == i0:
                    np.fill_diagonal(d, 0.0)
                partial = half * float(ci @ (d @ cj))
            partials.append(partial)
    total = math.fsum(partials)
    return (2.0 * total if eps == 0.0 else total), equal


def _check_eps(eps: float) -> float:
    """``eps`` as a float; ValueError unless it is positive and finite."""
    eps = float(eps)
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    return eps


def pair_log_reg_sum(values, eps: float, counts=None) -> float:
    """Sum of log((v_i - v_j)^2 + eps) over unordered pairs i < j.

    The spectrum is ``values`` repeated ``counts`` times (each value
    once without ``counts``; then the values need not be distinct).
    ``eps`` must be positive and finite: each equal-value pair
    contributes log eps.
    """
    eps = _check_eps(eps)
    total, equal = _distinct_pair_log_sum(values, counts, eps)
    return total + equal * math.log(eps)


def pair_log_sq_skip(values, counts=None) -> tuple[float, int]:
    """Sum of log((v_i - v_j)^2) over unordered pairs with v_i != v_j.

    The spectrum is given as for ``pair_log_reg_sum``.  Returns the sum
    together with the number of equal pairs skipped.
    """
    return _distinct_pair_log_sum(values, counts, 0.0)


def shifted_log_sum(offsets, counts, n: int) -> float:
    """Sum of c_a log(t_a + j/n) over the offsets t_a and j = 1 .. n.

    Rows of the offsets-by-steps table are taken in blocks of about
    2^16 entries and summed along the steps first.
    """
    import numpy as np
    offsets = np.asarray(offsets, dtype=float)
    weights = np.asarray(counts, dtype=float)
    steps = np.arange(1, n + 1) / n
    rows = max(1, (1 << 16) // n)
    partials = []
    for i0 in range(0, offsets.size, rows):
        table = np.log(np.add.outer(offsets[i0:i0 + rows], steps))
        partials.append(float(weights[i0:i0 + rows] @ table.sum(axis=1)))
    return math.fsum(partials)


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
