"""Hot numeric kernels: pair log sums, Monte Carlo moments, and the
semicircle quantile solver.

All kernels are plain numpy and accumulate in a fixed order, so results
are deterministic run to run.  numpy is imported inside each kernel, so
importing this module does not load it.

The pair sums run over distinct values u_a with multiplicities c_a.
Microstates store their spectra that way (each atom value repeats
floor(c_i k) times), so the U distinct values are often far fewer than
the k entries; a raw spectrum is compressed first.

The block kernel costs O(U^2).  Distinct-value pairs are evaluated in
square blocks of the U x U log-gap matrix, each block is weighted by the
counts on both sides, and the block partials are summed with
``math.fsum``.  Equal-value pairs are counted, not evaluated: there are
sum c_a (c_a - 1) / 2 of them.  It serves eps = 0 always.

For eps > 0, ``pair_log_reg_sum`` first tries a Chebyshev node sum.  In
t = (v - m) / h on the values' span [m - h, m + h], the kernel is
log eps + log1p(((t - t') / s)^2) with s = sqrt(eps) / h, analytic in a
strip of half-width s, so its 2-D Chebyshev interpolant of degree n
converges like rho^-n, rho = exp(asinh s) (Trefethen, *Approximation
Theory and Approximation Practice*, ch. 8).  With
n = ceil(36.8 / asinh s) + 4, rho^-(n - 4) is about 1e-16.  The moments
S_p = sum_a c_a T_p(t_a) come from the three-term recurrence; the
counts carried onto the n first-kind Chebyshev points x_j are
w = (2/n) T^T S (first moment halved), and the sum over all ordered
pairs is w^T F w with F_jl the kernel at (x_j, x_l).  That costs
O(nU + n^2) instead of O(U^2), in matrix-vector products only: an n x n
OpenBLAS gemm takes about 16 ms at n >= 128 on a 2-core host, against
0.13 ms single-threaded.  The block kernel runs instead when
asinh(s) U < 36.8 (n would exceed U), when the cost rule
``_node_is_cheaper`` says so, or when the interpolant's last
coefficient rows exceed 1e-13, so every returned sum meets the block
kernel's tolerance.  ``shifted_log_sum`` is the cross term between
repeated values and a microstate's evenly spaced fillers.
"""

from __future__ import annotations

import math

_BLOCK = 256


def backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


def _distinct(values, counts):
    """(values, counts) as float and int64 arrays; with ``counts`` None,
    ``values`` is a raw spectrum and is compressed first."""
    import numpy as np
    if counts is None:
        return np.unique(np.asarray(values, dtype=float), return_counts=True)
    return np.asarray(values, dtype=float), np.asarray(counts, dtype=np.int64)


def _distinct_pair_log_sum(values, counts, eps: float) -> tuple[float, int]:
    """Sum of log((u_a - u_b)^2 + eps) c_a c_b over distinct values a < b.

    ``values`` are distinct with multiplicities ``counts``.  At eps = 0
    each term is 2 log|u_a - u_b|, so gaps whose squares would overflow
    or underflow stay finite.  Returns the sum together with the number
    of equal-value index pairs, sum c_a (c_a - 1) / 2, which the sum
    leaves out.
    """
    import numpy as np
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


# The node sum's degree n makes rho^-n = exp(-_NODE_DECAY) about 1e-16;
# its last _NODE_GUARD coefficient rows must stay below _NODE_TAIL.
_NODE_DECAY = 36.8
_NODE_GUARD = 4
_NODE_TAIL = 1e-13
_NODE_MAX_DEGREE = 512


def _node_is_cheaper(n: int, distinct: int) -> bool:
    """Cost rule: a node sum of degree n over U distinct values against
    the block kernel.

    Timed on one core, the node sum costs about 2 n U + 25 n^2 + 3000 n
    ns (moment recurrence, node matrices, per-degree overhead) and the
    block kernel about 2 U^2 ns.  Past degree _NODE_MAX_DEGREE, OpenBLAS
    splits each n x n matrix-vector product across threads; on a 2-core
    host one product in a hundred then took 12 ms at n = 768, against
    at most 0.2 ms at n = 512.
    """
    return n <= _NODE_MAX_DEGREE \
        and n * (2 * distinct + 25 * n + 3000) < 2 * distinct * distinct


def _node_pair_sum(values, counts, eps: float) -> float | None:
    """The regularized pair sum as a Chebyshev node sum, or None.

    None means the block kernel is the better choice: the node sum costs
    more, or its tail coefficients show it would miss the tolerance.
    """
    import numpy as np
    distinct = values.size
    lo, hi = float(values.min()), float(values.max())
    mid, half = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo
    if not half > 0.0:
        return None
    s = math.sqrt(eps) / half
    decay = math.asinh(s)
    if decay * distinct < _NODE_DECAY:
        return None
    n = math.ceil(_NODE_DECAY / decay) + _NODE_GUARD
    if not _node_is_cheaper(n, distinct):
        return None
    weights = counts.astype(np.float64)
    k = float(weights.sum())
    t = (values - mid) / half
    # moments[p] = sum_a c_a T_p(t_a), by the three-term recurrence.
    moments = np.empty(n)
    moments[0], moments[1] = 0.5 * k, weights @ t
    twice_t = 2.0 * t
    prev, cur, nxt = np.ones_like(t), t.copy(), np.empty_like(t)
    for p in range(2, n):
        np.multiply(twice_t, cur, out=nxt)
        np.subtract(nxt, prev, out=nxt)
        moments[p] = weights @ nxt
        prev, cur, nxt = cur, nxt, prev
    # basis[p, j] = T_p(x_j) = cos(p (2j + 1) pi / (2n)), read from a
    # table of the 4n angles so that every entry is a rounded cosine.
    angles = np.cos(np.arange(4 * n) * (math.pi / (2 * n)))
    odd = np.arange(1, 2 * n, 2)
    basis = angles[np.outer(np.arange(n), odd) % (4 * n)]
    nodes = basis[1]
    # The counts carried onto the nodes: w_j = sum_a c_a l_j(t_a), with
    # l_j(t) = (2/n) (1/2 + sum_{p>0} T_p(x_j) T_p(t)) the Lagrange basis.
    carried = (2.0 / n) * (moments @ basis)
    gaps = np.subtract.outer(nodes, nodes) / s
    np.multiply(gaps, gaps, out=gaps)
    shape = np.log1p(gaps, out=gaps)
    # Coefficient rows p >= n - _NODE_GUARD of the interpolant of
    # log1p((x - y)^2 / s^2), one matrix-vector pair per row.
    scale = (2.0 / n) ** 2
    for p in range(n - _NODE_GUARD, n):
        row = basis @ (shape @ basis[p])
        row[0] *= 0.5
        if scale * float(np.abs(row).max()) > _NODE_TAIL:
            return None
    # log eps is constant and the carried counts sum to k, so it enters
    # as k^2 log eps; the diagonal's k log eps comes off.
    return 0.5 * (k * k - k) * math.log(eps) \
        + 0.5 * float(carried @ (shape @ carried))


def pair_log_reg_sum(values, eps: float, counts=None) -> float:
    """Sum of log((v_i - v_j)^2 + eps) over unordered pairs i < j.

    The spectrum is ``values`` repeated ``counts`` times (each value
    once without ``counts``; then the values need not be distinct).
    ``eps`` must be positive and finite: each equal-value pair
    contributes log eps.
    """
    eps = _check_eps(eps)
    values, counts = _distinct(values, counts)
    total = _node_pair_sum(values, counts, eps)
    if total is None:
        total, equal = _distinct_pair_log_sum(values, counts, eps)
        total += equal * math.log(eps)
    return total


def pair_log_sq_skip(values, counts=None) -> tuple[float, int]:
    """Sum of log((v_i - v_j)^2) over unordered pairs with v_i != v_j.

    The spectrum is given as for ``pair_log_reg_sum``.  Returns the sum
    together with the number of equal pairs skipped.
    """
    return _distinct_pair_log_sum(*_distinct(values, counts), 0.0)


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

    ``t`` is a (samples, k) block; returns (sum f, sum f^2).  The block
    is copied once in column-major order, so each column is contiguous,
    and the products run in place in two buffers.
    """
    import numpy as np
    block = np.array(t, dtype=np.float64, order="F")
    m, k = block.shape
    f, d = np.ones(m), np.empty(m)
    for i in range(k):
        ti = block[:, i]
        for j in range(i + 1, k):
            np.subtract(ti, block[:, j], out=d)
            np.multiply(d, d, out=d)
            np.multiply(f, d, out=f)
    s1 = float(f.sum())
    return s1, float(np.multiply(f, f, out=f).sum())


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
