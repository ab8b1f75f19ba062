"""Hot numeric kernels: pair log sums, Monte Carlo moments, and the
semicircle quantile solver.

All kernels are plain numpy and accumulate in a fixed order, so results
are deterministic run to run.  numpy is imported inside each kernel, so
importing this module does not load it.

The pair sums run over distinct values u_a with multiplicities c_a.
Microstates store their spectra that way (each atom value repeats
floor(c_i k) times), so the U distinct values are often far fewer than
the k entries; a raw spectrum is compressed first.  Equal-value pairs
are counted, not evaluated: there are sum c_a (c_a - 1) / 2 of them.
The kernel of a gap d is K(d) = 2 log|d| at eps = 0 and log(d^2 + eps)
for eps > 0.  Two methods sum it:

* The block kernel evaluates the whole log-gap matrix of two blocks of
  values, weighted by the counts on both sides; a block paired with
  itself counts half of it.  O(m^2) for m values, exact up to rounding.
  Squared gaps that overflow are taken as logaddexp(2 log|d|, log eps).

* The cluster sum splits the sorted values into clusters, carries each
  cluster's counts onto p first-kind Chebyshev points x of its span
  (``_carry``), and sums a far pair of clusters A, B as
  w_A^T K(x_A - x_B) w_B.  A pair is far when its gap is at least
  _FAR_RATIO times the wider cluster's width: K is then analytic in each
  cluster's variable inside the Bernstein ellipse of
  rho = r + sqrt(r^2 - 1), r = 1 + 2 _FAR_RATIO, about 4.8, and at
  p = _FAR_DEGREE the threshold gap errs by at most 7e-15 per pair of
  unit counts (the max over a 401 x 401 grid of two equal leaves).  At
  eps > 0 a pair is also far when both clusters are smooth at p (a
  cluster with itself included): in t = (v - m) / h on a span
  [m - h, m + h], K is log eps + log1p(((t - t') / s)^2), s = sqrt(eps)
  / h, analytic in a strip of half-width s, so its interpolant converges
  like exp(-p asinh s) (Trefethen, *Approximation Theory and
  Approximation Practice*, ch. 8); the cluster is smooth at p when
  (p - 4) asinh s >= 36.8, about 1e-16.  The clusters are the whole
  spectrum when it is smooth at degree _MAX_DEGREE or below, else
  leaves of _LEAF.  Near pairs go to the block kernel, and the partials
  are summed with ``math.fsum``.  The cost is O(L U) for the near field
  of leaves of L, O(p U) for the carry and O((p U / L)^2) for the far
  pairs, or O(p U + p^2) for one cluster, with no n x n matrix product
  (OpenBLAS threads those: about 16 ms at n >= 128 on a 2-core host,
  against 0.13 ms single-threaded).  It is the one-level fast multipole
  split (Greengard & Rokhlin, J. Comput. Phys. 73, 1987) with a
  Chebyshev far field (Fong & Darve, J. Comput. Phys. 228, 2009).
"""

from __future__ import annotations

import functools
import math

# The cluster sum: leaves of _LEAF sorted distinct values, a far pair's
# gap at least _FAR_RATIO times the wider leaf's width, and at least
# _FAR_DEGREE Chebyshev points per cluster.  A cluster of half-width h is
# smooth at degree p when (p - _GUARD) asinh(sqrt(eps) / h) >= _DECAY.
# Smoothness admits pairs up to degree _MAX_DEGREE (no slower than 48,
# 64 or 128 on any call measured), and only in calls of more than _LEAF
# values: on 256 values one carried cluster costs 1.0-1.5x the block
# kernel (measurements in CHANGES.md).
_LEAF = 256
_FAR_RATIO = 0.75
_FAR_DEGREE = 20
_DECAY = 36.8
_GUARD = 4
_MAX_DEGREE = 96


def backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


def _distinct(values, counts):
    """(values, counts) as float and int64 arrays; with ``counts`` None,
    ``values`` is a raw spectrum and is compressed first.  Values given
    with counts must be strictly ascending: the cluster sum reads each
    leaf's span from its first and last value."""
    import numpy as np
    if counts is None:
        return np.unique(np.asarray(values, dtype=float), return_counts=True)
    values = np.asarray(values, dtype=float)
    if not np.all(values[1:] > values[:-1]):
        raise ValueError("values given with counts must be strictly "
                         "ascending")
    return values, np.asarray(counts, dtype=np.int64)


@functools.cache
def _chebyshev_basis(n: int):
    """basis[p, j] = T_p(x_j) = cos(p (2j + 1) pi / (2n)) at the n
    first-kind Chebyshev points x_j = basis[1, j], read from a table of
    the 4n angles so that every entry is a rounded cosine.  Read-only:
    each degree's table is made once."""
    import numpy as np
    angles = np.cos(np.arange(4 * n) * (math.pi / (2 * n)))
    odd = np.arange(1, 2 * n, 2)
    basis = angles[np.outer(np.arange(n), odd) % (4 * n)]
    basis.flags.writeable = False
    return basis


def _carry(t, weights, basis):
    """Weights at points t in [-1, 1] carried onto the Chebyshev points
    x_j of ``basis``, along the last axis (leading axes are separate
    clusters).

    w_j = sum_a c_a l_j(t_a), with l_j(t) = (2/n) (1/2 + sum_{p>0}
    T_p(x_j) T_p(t)) the Lagrange basis, so sum_j w_j f(x_j) equals
    sum_a c_a f(t_a) for every polynomial f of degree below n.  The
    moments S_p = sum_a c_a T_p(t_a) come from the three-term recurrence
    in O(nU).
    """
    import numpy as np
    n = len(basis)
    row = weights[..., None, :]  # each cluster's weights as a 1 x m row
    # Each moment is a 1 x 1 product written in place.
    moments = np.empty(t.shape[:-1] + (n, 1, 1))
    moments[..., 0, 0, 0] = 0.5 * weights.sum(axis=-1)
    twice_t = 2.0 * t[..., None]
    prev, cur = np.ones_like(twice_t), t[..., None].copy()
    nxt = np.empty_like(twice_t)
    np.matmul(row, cur, out=moments[..., 1, :, :])
    for p in range(2, n):
        np.multiply(twice_t, cur, out=nxt)
        np.subtract(nxt, prev, out=nxt)
        np.matmul(row, nxt, out=moments[..., p, :, :])
        prev, cur, nxt = cur, nxt, prev
    return (2.0 / n) * (moments[..., 0, 0] @ basis)


def _log_kernel(d, eps: float, diagonal: bool = False):
    """log|d| at eps = 0, else log(d^2 + eps), in place on the gaps d;
    a square block's ``diagonal`` reads 0."""
    import numpy as np
    if eps == 0.0:
        np.abs(d, out=d)
    else:
        with np.errstate(over="ignore"):
            np.multiply(d, d, out=d)
        np.add(d, eps, out=d)
    if diagonal:
        np.fill_diagonal(d, 1.0)
    return np.log(d, out=d)


def _wide_log_kernel(d, eps: float, diagonal: bool = False):
    """log(d^2 + eps) as logaddexp(2 log|d|, log eps), which stays finite
    where d^2 overflows."""
    import numpy as np
    with np.errstate(divide="ignore"):
        d = np.logaddexp(2.0 * np.log(np.abs(d)), math.log(eps))
    if diagonal:
        np.fill_diagonal(d, 0.0)
    return d


def _block_partial(vi, ci, vj, cj, eps: float, buffer) -> float:
    """The block kernel: sum of K(u_a - u_b) c_a c_b over a in one block
    of values and b in another, by the full log-gap matrix.  A block
    paired with itself (``vi is vj``) counts each pair a < b once."""
    import numpy as np
    diagonal = vi is vj
    # The diagonal block is symmetric: log(1) = 0 on its diagonal, and
    # the pairs a < b are half of the rest.
    half = 0.5 if diagonal else 1.0
    d = np.subtract.outer(vi, vj, out=buffer[:vi.size, :vj.size])
    partial = half * float(ci @ (_log_kernel(d, eps, diagonal) @ cj))
    if eps and not math.isfinite(partial):
        d = _wide_log_kernel(np.subtract.outer(vi, vj), eps, diagonal)
        partial = half * float(ci @ (d @ cj))
    return partial


def _smooth_degree(root, half):
    """The least degree p at which eps = root^2 makes a cluster of
    half-width ``half`` smooth: (p - _GUARD) asinh(root / half) >= _DECAY.
    Takes arrays; root must be positive."""
    import numpy as np
    with np.errstate(divide="ignore", over="ignore"):
        return np.ceil(_DECAY / np.arcsinh(np.divide(root, half))) + _GUARD


def _far_partial(values, weights, lo, hi, far, eps: float, size: int,
                 degree: int) -> float:
    """Sum of K(u_a - u_b) c_a c_b over the far cluster pairs ``far``,
    clusters of ``size`` values carried onto ``degree`` points.

    The gaps x_A - x_B come from the cluster centers' difference, which
    is exact for nearby floats, so they do not carry the rounding of the
    points' absolute positions.  A cluster with itself takes K as
    log eps + log1p(d^2 / eps): its log eps part is exact from the
    counts, (k_A^2 - sum c_a^2) / 2 index pairs.
    """
    import numpy as np
    basis = _chebyshev_basis(degree)
    mid, half = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo
    pad = -values.size % size
    v = np.concatenate((values, np.full(pad, values[-1]))).reshape(-1, size)
    c = np.concatenate((weights, np.zeros(pad))).reshape(-1, size)
    scale = np.where(half > 0.0, half, 1.0)  # a one-value leaf has t = 0
    carried = _carry((v - mid[:, None]) / scale[:, None], c, basis)
    offset = half[:, None] * basis[1]  # each cluster's points less its mid
    a, b = np.nonzero(far)
    own = a[a == b]
    a, b = a[a != b], b[a != b]

    def gaps():
        d = offset[a][:, :, None] - offset[b][:, None, :]
        d += np.subtract(mid[a], mid[b])[:, None, None]
        return d

    def cross(kernel):
        # an overflowed kernel entry makes the sum inf or nan, which the
        # caller retries with the wide kernel
        with np.errstate(invalid="ignore"):
            return float(np.sum(carried[a][:, None, :] @ kernel
                                @ carried[b][:, :, None]))

    partial = 0.0
    if a.size:
        partial = cross(_log_kernel(gaps(), eps))
    if eps and not math.isfinite(partial):
        partial = cross(_wide_log_kernel(gaps(), eps))
    if own.size:
        d = offset[own][:, :, None] - offset[own][:, None, :]
        shape = np.log1p(d * d / eps)
        w, counts = carried[own], c[own]
        pairs = np.sum(counts.sum(axis=1) ** 2 - np.sum(counts ** 2, axis=1))
        partial += 0.5 * (float(pairs) * math.log(eps) + float(
            np.sum(w[:, None, :] @ (shape @ w[:, :, None]))))
    return partial


def _distinct_pair_log_sum(values, counts, eps: float) -> tuple[float, int]:
    """Sum of log((u_a - u_b)^2 + eps) c_a c_b over distinct values a < b.

    ``values`` are sorted and distinct with multiplicities ``counts``.
    At eps = 0 each term is 2 log|u_a - u_b|, so gaps whose squares
    would overflow or underflow stay finite.  Returns the sum together
    with the number of equal-value index pairs, sum c_a (c_a - 1) / 2,
    which the sum leaves out.  The layout is the module docstring's.
    """
    import numpy as np
    equal = int(np.sum(counts * (counts - 1))) // 2
    weights = counts.astype(np.float64)
    n = values.size
    root = math.sqrt(eps)
    size, degree = _LEAF, _FAR_DEGREE
    may_smooth = eps > 0.0 and n > _LEAF
    if may_smooth and _smooth_degree(
            root, 0.5 * values[-1] - 0.5 * values[0]) <= _MAX_DEGREE:
        size = n
    starts = np.arange(0, n, size)
    ends = np.minimum(starts + size, n)
    lo, hi = values[starts], values[ends - 1]
    # Half widths and half gaps, gap[i, j] = (lo_j - hi_i) / 2, which
    # cannot overflow.
    half = 0.5 * hi - 0.5 * lo
    gap = np.subtract.outer(-0.5 * hi, -0.5 * lo)
    above = np.less.outer(starts, starts)
    far = above & (gap >= _FAR_RATIO * np.maximum.outer(half, half)) \
        & (gap > 0.0)
    if may_smooth:
        # the one degree: the widest cluster's, unless it passes the cap
        degrees = _smooth_degree(root, half)
        if degrees.max() <= _MAX_DEGREE:
            degree = max(degree, int(degrees.max()))
        smooth = degrees <= degree
        far |= above & np.logical_and.outer(smooth, smooth)
        np.fill_diagonal(far, smooth)
    buffer = np.empty((min(n, _LEAF), min(n, _LEAF)))
    partials = []
    for i, j in zip(*np.nonzero(~(far | above.T))):
        i0, j0 = i * size, j * size
        vi, ci = values[i0:i0 + size], weights[i0:i0 + size]
        vj, cj = (vi, ci) if i == j else (values[j0:j0 + size],
                                          weights[j0:j0 + size])
        partials.append(_block_partial(vi, ci, vj, cj, eps, buffer))
    if far.any():
        partials.append(_far_partial(values, weights, lo, hi, far, eps,
                                     size, degree))
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

    The spectrum is ``values`` repeated ``counts`` times, with the
    values strictly ascending (each value once without ``counts``; then
    the values need not be sorted or distinct).
    ``eps`` must be positive and finite: each equal-value pair
    contributes log eps.
    """
    eps = _check_eps(eps)
    total, equal = _distinct_pair_log_sum(*_distinct(values, counts), eps)
    return total + equal * math.log(eps)


def pair_log_sq_skip(values, counts=None) -> tuple[float, int]:
    """Sum of log((v_i - v_j)^2) over unordered pairs with v_i != v_j.

    The spectrum is given as for ``pair_log_reg_sum``.  Returns the sum
    together with the number of equal pairs skipped.
    """
    return _distinct_pair_log_sum(*_distinct(values, counts), 0.0)


def vandermonde_sq_moments(t) -> tuple[float, float]:
    """First two moments of f(rows) = prod_{i<j} (t_i - t_j)^2.

    ``t`` is a (samples, k) block; returns (sum f, sum f^2).  Each column
    is read contiguously from a column-major copy, which a Fortran-ordered
    block (the transpose of a (k, samples) draw) needs none of.  The
    unsquared differences are multiplied in place and the product is
    squared once at the end.
    """
    import numpy as np
    block = np.asarray(t, dtype=np.float64, order="F")
    m, k = block.shape
    f, d = np.ones(m), np.empty(m)
    for i in range(k):
        ti = block[:, i]
        for j in range(i + 1, k):
            np.multiply(f, np.subtract(ti, block[:, j], out=d), out=f)
    np.multiply(f, f, out=f)
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
