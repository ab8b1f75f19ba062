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
for eps > 0.  Three methods sum it:

* The block kernel evaluates the whole log-gap matrix of two blocks of
  values, weighted by the counts on both sides; a block paired with
  itself counts half of it.  O(m^2) for m values, exact up to rounding.
  Squared gaps that overflow are taken as logaddexp(2 log|d|, log eps).

* The cluster sum serves every pair sum that the node sum does not.  It
  splits the sorted values into leaves of _LEAF.  Two leaves are far
  apart when their gap is at least _FAR_RATIO times the wider one's
  width.  Then K is analytic in each leaf's variable inside the
  Bernstein ellipse of rho = r + sqrt(r^2 - 1), r = 1 + 2 _FAR_RATIO,
  about 4.8, so each leaf's counts are carried onto _FAR_DEGREE = p
  first-kind Chebyshev points x of its span (``_carry``), and a far pair
  A, B contributes w_A^T K(x_A - x_B) w_B, its gaps taken from the
  leaf centers' difference so that they do not carry the rounding of
  the spectrum's offset from 0.  At the threshold gap this errs by at
  most 7e-15 per pair of unit counts (the max over a 401 x 401 grid of
  two equal leaves), and wider gaps converge faster.  Near
  pairs and each leaf with itself go to the block kernel, and the
  partials are summed with ``math.fsum``; a spectrum of one leaf gets
  the block kernel's bits.  The cost is O(L U) for the near field of
  leaves of L, O(p U) for the carry and O((p U / L)^2) for the far
  pairs, evaluated together.  It is the one-level form of the fast
  multipole split (Greengard & Rokhlin, J. Comput. Phys. 73, 1987)
  with a Chebyshev far field (Fong & Darve, J. Comput. Phys. 228, 2009).

* The node sum (eps > 0) takes the whole spectrum as one far cluster.
  In t = (v - m) / h on the values' span [m - h, m + h], the kernel is
  log eps + log1p(((t - t') / s)^2) with s = sqrt(eps) / h, analytic in
  a strip of half-width s, so its 2-D Chebyshev interpolant of degree n
  converges like rho^-n, rho = exp(asinh s) (Trefethen, *Approximation
  Theory and Approximation Practice*, ch. 8).  With
  n = ceil(36.8 / asinh s) + 4, rho^-(n - 4) is about 1e-16.  The counts
  carried onto the n points are w, and the sum over all ordered pairs
  is w^T F w with F_jl the kernel at (x_j, x_l): O(nU + n^2), in
  matrix-vector products only (an n x n OpenBLAS gemm takes about 16 ms
  at n >= 128 on a 2-core host, against 0.13 ms single-threaded).
  ``pair_log_reg_sum`` tries it first.  The cluster sum runs instead
  when asinh(s) U < 36.8 (n would exceed U), when the cost rule
  ``_node_is_cheaper`` says so, or when the interpolant's last
  coefficient rows exceed 1e-13.

``shifted_log_sum`` is the cross term between values and a microstate's
evenly spaced fillers; it carries the fillers onto Chebyshev points too.
"""

from __future__ import annotations

import math

# The cluster sum: leaves of _LEAF sorted distinct values, a far pair's
# gap at least _FAR_RATIO times the wider leaf's width, and _FAR_DEGREE
# Chebyshev points per leaf (measurements in CHANGES.md).
_LEAF = 256
_FAR_RATIO = 0.75
_FAR_DEGREE = 20


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


def _chebyshev_basis(n: int):
    """basis[p, j] = T_p(x_j) = cos(p (2j + 1) pi / (2n)) at the n
    first-kind Chebyshev points x_j = basis[1, j], read from a table of
    the 4n angles so that every entry is a rounded cosine."""
    import numpy as np
    angles = np.cos(np.arange(4 * n) * (math.pi / (2 * n)))
    odd = np.arange(1, 2 * n, 2)
    return angles[np.outer(np.arange(n), odd) % (4 * n)]


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

    def moment(tp):
        return (row @ tp[..., None])[..., 0, 0]

    moments = np.empty(t.shape[:-1] + (n,))
    moments[..., 0], moments[..., 1] = 0.5 * weights.sum(axis=-1), moment(t)
    twice_t = 2.0 * t
    prev, cur, nxt = np.ones_like(t), t.copy(), np.empty_like(t)
    for p in range(2, n):
        np.multiply(twice_t, cur, out=nxt)
        np.subtract(nxt, prev, out=nxt)
        moments[..., p] = moment(nxt)
        prev, cur, nxt = cur, nxt, prev
    return (2.0 / n) * (moments @ basis)


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


def _far_partial(values, weights, lo, hi, far, eps: float) -> float:
    """Sum of K(u_a - u_b) c_a c_b over the far leaf pairs ``far``.

    Each leaf's counts are carried onto _FAR_DEGREE Chebyshev points of
    its own span [lo, hi], and a far pair of leaves A, B contributes
    w_A^T K(x_A - x_B) w_B.  All far pairs are one batched product.  The
    gaps x_A - x_B are formed from the leaf centers' difference, which is
    exact for nearby floats, so they do not carry the rounding of the
    points' absolute positions.
    """
    import numpy as np
    basis = _chebyshev_basis(_FAR_DEGREE)
    mid, half = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo
    pad = -values.size % _LEAF
    v = np.concatenate((values, np.full(pad, values[-1]))).reshape(-1, _LEAF)
    c = np.concatenate((weights, np.zeros(pad))).reshape(-1, _LEAF)
    scale = np.where(half > 0.0, half, 1.0)  # a one-value leaf has t = 0
    carried = _carry((v - mid[:, None]) / scale[:, None], c, basis)
    a, b = np.nonzero(far)
    x = basis[1]

    def gaps():
        return (np.subtract(mid[a], mid[b])[:, None, None]
                + (half[a][:, None, None] * x[:, None]
                   - half[b][:, None, None] * x[None, :]))

    partial = float(np.einsum("fi,fij,fj->", carried[a],
                              _log_kernel(gaps(), eps), carried[b]))
    if eps and not math.isfinite(partial):
        partial = float(np.einsum("fi,fij,fj->", carried[a],
                                  _wide_log_kernel(gaps(), eps), carried[b]))
    return partial


def _distinct_pair_log_sum(values, counts, eps: float) -> tuple[float, int]:
    """Sum of log((u_a - u_b)^2 + eps) c_a c_b over distinct values a < b.

    ``values`` are sorted and distinct with multiplicities ``counts``.
    At eps = 0 each term is 2 log|u_a - u_b|, so gaps whose squares
    would overflow or underflow stay finite.  Returns the sum together
    with the number of equal-value index pairs, sum c_a (c_a - 1) / 2,
    which the sum leaves out.

    This is the cluster sum: the values split into leaves of _LEAF, far
    leaf pairs go to ``_far_partial`` and the rest to the block kernel,
    and all partials are summed with ``math.fsum``.
    """
    import numpy as np
    equal = int(np.sum(counts * (counts - 1) // 2))
    weights = counts.astype(np.float64)
    n = values.size
    lo = values[0::_LEAF]
    hi = values[np.minimum(np.arange(1, lo.size + 1) * _LEAF, n) - 1]
    # Half widths and half gaps, gap[i, j] = (lo_j - hi_i) / 2, which
    # cannot overflow.
    half = 0.5 * hi - 0.5 * lo
    gap = np.subtract.outer(-0.5 * hi, -0.5 * lo)
    far = np.triu((gap >= _FAR_RATIO * np.maximum.outer(half, half))
                  & (gap > 0.0), 1)
    buffer = np.empty((min(n, _LEAF), min(n, _LEAF)))
    partials = []
    for i, j in zip(*np.nonzero(np.triu(~far))):
        i0, j0 = i * _LEAF, j * _LEAF
        vi, ci = values[i0:i0 + _LEAF], weights[i0:i0 + _LEAF]
        vj, cj = (vi, ci) if i == j else (values[j0:j0 + _LEAF],
                                          weights[j0:j0 + _LEAF])
        partials.append(_block_partial(vi, ci, vj, cj, eps, buffer))
    if far.any():
        partials.append(_far_partial(values, weights, lo, hi, far, eps))
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


def _node_is_cheaper(n: int, distinct: int) -> bool:
    """Cost rule: a node sum of degree n over U distinct values against
    the cluster sum.

    Timed on one core, the node sum costs about 2 n U + 25 n^2 + 3000 n
    ns (moment recurrence, node matrices, per-degree overhead).  The
    cluster sum costs about 2 U^2 ns while a few leaves are all near
    each other, and about 2300 U + 670000 ns from U = 1000 on: some two
    blocks of near field per leaf, the carry and the far pairs.
    """
    cluster = min(2 * distinct * distinct, 2300 * distinct + 670_000)
    return n * (2 * distinct + 25 * n + 3000) < cluster


def _node_pair_sum(values, counts, eps: float) -> float | None:
    """The regularized pair sum as a Chebyshev node sum, or None.

    None means the cluster sum is the better choice: the node sum costs
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
    basis = _chebyshev_basis(n)
    nodes = basis[1]
    carried = _carry((values - mid) / half, weights, basis)
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

    The spectrum is ``values`` repeated ``counts`` times, with the
    values strictly ascending (each value once without ``counts``; then
    the values need not be sorted or distinct).
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
    """Sum of c_a log(t_a + j/n) over the offsets t_a >= 3 and j = 1 .. n.

    The n steps are carried onto _FAR_DEGREE Chebyshev points of [0, 1]
    (``_carry``).  log(t + s) is analytic in s off s = -t <= -3, inside
    the Bernstein ellipse of rho = 7 + sqrt(48), about 13.9, so the
    carried sum errs by about rho^-_FAR_DEGREE, 1e-23, relative.
    """
    import numpy as np
    offsets = np.asarray(offsets, dtype=float)
    if offsets.size and not offsets.min() >= 3.0:
        raise ValueError(f"offsets must be at least 3, got {offsets.min()!r}")
    basis = _chebyshev_basis(_FAR_DEGREE)
    steps = np.arange(1, n + 1) * (2.0 / n) - 1.0
    carried = _carry(steps, np.ones(n), basis)
    table = np.log(np.add.outer(offsets, 0.5 + 0.5 * basis[1]))
    return float(np.asarray(counts, dtype=float) @ (table @ carried))


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
