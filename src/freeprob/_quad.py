"""Adaptive Gauss-Legendre quadrature with embedded error estimates.

Both engines (1-D panels, 2-D cells) follow the same wave pattern: every
active region carries a low/high-order Gauss pair whose difference
estimates its error; each wave splits all regions whose error is within
a factor of the current worst and evaluates the children in a single
vectorized call.  Batching matters because each integrand call is one
numpy evaluation whose fixed overhead is amortized over large point
arrays.

Totals are compensated sums over lexicographically sorted regions, so
repeated runs of the same problem are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = ["QuadResult", "adaptive_quad_1d", "adaptive_quad_2d"]

_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    if n not in _NODE_CACHE:
        _NODE_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _NODE_CACHE[n]


@dataclass(frozen=True)
class QuadResult:
    """Outcome of an adaptive integration.

    ``status`` is "ok" (error bound met) or "not_converged" (region
    budget exhausted, or a non-finite total, before the bound was met;
    ``value`` is the best estimate).  ``regions`` counts final panels or
    cells.
    """

    value: float
    error: float
    regions: int
    status: str


def _seed_edges(lo: float, hi: float, breaks: Iterable[float],
                min_segments: int) -> np.ndarray:
    import numpy as np
    pts = {float(lo), float(hi)}
    pts.update(float(p) for p in breaks if lo < p < hi)
    step = (hi - lo) / min_segments
    pts.update(lo + i * step for i in range(1, min_segments))
    return np.array(sorted(pts))


# ---------------------------------------------------------------------------
# 1-D: GL15 panels with embedded GL7 error estimate.


def _eval_panels(f: Callable[[np.ndarray], np.ndarray],
                 lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    x15, w15 = _gl_nodes(15)
    x7, w7 = _gl_nodes(7)
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    pts = np.concatenate([(c[:, None] + h[:, None] * x15[None, :]).ravel(),
                          (c[:, None] + h[:, None] * x7[None, :]).ravel()])
    fv = np.asarray(f(pts), dtype=float)
    m = lo.size
    f15 = fv[:15 * m].reshape(m, 15)
    f7 = fv[15 * m:].reshape(m, 7)
    i15 = h * (f15 * w15).sum(axis=1)
    i7 = h * (f7 * w7).sum(axis=1)
    return i15, np.abs(i15 - i7)


def adaptive_quad_1d(f: Callable[[np.ndarray], np.ndarray],
                     lo: float, hi: float, *,
                     tol: float,
                     breakpoints: Iterable[float] = (),
                     max_panels: int = 20000) -> QuadResult:
    """Integrate a vectorized callable over [lo, hi] to absolute error tol.

    ``breakpoints`` become panel edges from the start; use them for kink
    or endpoint-singularity locations (Gauss nodes stay interior, so an
    integrable singularity placed on an edge is never evaluated).
    """
    import numpy as np
    if hi <= lo:
        return QuadResult(0.0, 0.0, 0, "ok")
    edges = _seed_edges(lo, hi, breakpoints, 8)
    plo, phi = edges[:-1].copy(), edges[1:].copy()
    vals, errs = _eval_panels(f, plo, phi)
    status = "not_converged"
    while True:
        order = np.argsort(plo, kind="stable")
        total = math.fsum(vals[order])
        total_err = float(errs.sum())
        if not math.isfinite(total):
            break
        if total_err <= tol:
            status = "ok"
            break
        if plo.size >= max_panels:
            break
        mid = 0.5 * (plo + phi)
        mark = (errs >= 0.25 * errs.max()) & (mid > plo) & (mid < phi)
        if not mark.any():
            break
        clo = np.concatenate([plo[mark], mid[mark]])
        chi = np.concatenate([mid[mark], phi[mark]])
        cvals, cerrs = _eval_panels(f, clo, chi)
        plo = np.concatenate([plo[~mark], clo])
        phi = np.concatenate([phi[~mark], chi])
        vals = np.concatenate([vals[~mark], cvals])
        errs = np.concatenate([errs[~mark], cerrs])
    return QuadResult(total, total_err, int(plo.size), status)


# ---------------------------------------------------------------------------
# 2-D: GL6xGL6 cells with embedded GL3xGL3 error estimate.


def _eval_cells(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                u0, u1, v0, v1) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    x6, w6 = _gl_nodes(6)
    x3, w3 = _gl_nodes(3)
    m = u0.size
    cu, hu = 0.5 * (u0 + u1), 0.5 * (u1 - u0)
    cv, hv = 0.5 * (v0 + v1), 0.5 * (v1 - v0)
    un6 = cu[:, None] + hu[:, None] * x6[None, :]
    vn6 = cv[:, None] + hv[:, None] * x6[None, :]
    un3 = cu[:, None] + hu[:, None] * x3[None, :]
    vn3 = cv[:, None] + hv[:, None] * x3[None, :]
    pu = np.concatenate([
        np.broadcast_to(un6[:, :, None], (m, 6, 6)).ravel(),
        np.broadcast_to(un3[:, :, None], (m, 3, 3)).ravel(),
    ])
    pv = np.concatenate([
        np.broadcast_to(vn6[:, None, :], (m, 6, 6)).ravel(),
        np.broadcast_to(vn3[:, None, :], (m, 3, 3)).ravel(),
    ])
    fv = np.asarray(f(pu, pv), dtype=float)
    f6 = fv[:36 * m].reshape(m, 6, 6)
    f3 = fv[36 * m:].reshape(m, 3, 3)
    area = hu * hv
    i6 = area * np.einsum("mij,i,j->m", f6, w6, w6)
    i3 = area * np.einsum("mij,i,j->m", f3, w3, w3)
    return i6, np.abs(i6 - i3)


def adaptive_quad_2d(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     *,
                     tol: float,
                     max_cells: int,
                     u_breaks: Iterable[float] = (),
                     v_breaks: Iterable[float] = ()) -> QuadResult:
    """Integrate f(u, v) over the unit square to absolute error tol.

    The callable receives flat coordinate arrays covering a whole wave of
    cells at once.  Interior tensor nodes of diagonal cells hit u == v
    exactly, so f must tolerate that.  ``u_breaks`` and ``v_breaks``
    become cell edges from the start.
    """
    import numpy as np
    ue = _seed_edges(0.0, 1.0, u_breaks, 8)
    ve = _seed_edges(0.0, 1.0, v_breaks, 8)
    uu0, vv0 = np.meshgrid(ue[:-1], ve[:-1], indexing="ij")
    uu1, vv1 = np.meshgrid(ue[1:], ve[1:], indexing="ij")
    u0, u1 = uu0.ravel().copy(), uu1.ravel().copy()
    v0, v1 = vv0.ravel().copy(), vv1.ravel().copy()
    vals, errs = _eval_cells(f, u0, u1, v0, v1)
    status = "not_converged"
    while True:
        order = np.lexsort((v0, u0))
        total = math.fsum(vals[order])
        total_err = float(errs.sum())
        if not math.isfinite(total):
            break
        if total_err <= tol:
            status = "ok"
            break
        if u0.size >= max_cells:
            break
        um = 0.5 * (u0 + u1)
        vm = 0.5 * (v0 + v1)
        mark = ((errs >= 0.25 * errs.max())
                & (um > u0) & (um < u1) & (vm > v0) & (vm < v1))
        if not mark.any():
            break
        su0, su1, sv0, sv1 = u0[mark], u1[mark], v0[mark], v1[mark]
        sum_, svm = um[mark], vm[mark]
        cu0 = np.concatenate([su0, sum_, su0, sum_])
        cu1 = np.concatenate([sum_, su1, sum_, su1])
        cv0 = np.concatenate([sv0, sv0, svm, svm])
        cv1 = np.concatenate([svm, svm, sv1, sv1])
        cvals, cerrs = _eval_cells(f, cu0, cu1, cv0, cv1)
        u0 = np.concatenate([u0[~mark], cu0])
        u1 = np.concatenate([u1[~mark], cu1])
        v0 = np.concatenate([v0[~mark], cv0])
        v1 = np.concatenate([v1[~mark], cv1])
        vals = np.concatenate([vals[~mark], cvals])
        errs = np.concatenate([errs[~mark], cerrs])
    return QuadResult(total, total_err, int(u0.size), status)
