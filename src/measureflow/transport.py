"""Exact 2-Wasserstein distances, optimal couplings, and metric-duality pairings.

The principal solver is a successive-shortest-augmenting-path min-cost flow on
the dense bipartite atom graph (Dijkstra with node potentials, lexicographic
tie-breaking; Ahuja, Magnanti & Orlin 1993, ch. 9), which returns a vertex of
the transport polytope together with dual potentials.  Its Dijkstra settles
all rows tied at the minimum distance in one vectorized step, which gives the
same updates in the same order as settling them one at a time, so tall
problems (many rows, few columns) cost a few array operations per
augmentation instead of one Python iteration per row.  After every
augmentation the potentials take one update, in place: each row's ``p``
loses and each column's ``q`` gains the smaller of its distance and the
augmenting path's length.  Most augmentations of a tall problem end at the
Dijkstra's first step: the rows with supply settle at distance 0, and the
column they reach first still has demand.  Those are finished without the
Dijkstra, from each column's rows sorted once by cost, at O(n) Python work
each; the same update then subtracts the length from ``p`` on the rows
without supply and adds it to every ``q``, so the plan and potentials are
bitwise the Dijkstra's.
Supply left over when every column is full, or demand when every row is
empty, as rounding leaves it on measures whose totals agree within
``WEIGHT_TOL``, stays in place; beyond that tolerance it raises
``InputError``.  One-dimensional problems take the monotone-rearrangement
fast path, which is optimal for the squared-distance cost.

``wasserstein2_sup`` builds its sup-distance cost matrix for two common-grid
path ensembles on the union of their grids, bitwise equal to the per-pair
``path_sup_distance``.  The union grid is a sort and a ``!=`` mask.  A
coarse pass reads every pair at every ``_SUP_STRIDE``-th union time and at
the nodes of the shorter grid.  Between two coarse times a and b a pair's
distance is at most max(|D(a)|, |D(b)|) + beta, where beta, half the
interval times the 1-norm of the per-coordinate range of the longer grid's
segment slopes there, bounds how far that path strays from its chord; the
shorter grid's paths are affine there.  It is also at most the sum of the
two paths' largest 1-norms on [a, b], read from the longer grid's nodes
around [a, b] and the shorter grid's values at a and b.  Inflated by a
stated rounding margin, the smaller bound screens the inner times: only
the intervals where it reaches the pair's largest value so far are read.
A skipped time cannot exceed what was read, so the matrix stays bitwise
the full evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .measure import (
    Coupling,
    DiscreteMeasure,
    TangentMeasure,
    WEIGHT_TOL,
    barycentric_projection,
)
from .paths import HORIZON_TOL, PathEnsemble, PiecewisePath, _interp_nodes, _union_grid

_MASS_EPS = 1e-14
_RC_EPS = 1e-12
_SUP_CHUNK_ELEMS = 1 << 15
_SUP_STRIDE = 32  # union times between the sup-distance screen's coarse times
_SUP_MARGIN = 2.0**-40  # the screen's rounding margin per coordinate (see _sup_matrix)
_SUP_FLOOR = 2.0**-510  # the screen's least bound: its square is a normal number


@dataclass(frozen=True)
class TransportResult:
    """An optimal coupling with its squared-distance cost and the distance.

    ``degenerate`` is True when the solver detected a zero-reduced-cost arc
    outside the optimal basis (several optimal plans exist), False when the
    optimum looked unique, and None when the fast 1-d route was taken and no
    dual certificate was produced.
    """

    coupling: Coupling
    cost: float
    distance: float
    degenerate: bool | None = None
    method: str = "flow"


def _cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    diff = mu.atoms[:, None, :] - nu.atoms[None, :, :]
    return np.sum(diff * diff, axis=2)


def _dijkstra(cost, flow, p, q, rem_a, rem_b):
    """The shortest augmenting path from the rows with supply to a column with demand.

    Returns (target column or -1, dist_r, dist_c, pred_r, pred_c).  All rows
    tied at the minimum distance settle in one vectorized step (every row with
    supply starts at 0).  This is exactly the one-row-at-a-time order: rows
    relax only columns, each candidate is at least the row's distance, and the
    ``<=`` settles tied rows before any column; taking the first minimum over
    the batch, then the strict ``<`` against the column's distance, keeps the
    per-row updates.
    """
    m, n = cost.shape
    dist_r = np.where(rem_a > _MASS_EPS, 0.0, np.inf)
    dist_c = np.full(n, np.inf)
    # the distances of the unsettled nodes, inf once settled; a settled
    # node is never improved, as every candidate is at least the minimum
    dr = dist_r.copy()
    dc = dist_c.copy()
    settled = 0
    pred_c = np.full(n, -1, dtype=int)  # row that reaches col j
    pred_r = np.full(m, -1, dtype=int)  # col that reaches row i (backward arc)
    target = -1
    while settled < m + n:
        ir = int(dr.argmin())
        jc = int(dc.argmin())
        if dr[ir] <= dc[jc]:
            if not np.isfinite(dr[ir]):
                break
            # every row tied at the minimum settles before any column, so
            # relax them together; the first minimum keeps the row order
            batch = np.nonzero(dr == dr[ir])[0]
            dr[batch] = np.inf
            settled += batch.shape[0]
            rc = cost[batch] - p[batch, None] - q
            np.maximum(rc, 0.0, out=rc)
            cand = dist_r[batch, None] + rc
            first = np.argmin(cand, axis=0)
            cand = cand[first, np.arange(n)]
            better = cand < dist_c
            if better.any():
                dist_c[better] = dc[better] = cand[better]
                pred_c[better] = batch[first[better]]
        else:
            if not np.isfinite(dc[jc]):
                break
            dc[jc] = np.inf
            settled += 1
            if rem_b[jc] > _MASS_EPS:
                target = jc
                break
            back = flow[:, jc] > 0.0
            if back.any():
                rc = p + q[jc] - cost[:, jc]
                np.maximum(rc, 0.0, out=rc)
                cand = dist_c[jc] + rc
                better = back & (cand < dist_r)
                if better.any():
                    dist_r[better] = dr[better] = cand[better]
                    pred_r[better] = jc
    return target, dist_r, dist_c, pred_r, pred_c


def _first_step(cost, columns, dry, q):
    """The augmentation that the Dijkstra's first step decides: (label, column, row).

    The rows with supply settle first, at distance 0 with potential exactly
    +0.0 (the potential update leaves those rows as they are), so column j's
    label is ``max(c_ij - q_j, 0)`` minimised over them, the first row on
    ties; the column is the first with the least label (-1 when every label
    is infinite).  Subtraction and the clamp are monotone, so the label
    comes from the column's cheapest row with supply.  Each entry of
    ``columns`` is [rows sorted by (cost, row), their costs, the position of
    the first row with supply, the position of the first costlier one]; both
    positions only move forward, as rows never regain supply.  A column is
    scanned as the Dijkstra does only when that costlier row ties with the
    first after the subtraction or the clamp.
    """
    m = len(dry)
    dist_t, target, start_row = math.inf, -1, -1
    for j, (state, qj) in enumerate(zip(columns, q.tolist())):
        rows, costs, h, k = state
        while dry[rows[h]]:
            h += 1
        k = k if k > h else h + 1
        while k < m and (dry[rows[k]] or costs[k] == costs[h]):
            k += 1
        state[2], state[3] = h, k
        label = costs[h] - qj
        label = label if label > 0.0 else 0.0
        if label < dist_t:
            i = rows[h]
            if k < m and costs[k] - qj <= label:
                col = np.maximum(cost[:, j] - qj, 0.0)
                col[dry] = np.inf
                i = int(col.argmin())
            dist_t, target, start_row = label, j, i
    return dist_t, target, start_row


def _solve_flow(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Min-cost transport of nonnegative supplies ``a`` to demands ``b`` under ``cost``.

    Returns (flow, row potentials, col potentials).  Potentials satisfy dual
    feasibility cost_ij - p_i - q_j >= -1e-9 with equality on support arcs.

    After each augmentation of length L, ``p_i -= min(dist_i, L)`` and
    ``q_j += min(dist_j, L)``, in place.  An augmentation whose first step
    decides it (``_first_step``: its least-label column has demand, so the
    Dijkstra would pop that column next and stop) augments that one arc;
    its rows with supply are at distance 0 and every other row is
    unreached, and every column's label is at least L, so the update
    subtracts L from ``p`` on the rows without supply and adds it to every
    ``q_j``.  Every other augmentation runs ``_dijkstra``.  Both give the
    same values in the same order, so the result is bitwise the
    Dijkstra-only one.

    The loop stops when no row has supply or no column has demand left.
    Supply stranded or demand unfilled beyond what ``WEIGHT_TOL`` on each
    total, the ``_MASS_EPS`` zeroing of each row and column and rounding
    allow raises ``InputError``.
    """
    m, n = cost.shape
    flow = np.zeros((m, n))
    p = np.zeros(m)
    q = np.zeros(n)
    rem_a = a.astype(float).copy()
    rem_b = b.astype(float).copy()
    max_iters = 20 * (m + n) + 200
    dry = rem_a <= _MASS_EPS  # rows without supply
    supplied = m - int(np.count_nonzero(dry))
    demanded = int(np.count_nonzero(rem_b > _MASS_EPS))
    order = np.argsort(cost, axis=0, kind="stable")
    columns = [
        [rows, costs, 0, 1]
        for rows, costs in zip(order.T.tolist(), np.take_along_axis(cost, order, 0).T.tolist())
    ]

    for _ in range(max_iters):
        if not (supplied and demanded):
            break
        dist_t, target, start_row = _first_step(cost, columns, dry, q)
        if target >= 0 and rem_b[target] > _MASS_EPS:
            arcs_fwd, arcs_bwd = [(start_row, target)], []
            bottleneck = min(rem_b[target], rem_a[start_row])
            p -= dist_t * dry  # a row with supply loses 0.0, which keeps its bits
            q += dist_t
        else:
            target, dist_r, dist_c, pred_r, pred_c = _dijkstra(cost, flow, p, q, rem_a, rem_b)
            if target < 0:
                raise RuntimeError(f"no augmenting path in a {m}x{n} transport problem")
            dist_t = dist_c[target]
            p -= np.minimum(dist_r, dist_t)
            q += np.minimum(dist_c, dist_t)

            # walk predecessors to find the augmenting path and its bottleneck
            arcs_fwd, arcs_bwd = [], []
            j = target
            bottleneck = rem_b[target]
            while True:
                i = pred_c[j]
                arcs_fwd.append((i, j))
                jprev = pred_r[i]
                if jprev < 0:
                    bottleneck = min(bottleneck, rem_a[i])
                    start_row = i
                    break
                arcs_bwd.append((i, jprev))
                bottleneck = min(bottleneck, flow[i, jprev])
                j = jprev
        for i, jj in arcs_fwd:
            flow[i, jj] += bottleneck
        for i, jj in arcs_bwd:
            flow[i, jj] -= bottleneck
            if flow[i, jj] <= _MASS_EPS:
                flow[i, jj] = 0.0
        rem_a[start_row] -= bottleneck
        if rem_a[start_row] <= _MASS_EPS:
            rem_a[start_row] = 0.0
            dry[start_row] = True
            supplied -= 1
        rem_b[target] -= bottleneck
        if rem_b[target] <= _MASS_EPS:
            rem_b[target] = 0.0
            demanded -= 1
    else:
        raise RuntimeError(
            f"augmentation limit {max_iters} exceeded in a {m}x{n} transport problem"
        )
    stranded, unfilled = float(rem_a.sum()), float(rem_b.sum())
    if max(stranded, unfilled) > 2 * WEIGHT_TOL + 2 * (m + n) * _MASS_EPS:
        left = f"{stranded:.3g} unplaced" if stranded >= unfilled else f"{unfilled:.3g} unfilled"
        raise InputError(
            f"transport totals differ: supply {float(np.sum(a))!r} against demand "
            f"{float(np.sum(b))!r} leaves {left} ({m}x{n} problem)"
        )
    return flow, p, q


def _optimal_flow(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """An optimal flow and the arcs that optimal plans use: (flow, optimal, degenerate).

    ``optimal`` marks the support of the flow and every arc whose reduced
    cost under the solver's duals is at most ``_RC_EPS`` times the largest
    cost (at least 1).  By complementary slackness the optimal plans are
    exactly the feasible plans on those arcs; ``degenerate`` is whether any
    lies outside the support.  Duals infeasible beyond 1e-9 times that
    scale raise ``RuntimeError``.
    """
    flow, p, q = _solve_flow(cost, a, b)
    scale = max(1.0, float(np.abs(cost).max()))
    rc = cost - p[:, None] - q[None, :]
    worst, bound = float(rc.min()), -1e-9 * scale
    if worst < bound:
        raise RuntimeError(
            f"transport solver lost dual feasibility on a {cost.shape[0]}x{cost.shape[1]} "
            f"problem: reduced cost {worst:.3g} below {bound:.3g}"
        )
    support = flow > 0.0
    tight = rc <= _RC_EPS * scale
    return flow, support | tight, bool(np.any(tight & ~support))


def _plan_result(mu, nu, cost, flow, degenerate) -> TransportResult:
    """The transport result of the plan ``flow`` between ``mu`` and ``nu``."""
    total = float(np.sum(flow * cost))
    ii, jj = np.nonzero(flow > 0.0)
    coupling = Coupling(mu.atoms[ii], nu.atoms[jj], flow[ii, jj], mu, nu)
    return TransportResult(coupling, total, math.sqrt(max(total, 0.0)), degenerate, "flow")


def _flow_result(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportResult:
    cost = _cost_matrix(mu, nu)
    flow, _, degenerate = _optimal_flow(cost, mu.weights, nu.weights)
    return _plan_result(mu, nu, cost, flow, degenerate)


def _quantile_result(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportResult:
    """Monotone rearrangement: optimal in 1-d for the squared-distance cost."""
    oa = np.argsort(mu.atoms[:, 0], kind="stable")
    ob = np.argsort(nu.atoms[:, 0], kind="stable")
    xs, ws = mu.atoms[oa, 0], mu.weights[oa]
    ys, us = nu.atoms[ob, 0], nu.weights[ob]
    i = j = 0
    rem_i, rem_j = ws[0], us[0]
    first, second, mass = [], [], []
    total = 0.0
    while True:
        mm = min(rem_i, rem_j)
        first.append(xs[i])
        second.append(ys[j])
        mass.append(mm)
        total += mm * (xs[i] - ys[j]) ** 2
        rem_i -= mm
        rem_j -= mm
        adv_i = rem_i <= _MASS_EPS
        adv_j = rem_j <= _MASS_EPS
        if adv_i:
            i += 1
            if i < len(xs):
                rem_i = ws[i]
        if adv_j:
            j += 1
            if j < len(ys):
                rem_j = us[j]
        if i >= len(xs) or j >= len(ys):
            break
        if not (adv_i or adv_j):  # defensive: cannot happen with balanced masses
            raise RuntimeError("quantile walk stalled")
    coupling = Coupling(
        np.asarray(first)[:, None], np.asarray(second)[:, None], np.asarray(mass), mu, nu
    )
    return TransportResult(coupling, total, math.sqrt(max(total, 0.0)), None, "quantile")


def optimal_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportResult:
    """An exact minimizer of the squared-distance transport cost.

    1-d problems use the monotone rearrangement, all others the flow solver.
    """
    if mu.dim != nu.dim:
        raise InputError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    return _quantile_result(mu, nu) if mu.dim == 1 else _flow_result(mu, nu)


def w2_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """The 2-Wasserstein distance between two discrete measures."""
    return optimal_coupling(mu, nu).distance


# ---------------------------------------------------------------------------
# path-space distances
# ---------------------------------------------------------------------------


def path_sup_distance(p1: PiecewisePath, p2: PiecewisePath) -> float:
    """sup_t |p1(t) - p2(t)|, computed exactly on the union grid.

    On each union segment the difference is affine, so the supremum of its
    norm is attained at segment endpoints; no sampling is involved.
    """
    if abs(p1.horizon - p2.horizon) > HORIZON_TOL * max(1.0, abs(p1.horizon)):
        raise InputError(f"mismatched horizons: {p1.horizon} vs {p2.horizon}")
    if p1.dim != p2.dim:
        raise InputError(f"dimension mismatch: {p1.dim} vs {p2.dim}")
    grid = _union_grid(p1.grid, p2.grid)
    d = p1(grid) - p2(grid)
    return float(np.max(np.linalg.norm(np.atleast_2d(d), axis=1)))


def _pair_sq(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Squared distances ``(B, m2, m1)`` of paths valued ``(B, d, m1)`` and ``(B, d, m2)``.

    The squares are summed over the coordinates in order, as ``np.linalg.norm`` does.
    """
    acc = np.zeros((x1.shape[0], x2.shape[2], x1.shape[2]))
    diff = np.empty_like(acc)
    for k in range(x1.shape[1]):
        np.subtract(x1[:, None, k], x2[:, k, :, None], out=diff)
        diff *= diff
        acc += diff
    return acc


def _raise_sup(sq: np.ndarray, ts: np.ndarray, g1, nodes1, g2, nodes2) -> None:
    """Raise ``sq`` to the squared distances of two sets of paths at the times ``ts``.

    The paths of a set share a grid.  The times are walked in blocks of about
    ``_SUP_CHUNK_ELEMS`` pair differences (at least one time).
    """
    if ts.shape[0] == 0:
        return
    m1, m2 = nodes1.shape[0], nodes2.shape[0]
    width = max(1, _SUP_CHUNK_ELEMS // (m1 * m2))
    best = np.zeros((m2, m1))
    for t0 in range(0, ts.shape[0], width):
        block = ts[t0 : t0 + width]
        acc = _pair_sq(_interp_nodes(g1, nodes1, block), _interp_nodes(g2, nodes2, block))
        np.maximum(best, acc.max(axis=0), out=best)
    np.maximum(sq, best.T, out=sq)


def _window(grid: np.ndarray, ts: np.ndarray) -> slice:
    """The grid nodes that paths on ``grid`` read at times from ``ts[0]`` to ``ts[-1]``.

    ``_interp_nodes`` on these nodes alone gives the full grid's values bit
    for bit at those times: each is a node value or comes from the two nodes
    around it, and the window keeps the first or last node for the times
    before or after the grid.
    """
    lo = np.searchsorted(grid, ts[0], side="right") - 1
    hi = np.searchsorted(grid, ts[-1], side="left")
    return slice(max(lo, 0), min(hi, grid.shape[0] - 1) + 1)


def _bend(grid: np.ndarray, nodes: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """How far each path strays from its chord between consecutive ``ts``: ``(len(ts) - 1, n)``.

    On [a, b] a path whose segment slopes lie in [lo_k, hi_k] in coordinate k
    stays within (b - a)/2 * (hi_k - lo_k) of its chord there.  The value is
    the 1-norm of that vector, which is at least its length and, unlike a
    sum of squares, cannot underflow to 0; it is 0 where the path is affine.
    The path is constant before its first node and after its last, so those
    stretches count as slope 0.  Only the segments between ``ts[0]`` and
    ``ts[-1]`` are read.  Slopes that overflow give an inf or NaN value.
    """
    last = grid.shape[0] - 1
    # segment j + 1 is [grid[j], grid[j + 1]]; 0 and last + 1 are the constant ends
    first_seg = np.searchsorted(grid, ts[:-1], side="right")
    last_seg = np.searchsorted(grid, ts[1:], side="left")
    lo, hi = int(first_seg[0]), int(last_seg[-1])
    j0, j1 = max(lo - 1, 0), min(hi, last)
    local = np.ascontiguousarray(nodes[:, j0 : j1 + 1].transpose(1, 0, 2))  # (nodes, n, d)
    flat = np.zeros((1, *local.shape[1:]))
    slopes = np.concatenate(
        [flat] * (lo == 0)
        + [np.diff(local, axis=0) / np.diff(grid[j0 : j1 + 1])[:, None, None]]
        + [flat] * (hi == last + 1)
    )
    # reduceat spans first_seg[m] .. first_seg[m + 1] - 1; last_seg[m] is
    # the one segment it may miss, shared with the next interval
    starts, stops = first_seg - lo, last_seg - lo
    top = np.maximum(np.maximum.reduceat(slopes, starts), slopes[stops])
    top -= np.minimum(np.minimum.reduceat(slopes, starts), slopes[stops])
    return np.sum(top, axis=2) * (np.diff(ts) / 2)[:, None]


def _reach(grid: np.ndarray, nodes: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """A bound on each path's 1-norm between consecutive ``ts``: ``(len(ts) - 1, n)``.

    On [a, b] a path takes values between its nodes from the last one at or
    before a to the first one at or after b (the first or last node where
    [a, b] leaves the grid), so the largest 1-norm of those nodes bounds it.
    """
    last = grid.shape[0] - 1
    lo = np.clip(np.searchsorted(grid, ts[:-1], side="right") - 1, 0, last)
    hi = np.clip(np.searchsorted(grid, ts[1:], side="left"), 0, last)
    size = np.sum(np.abs(nodes[:, lo[0] : hi[-1] + 1]), axis=2).T  # (nodes, n)
    lo, hi = lo - lo[0], hi - lo[0]
    # reduceat spans lo[m] .. lo[m + 1] - 1, and hi[m] is lo[m + 1] or one past it
    nxt = np.append(lo[1:], hi[-1])
    return np.maximum(np.maximum.reduceat(size, lo), np.maximum(size[nxt], size[hi]))


def _screen(sq, ts, e1: PathEnsemble, e2: PathEnsemble, long1: bool, slack) -> np.ndarray:
    """Whether each pair may exceed ``sq`` between consecutive coarse times ``ts``.

    The result has shape ``(len(ts) - 1, n2, n1)``.  The bound is that of
    ``_sup_matrix``, with the bend and reach of the paths on the longer grid
    (``e1``'s when ``long1``), inflated by ``d * _SUP_MARGIN`` and by
    ``slack``, squared and compared with ``sq``.  A bound that overflows or
    is NaN may exceed it.
    """
    x1, x2 = _interp_nodes(e1.grid, e1.nodes, ts), _interp_nodes(e2.grid, e2.nodes, ts)
    r = _pair_sq(x1, x2)
    np.sqrt(r, out=r)
    grid, nodes, x = (e1.grid, e1.nodes, x2) if long1 else (e2.grid, e2.nodes, x1)
    size = np.sum(np.abs(x), axis=1)  # the affine paths' 1-norms at ts
    along1, along2 = (lambda v: v[:, None, :]), (lambda v: v[:, :, None])  # per path of e1, e2
    on_long, on_short = (along1, along2) if long1 else (along2, along1)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.maximum(r[:-1], r[1:])  # (intervals, n2, n1)
        bound += on_long(_bend(grid, nodes, ts))
        reach = on_long(_reach(grid, nodes, ts)) + on_short(np.maximum(size[:-1], size[1:]))
        np.minimum(bound, reach, out=bound)
        bound *= 1.0 + e1.dim * _SUP_MARGIN
        bound += slack
        np.square(bound, out=bound)
    return ~(bound < sq.T)


def _sup_matrix(e1: PathEnsemble, e2: PathEnsemble) -> np.ndarray:
    """All pairwise ``path_sup_distance`` values, bitwise, as an (n1, n2) matrix.

    Both ensembles are evaluated on the union of their grids, and the squared
    norm is summed over the coordinates in order, as ``np.linalg.norm`` does;
    the sup of the root is the root of the sup, since sqrt is monotone and
    correctly rounded.  A pair's result is the largest of these values, so a
    union time whose value provably cannot exceed a value already read may
    go unread.

    Coarse pass: every pair is read at every ``_SUP_STRIDE``-th union time,
    the last one and the nodes of the shorter grid, whose paths are then
    affine between coarse times.  Screen: on an interval [a, b] between two
    coarse times, the difference D of a pair obeys
    |D(t)| <= max(|D(a)|, |D(b)|) + beta, where beta is how far the path of
    the longer grid strays from its chord (``_bend``): the chord of D is at
    most its larger end.  It also obeys |D(t)| <= rho_long + rho_short, the
    largest 1-norms of the two paths there: of the longer grid's nodes
    around [a, b] (``_reach``) and of the shorter grid's path at a and b.
    The smaller bound is used.  It is inflated for rounding by
    ``d * _SUP_MARGIN`` times itself and times the largest node magnitudes
    of the two paths, plus ``_SUP_FLOOR``.  Each rounded step behind the
    values compared (interpolation, differences, squares and sums, slopes,
    1-norms, the root) is off by a few units of 2**-53 per coordinate
    relative to these quantities, and 2**-40 is 4,096 such units; the floor
    keeps the squared bound out of the subnormal range, where relative error
    bounds fail.  Exact pass: an interval's inner times are read only where
    a pair's squared bound is not below the largest value read for it so
    far (a NaN or overflowed bound reads), on the rows x columns that
    survive in each block of intervals (``_raise_sup``).  Nothing skipped
    can exceed what was read, so the result is bitwise the full evaluation.
    Every array over the union times is built one block at a time: a block
    holds at most about ``_SUP_CHUNK_ELEMS`` pair values and as many node
    values of its intervals.
    """
    ts = _union_grid(e1.grid, e2.grid)
    (g1, nodes1), (g2, nodes2) = (e1.grid, e1.nodes), (e2.grid, e2.nodes)
    n1, n2 = e1.n_paths, e2.n_paths
    long1 = g1.shape[0] > g2.shape[0]
    short, n_short, n_long = (g2, n2, n1) if long1 else (g1, n1, n2)
    coarse = np.zeros(ts.shape[0], dtype=bool)
    coarse[::_SUP_STRIDE] = coarse[-1] = True
    coarse[np.searchsorted(ts, short)] = True
    at = np.flatnonzero(coarse)
    # a block spans at most ``span`` union times (the longer grid's nodes)
    # and holds at most ``count`` coarse times (pair values and the shorter
    # grid's nodes), or one interval
    span = max(_SUP_STRIDE, _SUP_CHUNK_ELEMS // (n_long * e1.dim))
    count = _SUP_CHUNK_ELEMS // max(n1 * n2, n_short * e1.dim)
    sq = np.zeros((n1, n2))
    for part in np.split(at, np.searchsorted(at, np.arange(span, ts.shape[0], span))):
        _raise_sup(sq, ts[part], g1, nodes1, g2, nodes2)

    size1 = np.maximum(nodes1.max(axis=(1, 2)), -nodes1.min(axis=(1, 2)))
    size2 = np.maximum(nodes2.max(axis=(1, 2)), -nodes2.min(axis=(1, 2)))
    margin = e1.dim * _SUP_MARGIN
    slack = margin * size1[None, :] + margin * size2[:, None] + _SUP_FLOOR  # (n2, n1)
    cuts = [0]  # block i runs from at[cuts[i]] to at[cuts[i + 1]]
    while cuts[-1] < at.shape[0] - 1:
        far = np.searchsorted(at, at[cuts[-1]] + span, side="right") - 1
        cuts.append(max(cuts[-1] + 1, min(cuts[-1] + count - 1, int(far))))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        c = at[lo : hi + 1]  # blocks share their end times
        ends, gaps = ts[c], np.diff(c)
        if np.all(gaps == 1):
            continue
        pairs = _screen(sq, ends, e1, e2, long1, slack)
        pairs[gaps == 1] = False
        rows, cols, keep = pairs.any(axis=(0, 1)), pairs.any(axis=(0, 2)), pairs.any(axis=(1, 2))
        if not keep.any():
            continue
        read = np.repeat(keep, gaps)  # union times c[0] .. c[-1] - 1
        read[c[:-1] - c[0]] = False
        sub = sq[np.ix_(rows, cols)]
        w1, w2 = _window(g1, ends), _window(g2, ends)
        times = ts[c[0] + np.flatnonzero(read)]
        _raise_sup(sub, times, g1[w1], nodes1[rows, w1], g2[w2], nodes2[cols, w2])
        sq[np.ix_(rows, cols)] = sub
    return np.sqrt(sq)


def wasserstein2_sup(e1: PathEnsemble, e2: PathEnsemble) -> float:
    """W2 between path ensembles under the sup-norm ground metric."""
    if abs(e1.horizon - e2.horizon) > HORIZON_TOL * max(1.0, abs(e1.horizon)):
        raise InputError(f"mismatched horizons: {e1.horizon} vs {e2.horizon}")
    if e1.dim != e2.dim:
        raise InputError(f"dimension mismatch: {e1.dim} vs {e2.dim}")
    dist = _sup_matrix(e1, e2)
    if e1.n_paths == 1 or e2.n_paths == 1:
        # coupling with a Dirac is forced, no optimization needed
        many = e2 if e1.n_paths == 1 else e1
        total = 0.0
        for d, w in zip(dist.ravel().tolist(), many.weights):
            total += w * d**2
        return math.sqrt(max(total, 0.0))
    cost = dist**2
    flow, p, q = _solve_flow(cost, e1.weights, e2.weights)
    return math.sqrt(max(float(np.sum(flow * cost)), 0.0))


# ---------------------------------------------------------------------------
# metric-duality pairing
# ---------------------------------------------------------------------------


def bram_pairing_detailed(
    phi: TangentMeasure, nu: DiscreteMeasure
) -> tuple[float, TransportResult]:
    """Pairing value together with the transport result it was evaluated on.

    The pairing is the least integral of <bry(x0), x0 - x1> over the optimal
    couplings gamma between the x-marginal of ``phi`` and ``nu``, where bry
    is the barycentric projection of ``phi``.  A first flow solve gives the
    arcs that optimal plans use (``_optimal_flow``).  On them the cost is
    <bry(x0), x0 - x1> less its least value in the row, which keeps it
    nonnegative and moves every plan's cost by the same constant, as the
    row marginals are fixed; every other arc costs +inf.  A second solve
    finds the least of these plans, and the result reports it, with
    ``degenerate`` set when the first solve found several optimal plans.
    """
    if phi.dim != nu.dim:
        raise InputError(f"dimension mismatch: {phi.dim} vs {nu.dim}")
    proj = barycentric_projection(phi)
    xmarg = DiscreteMeasure(proj.positions, proj.weights)
    cost = _cost_matrix(xmarg, nu)
    _, optimal, degenerate = _optimal_flow(cost, xmarg.weights, nu.weights)
    pairing = np.sum(proj.velocities[:, None, :] * (xmarg.atoms[:, None, :] - nu.atoms), axis=2)
    shifted = np.where(optimal, pairing, np.inf)
    shifted -= shifted.min(axis=1, keepdims=True)
    least, _, _ = _solve_flow(shifted, xmarg.weights, nu.weights)
    return float(np.sum(least * pairing)), _plan_result(xmarg, nu, cost, least, degenerate)


def bram_pairing(phi: TangentMeasure, nu: DiscreteMeasure) -> float:
    """The metric-duality pairing: its least value over the optimal plans."""
    value, _ = bram_pairing_detailed(phi, nu)
    return value
