"""Exact 2-Wasserstein distances, optimal couplings, and metric-duality pairings.

The principal solver is a successive-shortest-augmenting-path min-cost flow on
the dense bipartite atom graph (Dijkstra with node potentials, lexicographic
tie-breaking; Ahuja, Magnanti & Orlin 1993, ch. 9), which returns a vertex of
the transport polytope together with dual potentials.  Its Dijkstra settles
all rows tied at the minimum distance in one vectorized step, which gives the
same updates in the same order as settling them one at a time, so tall
problems (many rows, few columns) cost a few array operations per
augmentation instead of one Python iteration per row.  Most augmentations
of a tall problem end at the Dijkstra's first step: the rows with supply
settle at distance 0, and the column they reach first still has demand.
Those are finished without the Dijkstra, from each column's rows sorted
once by cost, at O(n) Python work each, and with the Dijkstra's updates
applied in its order, so the plan and potentials are bitwise the same.
Supply left over when every column is full, as rounding leaves it on
measures whose totals agree within ``WEIGHT_TOL``, stays in place; beyond
that tolerance it raises ``InputError``.  One-dimensional
problems take the monotone-rearrangement fast path, which is optimal for the
squared-distance cost.  ``brute_force_w2`` is an independent oracle used by
the test suite: it enumerates every vertex of the transport polytope via
spanning-tree supports (or all assignments in the uniform case) and never
touches the flow solver.

``wasserstein2_sup`` builds its sup-distance cost matrix for two common-grid
path ensembles on the union of their grids, bitwise equal to the per-pair
``path_sup_distance``.  The union grid is a sort and a ``!=`` mask.  It is
cut at the nodes of the shorter grid, and on a segment where grouping saves
at least a block of pair differences the paths of that side are grouped by
the node slice they share, so the paths of a tree, which share their early
segments, are evaluated once per distinct segment.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .measure import (
    Coupling,
    DiscreteMeasure,
    TangentMeasure,
    WEIGHT_TOL,
    _group_rows,
    barycentric_projection,
)
from .paths import HORIZON_TOL, PathEnsemble, PiecewisePath, _interp_nodes, _union_grid

_MASS_EPS = 1e-14
_RC_EPS = 1e-12
_BRUTE_ATOM_CAP = 64
_BRUTE_ENUM_BUDGET = 700_000
_SUP_CHUNK_ELEMS = 1 << 15
_SETTLE_ELEMS = 1 << 12  # queued labels times rows: bounds the arrays of _settle


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


def _first_step(cost, columns, dry, q, rem_a):
    """The augmentation that the Dijkstra's first step decides: (label, column, row).

    The rows with supply settle first, at distance 0 with potential exactly
    +0.0, so column j's label is ``max(c_ij - q_j, 0)`` minimised over them,
    the first row on ties; the column is the first with the least label (-1
    when every label is infinite).  Subtraction and the clamp are monotone,
    so the label comes from the column's cheapest row with supply.  Each
    entry of ``columns`` is [rows sorted by (cost, row), their costs, the
    position of the first row with supply, the position of the first costlier
    one]; both positions only move forward, as rows never regain supply.  A
    column is scanned as the Dijkstra does only when that costlier row ties
    with the first after the subtraction or the clamp.
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
                col[rem_a <= _MASS_EPS] = np.inf
                i = int(col.argmin())
            dist_t, target, start_row = label, j, i
    return dist_t, target, start_row


def _settle(p, rem_a, queued, drained):
    """Subtract the queued labels, in order, from ``p`` on the rows without supply.

    A row takes the labels queued after it lost its supply: every one for a
    row dry before the queue began, and those from its position on for each
    (row, position) of ``drained``.  Subtracting 0.0 leaves a value's bits
    as they are, and ``subtract.reduce`` runs down axis 0 in order.
    """
    rows = np.flatnonzero(rem_a <= _MASS_EPS)
    first = np.zeros(p.shape[0], dtype=int)
    for i, k in drained:
        first[i] = k
    takes = np.arange(len(queued))[:, None] >= first[rows]
    p[rows] = np.subtract.reduce(np.vstack([p[rows], takes * np.array(queued)[:, None]]), axis=0)
    queued.clear()
    drained.clear()


def _solve_flow(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Min-cost transport of nonnegative supplies ``a`` to demands ``b`` under ``cost``.

    Returns (flow, row potentials, col potentials).  Potentials satisfy dual
    feasibility cost_ij - p_i - q_j >= -1e-9 with equality on support arcs.

    An augmentation whose first step decides it (``_first_step``: its
    least-label column has demand, so the Dijkstra would pop that column next
    and stop) augments that one arc, adds the label to every ``q_j`` and
    subtracts it from ``p`` on the rows without supply, which is what the
    Dijkstra's updates come to; the subtractions are queued until the
    Dijkstra or the return reads ``p`` (``_settle``).  Every other
    augmentation runs ``_dijkstra``.  Both give the same values in the same
    order, so the result is bitwise the Dijkstra-only one.

    The loop stops when no row has supply or no column has demand left.
    Supply stranded beyond what ``WEIGHT_TOL`` on each total, the
    ``_MASS_EPS`` zeroing of each row and column and rounding allow raises
    ``InputError``.
    """
    m, n = cost.shape
    flow = np.zeros((m, n))
    p = np.zeros(m)
    q = np.zeros(n)
    rem_a = a.astype(float).copy()
    rem_b = b.astype(float).copy()
    max_iters = 20 * (m + n) + 200
    dry = (rem_a <= _MASS_EPS).tolist()  # rows without supply
    supplied = dry.count(False)
    demanded = int(np.count_nonzero(rem_b > _MASS_EPS))
    order = np.argsort(cost, axis=0, kind="stable")
    columns = [
        [rows, costs, 0, 1]
        for rows, costs in zip(order.T.tolist(), np.take_along_axis(cost, order, 0).T.tolist())
    ]
    queued: list[float] = []
    drained: list[tuple[int, int]] = []

    for _ in range(max_iters):
        if not (supplied and demanded):
            break
        dist_t, target, start_row = _first_step(cost, columns, dry, q, rem_a)
        if target >= 0 and rem_b[target] > _MASS_EPS:
            arcs_fwd, arcs_bwd = [(start_row, target)], []
            bottleneck = min(rem_b[target], rem_a[start_row])
            queued.append(dist_t)
            q += dist_t
            if len(queued) * m >= _SETTLE_ELEMS:
                _settle(p, rem_a, queued, drained)
        else:
            if queued:
                _settle(p, rem_a, queued, drained)
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
            drained.append((start_row, len(queued)))
        rem_b[target] -= bottleneck
        if rem_b[target] <= _MASS_EPS:
            rem_b[target] = 0.0
            demanded -= 1
    else:
        raise RuntimeError(
            f"augmentation limit {max_iters} exceeded in a {m}x{n} transport problem"
        )
    if queued:
        _settle(p, rem_a, queued, drained)
    stranded = float(rem_a.sum())
    if stranded > 2 * WEIGHT_TOL + 2 * (m + n) * _MASS_EPS:
        raise InputError(
            f"transport totals differ: supply {float(np.sum(a))!r} against demand "
            f"{float(np.sum(b))!r} leaves {stranded:.3g} unplaced ({m}x{n} problem)"
        )
    return flow, p, q


def _flow_result(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportResult:
    cost = _cost_matrix(mu, nu)
    flow, p, q = _solve_flow(cost, mu.weights, nu.weights)
    scale = max(1.0, float(np.abs(cost).max()))
    rc = cost - p[:, None] - q[None, :]
    worst, bound = float(rc.min()), -1e-9 * scale
    if worst < bound:
        raise RuntimeError(
            f"transport solver lost dual feasibility on a {cost.shape[0]}x{cost.shape[1]} "
            f"problem: reduced cost {worst:.3g} below {bound:.3g}"
        )
    support = flow > 0.0
    degenerate = bool(np.any(~support & (rc <= _RC_EPS * scale)))
    total = float(np.sum(flow * cost))
    ii, jj = np.nonzero(support)
    coupling = Coupling(mu.atoms[ii], nu.atoms[jj], flow[ii, jj], mu, nu)
    return TransportResult(coupling, total, math.sqrt(max(total, 0.0)), degenerate, "flow")


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


def optimal_coupling(
    mu: DiscreteMeasure, nu: DiscreteMeasure, method: str = "auto"
) -> TransportResult:
    """An exact minimizer of the squared-distance transport cost.

    ``method`` is "auto" (1-d problems use the monotone rearrangement, all
    others the flow solver), "flow", or "quantile" (1-d only).
    """
    if mu.dim != nu.dim:
        raise InputError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if method == "auto":
        method = "quantile" if mu.dim == 1 else "flow"
    if method == "quantile":
        if mu.dim != 1:
            raise InputError("the quantile route requires dimension 1")
        return _quantile_result(mu, nu)
    if method == "flow":
        return _flow_result(mu, nu)
    raise InputError(f"unknown method {method!r}")


def w2_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """The 2-Wasserstein distance between two discrete measures."""
    return optimal_coupling(mu, nu).distance


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

_tree_schedule_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _tree_schedules(m: int, n: int):
    """Leaf-elimination schedules for every spanning tree of K_{m,n}.

    Vertices of the transport polytope are exactly the feasible basic solutions
    supported on spanning trees, so enumerating all trees and solving each by
    leaf elimination covers every vertex.  Returns three (n_trees, m+n-1)
    integer arrays: eliminated-is-row flags, eliminated node index, and the
    partner node index, in elimination order.
    """
    key = (m, n)
    if key in _tree_schedule_cache:
        return _tree_schedule_cache[key]
    cells = [(i, j) for i in range(m) for j in range(n)]
    k = m + n - 1
    if math.comb(m * n, k) > _BRUTE_ENUM_BUDGET:
        raise InputError("brute-force oracle enumeration budget exceeded")
    flags, nodes, partners = [], [], []
    for subset in itertools.combinations(range(m * n), k):
        # union-find acyclicity test over m row-nodes and n col-nodes
        parent = list(range(m + n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for c in subset:
            i, j = cells[c]
            ri, rj = find(i), find(m + j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if not ok:
            continue
        # leaf-elimination order for this spanning tree
        adj_r = [[] for _ in range(m)]
        adj_c = [[] for _ in range(n)]
        for c in subset:
            i, j = cells[c]
            adj_r[i].append(j)
            adj_c[j].append(i)
        deg_r = [len(a) for a in adj_r]
        deg_c = [len(a) for a in adj_c]
        gone_r = [False] * m
        gone_c = [False] * n
        f, nd, pt = [], [], []
        for _ in range(k):
            leaf = next(
                (("r", i) for i in range(m) if deg_r[i] == 1 and not gone_r[i]),
                None,
            ) or next(("c", j) for j in range(n) if deg_c[j] == 1 and not gone_c[j])
            if leaf[0] == "r":
                i = leaf[1]
                j = next(jj for jj in adj_r[i] if not gone_c[jj])
                gone_r[i] = True
                f.append(1)
                nd.append(i)
                pt.append(j)
            else:
                j = leaf[1]
                i = next(ii for ii in adj_c[j] if not gone_r[ii])
                gone_c[j] = True
                f.append(0)
                nd.append(j)
                pt.append(i)
            deg_r[i] -= 1
            deg_c[j] -= 1
        flags.append(f)
        nodes.append(nd)
        partners.append(pt)
    sched = (
        np.asarray(flags, dtype=bool),
        np.asarray(nodes, dtype=int),
        np.asarray(partners, dtype=int),
    )
    _tree_schedule_cache[key] = sched
    return sched


def brute_force_w2(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact W2 by exhaustive vertex enumeration; refuses beyond the size cap.

    Equal uniform weights: every vertex is an assignment, so all permutations
    are enumerated.  General weights: every vertex is the basic solution of a
    spanning-tree support, so all spanning trees of the bipartite atom graph
    are solved by leaf elimination and infeasible ones discarded (refused when
    the subset enumeration exceeds the internal budget).  Entirely independent
    of the flow solver.
    """
    if mu.dim != nu.dim:
        raise InputError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    m, n = mu.n_atoms, nu.n_atoms
    if m * n > _BRUTE_ATOM_CAP:
        raise InputError(f"brute-force oracle refuses instances beyond {_BRUTE_ATOM_CAP} atom pairs")
    cost = _cost_matrix(mu, nu)
    uniform = (
        m == n
        and np.allclose(mu.weights, 1.0 / m, rtol=0, atol=1e-15)
        and np.allclose(nu.weights, 1.0 / n, rtol=0, atol=1e-15)
    )
    if uniform:
        best = math.inf
        for perm in itertools.permutations(range(n)):
            c = float(cost[np.arange(m), list(perm)].sum()) / m
            if c < best:
                best = c
        return math.sqrt(max(best, 0.0))
    if m == 1 or n == 1:
        w = nu.weights if m == 1 else mu.weights
        col = cost[0, :] if m == 1 else cost[:, 0]
        return math.sqrt(max(float(np.dot(w, col)), 0.0))
    is_row, node, partner = _tree_schedules(m, n)
    n_trees = is_row.shape[0]
    ra = np.tile(mu.weights, (n_trees, 1))
    rb = np.tile(nu.weights, (n_trees, 1))
    totals = np.zeros(n_trees)
    feasible = np.ones(n_trees, dtype=bool)
    rows_idx = np.arange(n_trees)
    for s in range(m + n - 1):
        rsel = is_row[:, s]
        i = np.where(rsel, node[:, s], partner[:, s])
        j = np.where(rsel, partner[:, s], node[:, s])
        flow = np.where(rsel, ra[rows_idx, i], rb[rows_idx, j])
        feasible &= flow >= -1e-12
        totals += flow * cost[i, j]
        ra[rows_idx, i] -= flow
        rb[rows_idx, j] -= flow
    totals = np.where(feasible, totals, np.inf)
    best = float(np.min(totals))
    return math.sqrt(max(best, 0.0))


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


def _distinct_slices(nodes: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """How many distinct node slices ``nodes[:, k : k + 2]`` the paths have, per ``k`` of ``ks``.

    Rows are told apart as ``_group_rows`` does, by ``!=`` after a sort.  Two
    slices can be equal only where the first coordinates of their end nodes
    tie, so only those segments are lexsorted.  About ``_SUP_CHUNK_ELEMS``
    node values are sorted at a time.
    """
    n, _, d = nodes.shape
    step = max(1, _SUP_CHUNK_ELEMS // (2 * d * n))
    counts = np.empty(ks.shape[0], dtype=np.intp)
    for s in range(0, ks.shape[0], step):
        c = ks[s : s + step]
        ends = np.sort(nodes[:, c + 1, 0], axis=0)
        tied = np.any(ends[1:] == ends[:-1], axis=0)
        c = c[tied]
        keys = nodes[:, np.stack([c, c + 1], axis=1)].reshape(n, c.shape[0], 2 * d).T
        order = np.lexsort(keys, axis=-1)  # (c, n): each segment's slices in row order
        rows = np.take_along_axis(keys, order[None], axis=-1)
        new_row = np.any(rows[..., 1:] != rows[..., :-1], axis=0)
        counts[s : s + step] = n
        counts[s : s + step][tied] = 1 + np.count_nonzero(new_row, axis=1)
    return counts


def _segment_side(ens: PathEnsemble, k: int):
    """The distinct paths of ``ens`` on segment ``k``.

    Returns the segment's two grid nodes, the node slices of its distinct
    paths and the group of each path.
    """
    first, group = _group_rows(ens.nodes[:, k : k + 2].reshape(ens.n_paths, -1))
    return ens.grid[k : k + 2], ens.nodes[first, k : k + 2], group


def _raise_sup(sq: np.ndarray, ts: np.ndarray, side1, side2) -> None:
    """Raise ``sq`` to the squared distances of the paths of two sides at the times ``ts``.

    A side is (grid, nodes of its distinct paths, the distinct path of each
    path).  The times are walked in blocks of about ``_SUP_CHUNK_ELEMS``
    distinct pair differences (at least one time).
    """
    if ts.shape[0] == 0:
        return
    (g1, nodes1, group1), (g2, nodes2, group2) = side1, side2
    m1, m2 = nodes1.shape[0], nodes2.shape[0]
    width = max(1, _SUP_CHUNK_ELEMS // (m1 * m2))
    best = np.zeros((m2, m1))
    for t0 in range(0, ts.shape[0], width):
        block = ts[t0 : t0 + width]
        x1 = _interp_nodes(g1, nodes1, block)  # (B, d, m1)
        x2 = _interp_nodes(g2, nodes2, block)  # (B, d, m2)
        acc = np.zeros((block.shape[0], m2, m1))
        diff = np.empty_like(acc)
        for k in range(x1.shape[1]):
            np.subtract(x1[:, None, k], x2[:, k, :, None], out=diff)
            diff *= diff
            acc += diff
        np.maximum(best, acc.max(axis=0), out=best)
    np.maximum(sq, best.T[np.ix_(group1, group2)], out=sq)


def _sup_matrix(e1: PathEnsemble, e2: PathEnsemble) -> np.ndarray:
    """All pairwise ``path_sup_distance`` values, bitwise, as an (n1, n2) matrix.

    Both ensembles are evaluated on the union of their grids, and the squared
    norm is summed over the coordinates in order, as ``np.linalg.norm`` does;
    the sup of the root is the root of the sup, since sqrt is monotone and
    correctly rounded.  The times are walked in blocks (``_raise_sup``), so
    memory does not grow with the grid.

    The union grid is cut at the nodes of the shorter grid.  A segment whose
    paths share node slices, as a tree's early segments do, is walked on its
    own, both ends included: that side's paths are grouped by the slice
    ``nodes[:, k : k + 2]`` (both sides when the grids are equal), each
    distinct slice is evaluated once on its two-node sub-grid, which gives the
    full grid's values bit for bit, and the maxima are gathered back to the
    paths.  It is walked on its own only when the grouping saves at least one
    block of ``_SUP_CHUNK_ELEMS`` pair differences; the times between such
    segments are walked with all paths on their full grids.  So there are
    fewer grouped segments than blocks of pair differences, and the Python
    work does not grow with the node count.  The max is idempotent, so the
    shared segment ends do no harm.
    """
    ts = _union_grid(e1.grid, e2.grid)
    n1, n2 = e1.n_paths, e2.n_paths
    cut_first = e1.grid.shape[0] <= e2.grid.shape[0]
    both = np.array_equal(e1.grid, e2.grid)
    # the union times at the cut nodes; equal grids are their own union
    at = np.arange(ts.shape[0]) if both else np.searchsorted(ts, e1.grid if cut_first else e2.grid)
    times = np.diff(at) + 1
    ks = np.flatnonzero(times * (n1 * n2) >= _SUP_CHUNK_ELEMS)
    m1 = _distinct_slices(e1.nodes, ks) if cut_first or both else n1
    m2 = _distinct_slices(e2.nodes, ks) if both or not cut_first else n2
    ks = ks[times[ks] * (n1 * n2 - m1 * m2) >= _SUP_CHUNK_ELEMS]
    whole1 = (e1.grid, e1.nodes, np.arange(n1))
    whole2 = (e2.grid, e2.nodes, np.arange(n2))
    sq = np.zeros((n1, n2))
    start = 0
    for k in ks.tolist():
        _raise_sup(sq, ts[start : at[k]], whole1, whole2)
        side1 = _segment_side(e1, k) if cut_first or both else whole1
        side2 = _segment_side(e2, k) if both or not cut_first else whole2
        _raise_sup(sq, ts[at[k] : at[k + 1] + 1], side1, side2)
        start = at[k + 1] + 1
    _raise_sup(sq, ts[start:], whole1, whole2)
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

    The tangent measure is barycentrically projected; the flow solver then
    returns one optimal coupling gamma_o between the x-marginal and ``nu``
    (stable pivoting, lexicographic tie-breaking) and the pairing is
    integral of <bry(x0), x0 - x1> against it.  ``degenerate`` on the result
    flags instances where several optimal plans exist, in which case the true
    pairing is the minimum over all of them and this value is an upper bound.
    """
    if phi.dim != nu.dim:
        raise InputError(f"dimension mismatch: {phi.dim} vs {nu.dim}")
    proj = barycentric_projection(phi)
    xmarg = DiscreteMeasure(proj.positions, proj.weights)
    res = optimal_coupling(xmarg, nu, method="flow")
    # the first row of each group is the projection's own row at that position
    first, group = _group_rows(np.concatenate([proj.positions, res.coupling.first_atoms]))
    bry = proj.velocities[first[group[proj.n_atoms :]]]
    value = 0.0
    for v, x0, x1, w in zip(
        bry, res.coupling.first_atoms, res.coupling.second_atoms, res.coupling.weights
    ):
        value += w * float(np.dot(v, x0 - x1))
    return value, res


def bram_pairing(phi: TangentMeasure, nu: DiscreteMeasure) -> float:
    """Metric-duality pairing evaluated on one deterministic optimal plan."""
    value, _ = bram_pairing_detailed(phi, nu)
    return value
