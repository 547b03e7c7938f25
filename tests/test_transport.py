"""Exact OT solver vs the vertex-enumeration oracle, path metrics, pairings."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from measureflow import transport
from measureflow.errors import InputError
from measureflow.measure import DiscreteMeasure, dirac, mixture, tangent_atoms
from measureflow.paths import (
    HORIZON_TOL,
    PathEnsemble,
    PiecewisePath,
    Provenance,
    _interp_nodes,
    _union_grid,
    constant_path,
)
from measureflow.transport import (
    _MASS_EPS,
    _cost_matrix,
    _flow_result,
    _pair_sq,
    _quantile_result,
    _solve_flow,
    _sup_matrix,
    bram_pairing,
    bram_pairing_detailed,
    optimal_coupling,
    path_sup_distance,
    w2_distance,
    wasserstein2_sup,
)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

_BRUTE_ATOM_CAP = 64
_BRUTE_ENUM_BUDGET = 700_000
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


def _random_measure(rng, max_atoms=4, dims=(1, 2, 3)):
    d = int(rng.choice(dims))
    n = int(rng.integers(1, max_atoms + 1))
    w = rng.random(n)
    return DiscreteMeasure(rng.normal(size=(n, d)), w / w.sum())


def test_optimal_coupling_examples():
    r = optimal_coupling(dirac(0.0), dirac(1.0))
    assert np.isclose(r.cost, 1.0) and np.isclose(r.distance, 1.0)

    # only one coupling exists: each half unit of mass moves distance 1
    r = optimal_coupling(mixture([0.0, 2.0], [0.5, 0.5]), dirac(1.0))
    assert np.isclose(r.cost, 1.0) and np.isclose(r.distance, 1.0)

    m = mixture([0.0, 1.0], [0.5, 0.5])
    assert optimal_coupling(m, m).cost <= 1e-15


def test_optimal_coupling_dimension_mismatch():
    with pytest.raises(InputError):
        optimal_coupling(dirac(0.0), dirac([0.0, 1.0]))
    p1, p2 = constant_path(0.0, 1.0), constant_path([0.0, 1.0], 1.0)
    e1, e2 = _ensemble([p1], [1.0]), _ensemble([p2], [1.0])
    for a, b in ((p1, p2), (p2, p1)):
        with pytest.raises(InputError, match="dimension mismatch"):
            path_sup_distance(a, b)
    for a, b in ((e1, e2), (e2, e1)):
        with pytest.raises(InputError, match="dimension mismatch"):
            wasserstein2_sup(a, b)


def test_brute_force_examples():
    assert np.isclose(brute_force_w2(dirac(0.0), dirac(1.0)), 1.0)
    # identity pairing costs (1 + 1)/2 = 1, crossing costs 9: the minimum is 1
    assert np.isclose(
        brute_force_w2(mixture([0.0, 4.0], [0.5, 0.5]), mixture([1.0, 3.0], [0.5, 0.5])),
        1.0,
    )
    # vertex enumeration: best plan moves 1/3 of the mass across distance 3
    got = brute_force_w2(
        mixture([0.0, 3.0], [1 / 3, 2 / 3]), mixture([0.0, 3.0], [2 / 3, 1 / 3])
    )
    assert np.isclose(got, math.sqrt(3.0))


def test_brute_force_size_cap():
    rng = np.random.default_rng(0)
    mu = DiscreteMeasure(rng.normal(size=(9, 1)), np.full(9, 1 / 9))
    nu = DiscreteMeasure(rng.normal(size=(9, 1)), np.full(9, 1 / 9))
    with pytest.raises(InputError):
        brute_force_w2(mu, nu)  # 81 > 64 atom pairs


def test_solver_matches_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(120):
        mu = _random_measure(rng)
        nu = _random_measure(rng)
        while nu.dim != mu.dim:
            nu = _random_measure(rng)
        flow = _flow_result(mu, nu).cost
        oracle = brute_force_w2(mu, nu) ** 2
        assert abs(flow - oracle) <= 1e-9 * max(1.0, oracle)
        if mu.dim == 1:
            quant = _quantile_result(mu, nu).cost
            assert abs(quant - oracle) <= 1e-9 * max(1.0, oracle)


def test_metric_axioms():
    rng = np.random.default_rng(8)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        ms = []
        for _ in range(3):
            n = int(rng.integers(1, 5))
            w = rng.random(n)
            ms.append(DiscreteMeasure(rng.normal(size=(n, d)), w / w.sum()))
        ab = w2_distance(ms[0], ms[1])
        ba = w2_distance(ms[1], ms[0])
        assert abs(ab - ba) <= 1e-10
        assert w2_distance(ms[0], ms[0]) <= 1e-12
        assert ab <= w2_distance(ms[0], ms[2]) + w2_distance(ms[2], ms[1]) + 1e-9


def test_degeneracy_flag():
    # unit square corners: every admissible plan costs exactly 1
    mu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
    nu = DiscreteMeasure(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5]))
    assert _flow_result(mu, nu).degenerate is True
    # generic instance: unique optimum
    rng = np.random.default_rng(9)
    mu = DiscreteMeasure(rng.normal(size=(3, 2)), np.array([0.2, 0.3, 0.5]))
    nu = DiscreteMeasure(rng.normal(size=(2, 2)), np.array([0.4, 0.6]))
    assert _flow_result(mu, nu).degenerate is False
    # the 1-d fast path produces no dual certificate
    assert optimal_coupling(dirac(0.0), dirac(1.0)).degenerate is None


def test_path_sup_distance_examples():
    p1 = PiecewisePath(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]))
    p2 = constant_path(0.0, 1.0)
    assert np.isclose(path_sup_distance(p1, p2), 1.0)
    assert path_sup_distance(p1, p1) == 0.0
    spike = PiecewisePath(np.array([0.0, 0.5, 1.0]), np.array([[0.0], [1.0], [0.0]]))
    assert np.isclose(path_sup_distance(spike, p2), 1.0)


def test_path_sup_distance_union_grid_is_exact():
    # different grids describing different polylines: sup attained off both coarse grids
    a = PiecewisePath(np.array([0.0, 0.5, 1.0]), np.array([[0.0], [1.0], [0.0]]))
    b = PiecewisePath(np.array([0.0, 0.25, 1.0]), np.array([[0.0], [-1.0], [0.0]]))
    # at t = 0.25: a = 0.5, b = -1 -> gap 1.5; at t = 0.5: a = 1, b = -2/3 -> gap 5/3
    assert np.isclose(path_sup_distance(a, b), 5.0 / 3.0)


def test_path_sup_distance_horizon_mismatch():
    with pytest.raises(InputError):
        path_sup_distance(constant_path(0.0, 1.0), constant_path(0.0, 2.0))


def _ensemble(paths, weights):
    return PathEnsemble.from_paths(tuple(paths), np.asarray(weights), Provenance("exact-tree"))


def test_wasserstein2_sup_examples():
    g = PiecewisePath(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]))
    h = constant_path(0.0, 1.0)
    assert np.isclose(
        wasserstein2_sup(_ensemble([g], [1.0]), _ensemble([h], [1.0])),
        path_sup_distance(g, h),
    )
    e = _ensemble([g, h], [0.5, 0.5])
    assert wasserstein2_sup(e, e) <= 1e-12
    c0 = constant_path(0.0, 1.0)
    c1 = constant_path(1.0, 1.0)
    e2 = _ensemble([c0, c1], [0.5, 0.5])
    assert wasserstein2_sup(e2, e2) <= 1e-12


def test_wasserstein2_sup_dominates_marginal_w2():
    rng = np.random.default_rng(10)
    grid = np.linspace(0.0, 1.0, 5)
    for _ in range(10):
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        e1 = _ensemble(
            [PiecewisePath(grid, rng.normal(size=(5, 2))) for _ in range(n1)],
            np.full(n1, 1.0 / n1),
        )
        e2 = _ensemble(
            [PiecewisePath(grid, rng.normal(size=(5, 2))) for _ in range(n2)],
            np.full(n2, 1.0 / n2),
        )
        w_path = wasserstein2_sup(e1, e2)
        for t in rng.random(4):
            w_marg = w2_distance(e1.evaluate(float(t)), e2.evaluate(float(t)))
            assert w_marg <= w_path + 1e-9


def test_bram_pairing_examples():
    assert np.isclose(bram_pairing(tangent_atoms([((0.0,), (1.0,))], [1.0]), dirac(1.0)), -1.0)
    assert np.isclose(bram_pairing(tangent_atoms([((0.0,), (1.0,))], [1.0]), dirac(0.0)), 0.0)
    phi = tangent_atoms([((0.0,), (1.0,)), ((0.0,), (-1.0,))], [0.5, 0.5])
    assert abs(bram_pairing(phi, dirac(2.0))) <= 1e-12


def test_bram_pairing_vanishes_on_own_marginal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, d = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        w = rng.random(n)
        phi = tangent_atoms(
            [(rng.normal(size=d), rng.normal(size=d)) for _ in range(n)], w / w.sum()
        )
        assert abs(bram_pairing(phi, phi.x_marginal())) <= 1e-12


def test_bram_pairing_detail_reports_transport():
    phi = tangent_atoms([((0.0,), (1.0,))], [1.0])
    value, res = bram_pairing_detailed(phi, dirac(1.0))
    assert np.isclose(value, -1.0)
    assert res.method == "flow"
    assert res.degenerate in (True, False)


def test_pairing_takes_the_least_optimal_plan():
    # both plans between the two pairs of points cost 2; the solver's own plan
    # pairs to +0.5, the other one to -0.5
    phi = tangent_atoms([((0.0, 1.0), (1.0, 0.0)), ((0.0, -1.0), (0.0, 0.0))], [0.5, 0.5])
    nu = mixture([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
    value, res = bram_pairing_detailed(phi, nu)
    assert value == -0.5
    assert res.degenerate is True and res.cost == 2.0
    plan = res.coupling
    assert sorted(zip(plan.first_atoms.tolist(), plan.second_atoms.tolist())) == [
        ([0.0, -1.0], [-1.0, 0.0]),
        ([0.0, 1.0], [1.0, 0.0]),
    ]


def _vertex_plans(a, b):
    """Every vertex of the transport polytope between weights ``a`` and ``b``, as (m, n) plans."""
    m, n = len(a), len(b)
    if m == 1 or n == 1:
        return [np.outer(a, b)]
    plans = []
    for is_row, node, partner in zip(*_tree_schedules(m, n)):
        ra, rb, plan = a.copy(), b.copy(), np.zeros((m, n))
        for r, k, l in zip(is_row, node, partner):
            i, j = (k, l) if r else (l, k)
            plan[i, j] = ra[i] if r else rb[j]
            ra[i] -= plan[i, j]
            rb[j] -= plan[i, j]
        if plan.min() >= -1e-12:
            plans.append(plan)
    return plans


def _least_optimal_pairing(phi, nu):
    """min over optimal plans of the integral of <bry(x0), x0 - x1>, by vertex enumeration."""
    mass, moment = {}, {}
    for x, v, w in zip(phi.positions.tolist(), phi.velocities, phi.weights):
        mass[tuple(x)] = mass.get(tuple(x), 0.0) + w
        moment[tuple(x)] = moment.get(tuple(x), 0.0) + w * v
    xs = np.array(list(mass))
    bry = np.array([moment[x] / mass[x] for x in mass])
    diff = xs[:, None, :] - nu.atoms[None, :, :]
    cost = np.sum(diff * diff, axis=2)
    pairing = np.sum(bry[:, None, :] * diff, axis=2)
    plans = _vertex_plans(np.array(list(mass.values())), nu.weights)
    best = min(float(np.sum(plan * cost)) for plan in plans)
    optimal = [plan for plan in plans if float(np.sum(plan * cost)) <= best + 1e-9]
    return min(float(np.sum(plan * pairing)) for plan in optimal), best


@st.composite
def _lattice_pairing_instance(draw):
    dim = draw(st.integers(1, 2))
    point = st.lists(st.sampled_from((-1.0, 0.0, 1.0)), min_size=dim, max_size=dim)
    raw = st.sampled_from((1.0, 1.0, 2.0, 3.0))
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    xs = draw(st.lists(point, min_size=k, max_size=k))
    vs = draw(st.lists(point, min_size=k, max_size=k))
    w = np.array(draw(st.lists(raw, min_size=k, max_size=k)))
    u = np.array(draw(st.lists(raw, min_size=n, max_size=n)))
    ys = draw(st.lists(point, min_size=n, max_size=n, unique_by=tuple))
    phi = tangent_atoms(list(zip(xs, vs)), w / w.sum())
    assume(phi.x_marginal().n_atoms * n <= 12)  # keeps the tree enumeration small
    return phi, DiscreteMeasure(np.array(ys), u / u.sum())


@settings(max_examples=150, deadline=None)
@given(instance=_lattice_pairing_instance())
def test_pairing_matches_the_vertex_enumeration_oracle(instance):
    # lattice points tie often, so many instances have several optimal plans
    phi, nu = instance
    value, res = bram_pairing_detailed(phi, nu)
    want, best = _least_optimal_pairing(phi, nu)
    assert abs(value - want) <= 1e-12
    assert abs(res.cost - best) <= 1e-12


def test_transport_result_cost_consistency():
    # the reported cost equals the recomputed coupling cost within 1e-10
    rng = np.random.default_rng(12)
    for route in (_flow_result, _quantile_result):
        for _ in range(15):
            d = 1 if route is _quantile_result else int(rng.integers(1, 4))
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            wm, wn = rng.random(m), rng.random(n)
            mu = DiscreteMeasure(rng.normal(size=(m, d)), wm / wm.sum())
            nu = DiscreteMeasure(rng.normal(size=(n, d)), wn / wn.sum())
            res = route(mu, nu)
            c = res.coupling
            recomputed = float(
                np.sum(c.weights * np.sum((c.first_atoms - c.second_atoms) ** 2, axis=1))
            )
            assert abs(recomputed - res.cost) <= 1e-10
            assert abs(res.distance - np.sqrt(res.cost)) <= 1e-15


def _row_at_a_time_flow(cost, a, b):
    """Reference min-cost flow: the Dijkstra settles one row per iteration."""
    m, n = cost.shape
    flow = np.zeros((m, n))
    p = np.zeros(m)
    q = np.zeros(n)
    rem_a = a.astype(float).copy()
    rem_b = b.astype(float).copy()
    for _ in range(20 * (m + n) + 200):
        if rem_a.sum() <= _MASS_EPS:
            break
        dist_r = np.where(rem_a > _MASS_EPS, 0.0, np.inf)
        dist_c = np.full(n, np.inf)
        done_r = np.zeros(m, dtype=bool)
        done_c = np.zeros(n, dtype=bool)
        pred_c = np.full(n, -1, dtype=int)
        pred_r = np.full(m, -1, dtype=int)
        target = -1
        while True:
            dr = np.where(done_r, np.inf, dist_r)
            dc = np.where(done_c, np.inf, dist_c)
            ir = int(np.argmin(dr))
            jc = int(np.argmin(dc))
            if dr[ir] <= dc[jc]:
                if not np.isfinite(dr[ir]):
                    break
                done_r[ir] = True
                rc = cost[ir] - p[ir] - q
                np.maximum(rc, 0.0, out=rc)
                cand = dist_r[ir] + rc
                better = cand < dist_c
                if better.any():
                    dist_c[better] = cand[better]
                    pred_c[better] = ir
            else:
                if not np.isfinite(dc[jc]):
                    break
                done_c[jc] = True
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
                        dist_r[better] = cand[better]
                        pred_r[better] = jc
            if done_r.all() and done_c.all():
                break
        assert target >= 0
        dist_t = dist_c[target]
        p -= np.minimum(dist_r, dist_t)
        q += np.minimum(dist_c, dist_t)
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
        rem_b[target] -= bottleneck
        if rem_b[target] <= _MASS_EPS:
            rem_b[target] = 0.0
    else:
        raise AssertionError("augmentation limit exceeded")
    return flow, p, q


@st.composite
def _flow_problems(draw):
    """Tall m x 3, square uniform (degenerate), 1 x n, m x 1 and tie-heavy shapes."""
    kind = draw(st.sampled_from(["tall", "square-uniform", "one-row", "one-col", "ties"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "tall":
        m, n = draw(st.integers(1, 300)), 3
    elif kind == "square-uniform":
        m = n = draw(st.integers(2, 40))
    elif kind == "one-row":
        m, n = 1, draw(st.integers(1, 30))
    elif kind == "one-col":
        m, n = draw(st.integers(1, 30)), 1
    else:
        m, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    if kind == "ties":
        x = rng.integers(-2, 3, size=(m, 2)).astype(float)
        y = rng.integers(-2, 3, size=(n, 2)).astype(float)
    else:
        x, y = rng.normal(size=(m, 2)), rng.normal(size=(n, 2))
    if kind == "square-uniform" or (kind == "ties" and draw(st.booleans())):
        a, b = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    else:
        a, b = rng.random(m) + 0.1, rng.random(n) + 0.1
        a, b = a / a.sum(), b / b.sum()
    cost = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
    return cost, a, b


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_flow_problems())
def test_flow_matches_row_at_a_time_reference_bitwise(problem):
    cost, a, b = problem
    for got, want in zip(_solve_flow(cost, a, b), _row_at_a_time_flow(cost, a, b)):
        assert got.tobytes() == want.tobytes()


def _assert_bitwise(got, want):
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def _straight_paths(rng, grid, n):
    """n straight 2-d paths from [-1, 1]^2 on ``grid``, their starts and velocities."""
    x0, v = rng.uniform(-1.0, 1.0, size=(n, 2)), rng.normal(size=(n, 2))
    return x0, v, x0[:, None] + grid[:, None] * v[:, None]


def _sweep_problem(seed):
    """The sweep's 243x3 problem: squared sup distances of a tree to its 3-path reference.

    The reference paths are straight on 101 nodes.  The tree has their
    starts as roots and branches 3 ways at each of 4 steps, each branch
    adding one of 3 small shifts, as a noise label does.
    """
    rng = np.random.default_rng(seed)
    fine, grid = np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, 5)
    x0, v, ref_nodes = _straight_paths(rng, fine, 3)
    shifts = 0.05 * rng.normal(size=(3, 2))
    root = np.arange(243) // 81
    labels = np.arange(243)[:, None] // 3 ** np.arange(3, -1, -1) % 3  # (path, step)
    walk = np.concatenate([np.zeros((243, 1, 2)), np.cumsum(shifts[labels], axis=1)], axis=1)
    nodes = x0[root, None] + grid[:, None] * v[root, None] + walk
    w_root, w_label = rng.random(3) + 0.5, rng.random(3) + 0.5
    w = w_root[root] * np.prod(w_label[labels], axis=1)
    tree = PathEnsemble(grid, nodes, w / w.sum(), Provenance("exact-tree"))
    ref = PathEnsemble(fine, ref_nodes, w_root / w_root.sum(), Provenance("limit-flow"))
    return _sup_matrix(tree, ref) ** 2, tree.weights, ref.weights


def _monte_carlo_problem(m, seed):
    """A Monte-Carlo sweep's m x 3 problem: m uniform random walks on 33 nodes against 3 paths."""
    rng = np.random.default_rng(seed)
    fine, grid = np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, 33)
    x0, _, ref_nodes = _straight_paths(rng, fine, 3)
    steps = 0.1 * rng.normal(size=(m, 33, 2))
    nodes = x0[rng.integers(0, 3, m), None] + np.cumsum(steps, axis=1)
    walks = PathEnsemble(grid, nodes, np.full(m, 1 / m), Provenance("monte-carlo"))
    w = rng.random(3) + 0.5
    ref = PathEnsemble(fine, ref_nodes, w / w.sum(), Provenance("limit-flow"))
    return _sup_matrix(walks, ref) ** 2, walks.weights, ref.weights


def _tall_problem(seed, m, integer=False, tiny_rows=0):
    """m x 3 squared distances; integer coordinates tie costs, tiny rows start without supply."""
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(m, 2)), rng.normal(size=(3, 2))
    if integer:
        x, y = np.round(2 * x), np.round(2 * y)
    a, b = rng.random(m) + 0.1, rng.random(3) + 0.1
    a[rng.choice(m, tiny_rows, replace=False)] = 1e-15 * a.sum()  # below _MASS_EPS
    return np.sum((x[:, None] - y[None]) ** 2, axis=2), a / a.sum(), b / b.sum()


_U = 2.0**-52  # the spacing of the floats in [1, 2)

_FIRST_STEP_PROBLEMS = {
    "sweep-tree": lambda: _sweep_problem(1),
    "integer-ties": lambda: _tall_problem(2, 120, integer=True),
    "rows-without-supply": lambda: _tall_problem(4, 80, tiny_rows=8),
    # most rows are nearest to column 0, which fills after a fifth of them
    "saturated-nearest-column": lambda: (
        np.array([[0.1 * (i % 7), 2.0 + i % 5, 3.0 + i % 3] for i in range(40)]),
        np.full(40, 1 / 40),
        np.array([0.2, 0.5, 0.3]),
    ),
    # with q = U/2 after the first arc, rows 1 and 2 both label 1.5 on
    # column 0, though row 1 costs more: row 1 comes first and wins
    "tie-after-subtraction": lambda: (
        np.array([[_U / 2, 3.0], [1.5 + _U, 3.0], [1.5, 3.0]]),
        np.array([0.5, 0.25, 0.25]),
        np.array([0.75, 0.25]),
    ),
    # rounding in q puts two rows of different costs below q on a column,
    # so both clamp to 0 and the first row wins
    "clamp-at-zero": lambda: (
        np.array(
            [
                [3.0, 1.0, 1.0],
                [3.0, 0.7, 0.30000000000000043],
                [2.9999999999999996, 1.0, 0.7000000000000002],
                [3.0, 0.10000000000000023, 3.0],
            ]
        ),
        np.array([0.125, 0.375, 0.25, 0.25]),
        np.array([3 / 7, 3 / 7, 1 / 7]),
    ),
}


@pytest.mark.parametrize("name", list(_FIRST_STEP_PROBLEMS))
def test_first_step_matches_row_at_a_time_reference_bitwise(name):
    cost, a, b = _FIRST_STEP_PROBLEMS[name]()
    with mock.patch.object(transport, "_dijkstra", wraps=transport._dijkstra) as dijkstra:
        got = _solve_flow(cost, a, b)
    _assert_bitwise(got, _row_at_a_time_flow(cost, a, b))
    if name == "saturated-nearest-column":
        assert dijkstra.call_count > 0


def test_first_step_on_a_monte_carlo_ensemble_matches_the_dijkstra_alone_bitwise():
    # the row-at-a-time reference takes about 20 s at this size; with the
    # first step never deciding, every augmentation runs the Dijkstra, the
    # route the reference tests pin
    cost, a, b = _monte_carlo_problem(1000, 0)
    with mock.patch.object(transport, "_first_step", return_value=(math.inf, -1, -1)):
        want = _solve_flow(cost, a, b)
    _assert_bitwise(_solve_flow(cost, a, b), want)


def test_first_step_decides_the_sweeps_augmentations():
    # each of the 243 augmentations moves one row's mass along one arc, so
    # the Dijkstra runs only a handful of times
    cost, a, b = _sweep_problem(5)
    with mock.patch.object(transport, "_dijkstra", wraps=transport._dijkstra) as dijkstra:
        _solve_flow(cost, a, b)
    assert dijkstra.call_count <= 5


def test_supply_stranded_by_rounding_stays_in_place():
    # the supply's total exceeds the demand's by 5e-13, within WEIGHT_TOL
    mu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5 + 5e-13]))
    nu = DiscreteMeasure(np.array([[0.0, 1.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
    for first, second in ((mu, nu), (nu, mu)):
        res = _flow_result(first, second)
        assert abs(res.cost - 1.0) <= 1e-12
    # the demand of a Dirac drifts as 2,221 rows are subtracted from it
    rng = np.random.default_rng(37)
    many = DiscreteMeasure(rng.normal(size=(2221, 2)), np.full(2221, 1 / 2221))
    res = _flow_result(many, dirac([0.3, -0.2]))
    assert abs(res.cost - float(np.mean(np.sum((many.atoms - [0.3, -0.2]) ** 2, axis=1)))) <= 1e-12
    # uniform rows against two columns: both fill before the last row is placed
    rng = np.random.default_rng(131)
    x, y = rng.normal(size=(600, 2)), rng.normal(size=(2, 2))
    b = rng.random(2) + 0.1
    cost, a, b = np.sum((x[:, None] - y[None]) ** 2, axis=2), np.full(600, 1 / 600), b / b.sum()
    flow, p, q = _solve_flow(cost, a, b)
    assert np.max(np.abs(flow.sum(axis=1) - a)) <= 1e-12
    assert np.max(np.abs(flow.sum(axis=0) - b)) <= 1e-12
    assert np.min(cost - p[:, None] - q) >= -1e-9


def test_unbalanced_totals_raise_input_error():
    cost = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(InputError, match=r"supply 1\.0 against demand 0\.5 .*\(2x2 problem\)"):
        _solve_flow(cost, np.array([0.5, 0.5]), np.array([0.25, 0.25]))
    # the converse once returned column sums [0.5, 0] without a word
    with pytest.raises(InputError, match=r"supply 0\.5 against demand 1\.0 .*\(2x2 problem\)"):
        _solve_flow(cost, np.array([0.25, 0.25]), np.array([0.5, 0.5]))


def test_flow_errors_name_the_problem():
    with pytest.raises(RuntimeError, match="no augmenting path in a 1x2 transport problem"):
        _solve_flow(np.full((1, 2), np.inf), np.ones(1), np.full(2, 0.5))
    mu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    flow, p, q = _solve_flow(transport._cost_matrix(mu, mu), mu.weights, mu.weights)
    with mock.patch.object(transport, "_solve_flow", return_value=(flow, p + 1.0, q)):
        with pytest.raises(RuntimeError, match=r"2x2 problem: reduced cost -1 below -1e-09"):
            _flow_result(mu, mu)


def _per_pair_sup(e1, e2):
    return np.array([[path_sup_distance(p, q) for q in e2.paths] for p in e1.paths])


_T = 1.0


@st.composite
def _grid_pairs(draw):
    """Two grids on [0, ~T]: shared, partly shared, disjoint interiors, or one node."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g1 = np.unique(np.concatenate([[0.0, _T], rng.random(draw(st.integers(0, 8)))]))
    relation = draw(st.sampled_from(["same", "some", "none", "single", "near-horizon"]))
    own = rng.random(draw(st.integers(0, 8)))
    if relation == "same":
        g2 = g1.copy()
    elif relation == "some":
        g2 = np.unique(np.concatenate([[0.0, _T], g1[1:-1][: len(g1) // 2], own]))
    elif relation == "none":
        g2 = np.unique(np.concatenate([[0.0, _T], own]))
    elif relation == "single":
        g2 = np.array([_T])
    else:  # horizons that differ by less than HORIZON_TOL
        g2 = np.unique(np.concatenate([[0.0], own, [_T + 0.5 * HORIZON_TOL]]))
    if draw(st.booleans()):
        g1, g2 = g2, g1
    return g1, g2


@settings(max_examples=200, deadline=None)
@given(
    _grid_pairs(),
    st.integers(1, 3),
    st.integers(1, 7),
    st.integers(1, 7),
    st.integers(0, 2**32 - 1),
)
def test_sup_matrix_matches_per_pair_bitwise(grids, d, n1, n2, seed):
    rng = np.random.default_rng(seed)
    e1, e2 = (
        _ensemble(
            [PiecewisePath(g, rng.normal(size=(g.size, d)) * 10.0 ** rng.integers(-3, 4))
             for _ in range(n)],
            np.full(n, 1.0 / n),
        )
        for g, n in zip(grids, (n1, n2))
    )
    want = _per_pair_sup(e1, e2).tobytes()
    assert _sup_matrix(e1, e2).tobytes() == want
    with mock.patch.object(transport, "_SUP_STRIDE", 3):
        assert _sup_matrix(e1, e2).tobytes() == want
    # a Dirac side sums w * d**2 in path order, as the per-path loop did
    many, single = e1, _ensemble([e2.paths[0]], [1.0])
    total = 0.0
    for p, w in zip(many.paths, many.weights):
        total += w * path_sup_distance(p, single.paths[0]) ** 2
    assert wasserstein2_sup(many, single) == math.sqrt(max(total, 0.0))
    assert wasserstein2_sup(single, many) == math.sqrt(max(total, 0.0))


def test_sup_matrix_memory_stays_flat():
    # the sweep's shape: a 243-path tree on 5 nodes against a 3-path reference
    # on 10,001; all union times in one block peak at ~150 MiB
    rng = np.random.default_rng(13)
    coarse = np.linspace(0.0, 1.0, 5)
    fine = np.linspace(0.0, 1.0, 10_001)
    tree = _ensemble(
        [PiecewisePath(coarse, rng.normal(size=(5, 2))) for _ in range(243)], np.full(243, 1 / 243)
    )
    ref = _ensemble(
        [PiecewisePath(fine, rng.normal(size=(10_001, 2))) for _ in range(3)], np.full(3, 1 / 3)
    )
    tracemalloc.start()
    try:
        _sup_matrix(tree, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _tree(rng, grid, d, roots, branching, ties):
    """A tree ensemble on ``grid``: path i at node k is fixed by its root and first k branches.

    ``roots * branching**K`` paths share their segments as the exact lift's
    do; with ``ties`` the node values come from {-1, -0, 0, 1, 2}, so slices
    of different branches are equal as numbers too, signed zeros included.
    """
    K = grid.size - 1
    n = roots * branching**K
    nodes = np.empty((n, K + 1, d))
    for k in range(K + 1):
        prefix = np.arange(n) // branching ** (K - k)
        if ties:
            table = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=(prefix[-1] + 1, d))
        else:
            table = rng.normal(size=(prefix[-1] + 1, d)) * 10.0 ** rng.integers(-3, 4)
        nodes[:, k] = table[prefix]
    w = rng.random(n) + 0.5
    return PathEnsemble(grid, nodes, w / w.sum(), Provenance("exact-tree"))


@st.composite
def _tree_pairs(draw):
    """Two ensembles of which at least one is a tree on a coarse grid, and how they relate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    ties = draw(st.booleans())
    coarse = np.unique(np.concatenate([[0.0, _T], rng.random(draw(st.integers(0, 3)))]))
    relation = draw(st.sampled_from(["same", "fine", "offset", "single", "near-horizon"]))
    if relation == "same":  # both trees on one grid: both sides are grouped
        other = coarse.copy()
    elif relation == "fine":  # the coarse nodes among many others
        other = np.unique(np.concatenate([coarse, rng.random(draw(st.integers(5, 40)))]))
    elif relation == "offset":  # union times fall inside the coarse segments
        other = np.concatenate([[0.0], (coarse[1:] + coarse[:-1]) / 2, [_T]])
    elif relation == "single":
        other = np.array([_T])
        if draw(st.booleans()):  # two one-node grids
            coarse = other.copy()
    else:  # horizons that differ by less than HORIZON_TOL
        other = np.concatenate([coarse[:-1], [_T + 0.5 * HORIZON_TOL]])
    sides = []
    for grid in (coarse, other):
        K = grid.size - 1
        branching = draw(st.integers(1, 3)) if K <= 3 else 1
        roots = draw(st.integers(1, 3 if branching > 1 else 6))
        sides.append(_tree(rng, grid, d, roots, branching, ties))
    if draw(st.booleans()):
        sides.reverse()
    return tuple(sides)


@settings(max_examples=150, deadline=None)
@given(_tree_pairs(), st.sampled_from([1, 7, 64, transport._SUP_CHUNK_ELEMS]))
def test_sup_matrix_on_trees_matches_per_pair_bitwise(pair, chunk):
    # small blocks split both passes into many blocks; these unions are
    # short, so a stride of 3 puts inner times between most coarse ones
    e1, e2 = pair
    want = _per_pair_sup(e1, e2).tobytes()
    for stride in (transport._SUP_STRIDE, 3):
        with (
            mock.patch.object(transport, "_SUP_CHUNK_ELEMS", chunk),
            mock.patch.object(transport, "_SUP_STRIDE", stride),
        ):
            assert _sup_matrix(e1, e2).tobytes() == want


@settings(max_examples=100, deadline=None)
@given(_grid_pairs(), st.integers(0, 2**32 - 1))
def test_union_grid_equals_union1d(grids, seed):
    g1, g2 = grids
    rng = np.random.default_rng(seed)
    shared = rng.choice(g1, size=min(g1.size, 3), replace=False)
    g2 = np.unique(np.concatenate([g2, shared]))  # nodes on both grids
    assert np.array_equal(_union_grid(g1, g2), np.union1d(g1, g2))


def test_sup_matrix_with_a_grid_from_negative_zero():
    rng = np.random.default_rng(5)
    grid = np.array([0.0, 0.25, 0.6, 1.0])
    signed = grid.copy()
    signed[0] = -0.0
    e1 = _tree(rng, grid, 2, 2, 2, ties=False)
    e2 = _tree(rng, np.linspace(0.0, 1.0, 9), 2, 3, 1, ties=False)
    e1_signed = PathEnsemble(signed, e1.nodes, e1.weights, e1.provenance)
    assert np.signbit(e1_signed.grid[0])
    want = _sup_matrix(e1, e2).tobytes()
    assert _per_pair_sup(e1, e2).tobytes() == want
    for a, b in ((e1_signed, e2), (e1_signed, e1), (e2, e1_signed)):
        assert _sup_matrix(a, b).tobytes() == _per_pair_sup(a, b).tobytes()
    assert _sup_matrix(e1_signed, e2).tobytes() == want


def test_sup_matrix_memory_stays_flat_on_a_tree():
    # the sweep's shape with its shared segments: 3 roots branching 3 ways
    # on 5 nodes (243 paths) against a 3-path reference on 10,001
    rng = np.random.default_rng(17)
    tree = _tree(rng, np.linspace(0.0, 1.0, 5), 2, 3, 3, ties=False)
    ref = _tree(rng, np.linspace(0.0, 1.0, 10_001), 2, 3, 1, ties=False)
    assert tree.n_paths == 243
    tracemalloc.start()
    try:
        _sup_matrix(tree, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_sup_matrix_memory_stays_flat_on_one_long_grid():
    # many paths on one shared grid: every union time is a coarse time, read
    # in blocks without copying the node arrays whole
    rng = np.random.default_rng(29)
    grid = np.linspace(0.0, 1.0, 2_001)
    a = _tree(rng, grid, 1, 200, 1, ties=False)
    b = _tree(rng, grid, 1, 200, 1, ties=False)
    tracemalloc.start()
    try:
        _sup_matrix(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_sup_matrix_memory_stays_flat_on_a_monte_carlo_ensemble():
    # a fixed-T Monte-Carlo sweep's shape: 1,000 walks on 65 nodes against a
    # 3-path reference on 10,001; the screen's arrays are built per block
    rng = np.random.default_rng(31)
    x0, _, ref_nodes = _straight_paths(rng, np.linspace(0.0, 1.0, 10_001), 3)
    steps = 0.1 * rng.normal(size=(1000, 65, 2))
    steps[:, 0] = x0[rng.integers(0, 3, 1000)]
    walks = PathEnsemble(
        np.linspace(0.0, 1.0, 65), np.cumsum(steps, axis=1), np.full(1000, 1e-3),
        Provenance("monte-carlo"),
    )
    ref = PathEnsemble(
        np.linspace(0.0, 1.0, 10_001), ref_nodes, np.full(3, 1 / 3), Provenance("limit-flow")
    )
    tracemalloc.start()
    try:
        _sup_matrix(walks, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_sup_matrix_memory_stays_flat_with_many_paths_on_the_fine_grid():
    # the screen's slopes and node windows span a block's fine nodes for
    # every path of the finer side, so blocks are sized by them too
    rng = np.random.default_rng(37)
    fine = np.linspace(0.0, 1.0, 2_001)
    many = PathEnsemble(
        fine, np.cumsum(0.1 * rng.normal(size=(200, 2_001, 2)), axis=1), np.full(200, 1 / 200),
        Provenance("monte-carlo"),
    )
    one = _tree(rng, np.linspace(0.0, 1.0, 5), 2, 1, 1, ties=False)
    tracemalloc.start()
    try:
        _sup_matrix(many, one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@settings(max_examples=100, deadline=None)
@given(_grid_pairs(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_bend_matches_a_segment_by_segment_reference(grids, d, seed):
    grid, other = grids
    rng = np.random.default_rng(seed)
    nodes = rng.normal(size=(3, grid.size, d))
    ts = _union_grid(grid, other)[:: int(rng.integers(1, 4))]
    if ts.size < 2:
        return
    slopes = np.diff(nodes, axis=1) / np.diff(grid)[:, None]
    want = np.empty((ts.size - 1, 3))
    for m, (a, b) in enumerate(zip(ts[:-1], ts[1:])):
        # the segments meeting (a, b), and slope 0 where it leaves the grid
        near = slopes[:, (grid[1:] > a) & (grid[:-1] < b)]
        if a < grid[0] or b > grid[-1]:
            near = np.concatenate([near, np.zeros((3, 1, d))], axis=1)
        want[m] = np.sum(near.max(axis=1) - near.min(axis=1), axis=1) * ((b - a) / 2)
    assert transport._bend(grid, nodes, ts).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(_grid_pairs(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_reach_matches_a_node_by_node_reference(grids, d, seed):
    grid, other = grids
    rng = np.random.default_rng(seed)
    nodes = rng.normal(size=(3, grid.size, d)) * 10.0 ** rng.integers(-3, 4, size=grid.size)[:, None]
    ts = _union_grid(grid, other)[:: int(rng.integers(1, 4))]
    if ts.size < 2:
        return
    size = np.sum(np.abs(nodes), axis=2)
    want = np.empty((ts.size - 1, 3))
    for m, (a, b) in enumerate(zip(ts[:-1], ts[1:])):
        # the nodes from the last at or before a to the first at or after b
        lo = max([j for j in range(grid.size) if grid[j] <= a], default=0)
        hi = min([j for j in range(grid.size) if grid[j] >= b], default=grid.size - 1)
        want[m] = size[:, lo : hi + 1].max(axis=1)
    got = transport._reach(grid, nodes, ts)
    assert got.tobytes() == want.tobytes()
    # it bounds the paths in between, up to the rounding of interpolation
    inner = (ts[:-1] + ts[1:]) / 2
    values = np.abs(_interp_nodes(grid, nodes, inner)).sum(axis=1)
    assert np.all(values <= got * (1 + 1e-12))


def _interp_calls(e1, e2):
    calls = []

    def counting(grid, nodes, ts):
        calls.append(ts)
        return _interp_nodes(grid, nodes, ts)

    with mock.patch.object(transport, "_interp_nodes", counting):
        got = _sup_matrix(e1, e2)
    assert got.tobytes() == _per_pair_sup(e1, e2).tobytes()
    return len(calls)


def test_sup_matrix_python_work_does_not_grow_with_the_node_count():
    # blocks of pair-times set the count, not nodes: two calls per block of
    # about _SUP_CHUNK_ELEMS pair values, whole-grid blocks on a long shared grid
    rng = np.random.default_rng(19)
    fine = np.linspace(0.0, 1.0, 10_001)
    a = _tree(rng, fine, 2, 3, 1, ties=False)
    b = _tree(rng, fine, 2, 3, 1, ties=False)
    whole = 2 * math.ceil(10_001 / (transport._SUP_CHUNK_ELEMS // 9))
    assert _interp_calls(a, b) <= 2 * whole
    assert _interp_calls(a, a) <= 2 * whole
    # the sweep's tree, its paths in no particular order, takes fewer blocks
    # than the whole-grid walk: ``a`` takes a fresh scale at every node, so
    # its stretches without a large node go unread
    tree = _tree(rng, np.linspace(0.0, 1.0, 5), 2, 3, 3, ties=False)
    tree = PathEnsemble(tree.grid, tree.nodes[rng.permutation(243)], tree.weights, tree.provenance)
    whole = 2 * math.ceil(10_001 / (transport._SUP_CHUNK_ELEMS // 729))
    assert _interp_calls(tree, a) < whole
    # against smooth reference paths, as in the sweep, most blocks go unread
    _, _, smooth = _straight_paths(rng, fine, 3)
    ref = PathEnsemble(fine, smooth, np.full(3, 1 / 3), Provenance("limit-flow"))
    assert _interp_calls(tree, ref) < whole / 4


@pytest.mark.parametrize("chunk", [1, transport._SUP_CHUNK_ELEMS])
def test_sup_matrix_reads_every_union_time(chunk):
    # a spike at one fine node puts every pair's sup at that time, whether it
    # falls on a coarse time or is read after them, at either stride; the
    # paths share their first and last segments but not the middle one
    rng = np.random.default_rng(23)
    columns = [[0, 0, 0, 0], [1, 1, 2, 2], [3, 4, 3, 4], [5, 7, 5, 7]]
    nodes = np.array(columns, dtype=float).T[:, :, None]
    tree = PathEnsemble(
        np.array([0.0, 0.3, 0.6, 1.0]), nodes, np.full(4, 0.25), Provenance("exact-tree")
    )
    fine = np.unique(np.concatenate([np.linspace(0.0, 1.0, 11), [0.3, 0.45, 0.6]]))
    for j in range(fine.size):
        nodes = rng.normal(size=(3, fine.size, 1))
        nodes[:, j] = 1e6
        spiked = PathEnsemble(fine, nodes, np.full(3, 1 / 3), Provenance("exact-tree"))
        want = _per_pair_sup(tree, spiked).tobytes()
        for stride in (transport._SUP_STRIDE, 3):
            with (
                mock.patch.object(transport, "_SUP_CHUNK_ELEMS", chunk),
                mock.patch.object(transport, "_SUP_STRIDE", stride),
            ):
                assert _sup_matrix(tree, spiked).tobytes() == want


def test_sup_matrix_reads_an_inner_time_that_rounding_lifts():
    # the tree's middle node holds the coarse maximum, and interpolation
    # three ulps before it reads one ulp more; the fine path is constant, so
    # the bound has no bend, and without the rounding margin the root and
    # square of the bound fell below that maximum and skipped the interval
    middle = 60 / 127
    levels = [[-0.0, 1.0687627224822788e150, -9.383182720006904e149],
              [-0.0, 7.8466141286448045e149, -1.2262142242946858e150],
              [-0.0, 1.0256043450046892e150, -4.119645472540911e149]]
    tree = PathEnsemble(
        np.array([0.0, middle, 1.0]), np.array([levels]), np.ones(1), Provenance("exact-tree")
    )
    near = [np.array([middle, 1.0])]
    for _ in range(4):
        near.append(np.nextafter(near[-1], -np.inf))
    fine = np.unique(np.concatenate([np.linspace(0.0, 1.0, 128), *near[1:]]))
    fine = np.unique(np.concatenate([fine, [2 * middle - t[0] for t in near[1:]]]))
    flat = np.full((3, fine.size, 3), [-2.571922406188707e149, -0.0, -0.0])
    ref = PathEnsemble(fine, flat, np.full(3, 1 / 3), Provenance("limit-flow"))
    assert _sup_matrix(ref, tree).tobytes() == _per_pair_sup(ref, tree).tobytes()


@st.composite
def _screen_pairs(draw):
    """A tree on a few nodes against paths on a fine grid, shaped for the screen of ``_sup_matrix``.

    ``smooth``: the tree fans out from the fine paths, as a scheme does from
    its limit, so each pair's maximum sits near the end and most intervals
    go unread.  ``peak``: each fine path peaks at a coarse time and again in
    the middle of an interval, there tied or one ulp higher, so only a bound
    within a factor of 4 of the curvature reads that interval; both sides
    sit far from 0, so the bound by the paths' 1-norms is loose.  ``flat``:
    the fine paths are constant and the tree is affine between nodes that
    the fine grid flanks one to four ulps away, so the bound has no bend and rounding
    alone can lift an inner time above a coarse one; two fine nodes may then
    move by one ulp each, or by one and two.  ``spike``: a smooth draw with
    one fine node raised next to a coarse time.  ``wild``: the fine paths
    take a fresh scale from 1e-3 to 1e3 at every node and the tree stays
    near zero, so only the bound by the paths' 1-norms prunes, and a zero
    tree meets it; each fine path's largest node is copied to a second
    node, which may then move up by one ulp.  Both sides are scaled
    together, from 1e-150 to 1e150, before any ulp moves; zero and
    signed-zero levels, tree nodes off the fine grid, one-node grids and
    horizons ``HORIZON_TOL / 2`` apart are drawn too.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["smooth", "peak", "flat", "spike", "wild"]))
    d = draw(st.integers(1, 3))
    stride = transport._SUP_STRIDE
    # smooth grids are long enough that the coarse times stay sparse
    fine = np.linspace(0.0, _T, draw(st.integers(4, 12)) * stride * (4 if kind == "smooth" else 1))
    if draw(st.booleans()):
        fine[-1] += 0.5 * HORIZON_TOL
    inner = fine[rng.choice(np.arange(1, fine.size - 1), draw(st.integers(0, 3)), replace=False)]
    if draw(st.booleans()):
        inner = rng.uniform(0.0, _T, size=inner.size)
    coarse = np.unique(np.concatenate([[0.0, _T], inner]))
    if kind != "smooth" and draw(st.booleans()):  # a constant tree fans out from nothing
        coarse = np.array([_T])
    n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    level = rng.choice([0.0, -0.0, 1.0], size=(2, 3, 1, d)) * rng.normal(size=(2, 3, 1, d))
    if kind == "flat":
        nodes1 = level[0, :n1] * rng.uniform(0.5, 2.0, size=(n1, coarse.size, d))
        near = [coarse[coarse > 0.0]]  # next to 0 the slopes would overflow
        for _ in range(4):
            near += [np.nextafter(near[-1], -np.inf)]
        near = np.concatenate(near[1:] + [2 * near[0] - t for t in near[1:]])
        fine = np.unique(np.concatenate([fine, near[(near > 0.0) & (near < fine[-1])]]))
        nodes2 = np.repeat(level[1, :n2], fine.size, axis=1)
    elif kind == "peak":
        nodes1 = np.repeat(0.01 * level[0, :n1], coarse.size, axis=1)
        top, mid = stride * rng.choice(fine.size // stride - 1, 2, replace=False)
        mid += stride // 2
        freq = 2.0 * np.pi / (fine[mid] - fine[top])
        wave = 1.0 + np.cos(freq * (fine[:, None] - fine[top]))
        nodes2 = np.abs(rng.normal(size=(n2, 1, d))) * wave
        nodes2[:, mid] = nodes2[:, top]
        far = 10.0 * rng.normal(size=(1, 1, d))  # both sides far out: the 1-norms bound nothing
        nodes1, nodes2 = nodes1 + far, nodes2 + far
    elif kind == "wild":
        nodes1 = np.repeat(0.01 * level[0, :n1], coarse.size, axis=1)
        nodes2 = rng.normal(size=(n2, fine.size, d)) * 10.0 ** rng.integers(-3, 4, (fine.size, 1))
        top = np.argmax(np.abs(nodes2).sum(axis=2), axis=1)
        twin = (np.arange(n2), rng.integers(0, fine.size, n2))
        nodes2[twin] = nodes2[np.arange(n2), top]
    else:
        tree = _tree(rng, coarse, d, n1, draw(st.integers(1, 2)), ties=False)
        nodes1 = tree.nodes / np.abs(tree.nodes).max() + 4.0 * coarse[None, :, None]
        n1 = tree.n_paths
        freq, phase = rng.uniform(0.5, 3.0, size=(2, n2, 1, d))
        nodes2 = rng.uniform(-1.0, 1.0, size=(n2, 1, d))
        nodes2 = nodes2 + 0.1 * np.sin(freq * fine[None, :, None] + 6.0 * phase)
        if kind == "spike":
            at = stride * rng.integers(1, fine.size // stride) + rng.choice([-1, 1])
            nodes2[rng.integers(0, n2), at] += rng.choice([1e-12, 1e-6, 1.0])
    scale = draw(st.sampled_from([1e-150, 1e-7, 1.0, 1e9, 1e150]))
    nodes1, nodes2 = nodes1 * scale, nodes2 * scale
    if kind == "peak" and draw(st.booleans()):
        nodes2[:, mid] = np.nextafter(nodes2[:, mid], np.inf)
    if kind == "wild" and draw(st.booleans()):
        nodes2[twin] = np.nextafter(nodes2[twin], np.copysign(np.inf, nodes2[twin]))
    if kind == "flat" and draw(st.booleans()):
        path, first, second = rng.integers(0, n2), *rng.choice(fine.size, 2, replace=False)
        nodes2[path, first] = np.nextafter(nodes2[path, first], np.inf)
        for _ in range(draw(st.integers(1, 2))):
            nodes2[path, second] = np.nextafter(nodes2[path, second], np.inf)
    sides = (
        PathEnsemble(coarse, nodes1, np.full(n1, 1 / n1), Provenance("exact-tree")),
        PathEnsemble(fine, nodes2, np.full(n2, 1 / n2), Provenance("limit-flow")),
    )
    return kind, sides[:: draw(st.sampled_from([1, -1]))]


@settings(max_examples=200, deadline=None)
@given(
    _screen_pairs(),
    st.sampled_from([3, 8, transport._SUP_STRIDE]),
    st.sampled_from([1, 64, transport._SUP_CHUNK_ELEMS]),
)
def test_sup_matrix_screen_matches_per_pair_bitwise(draw, stride, chunk):
    # short strides and small blocks put many intervals and block ends on
    # each draw
    kind, (e1, e2) = draw
    read = []

    def counting(x1, x2):
        read.append(x1.shape[0] * x1.shape[2] * x2.shape[2])
        return _pair_sq(x1, x2)

    with (
        mock.patch.object(transport, "_pair_sq", counting),
        mock.patch.object(transport, "_SUP_STRIDE", stride),
        mock.patch.object(transport, "_SUP_CHUNK_ELEMS", chunk),
    ):
        got = _sup_matrix(e1, e2)
    assert got.tobytes() == _per_pair_sup(e1, e2).tobytes()
    if kind == "smooth" and (stride, chunk) == (transport._SUP_STRIDE, transport._SUP_CHUNK_ELEMS):
        union = _union_grid(e1.grid, e2.grid).size
        assert sum(read) < e1.n_paths * e2.n_paths * union
