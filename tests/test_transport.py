"""Exact OT solver vs the vertex-enumeration oracle, path metrics, pairings."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measureflow.errors import InputError
from measureflow.measure import DiscreteMeasure, dirac, mixture, tangent_atoms
from measureflow.paths import (
    HORIZON_TOL,
    PathEnsemble,
    PiecewisePath,
    Provenance,
    constant_path,
)
from measureflow.transport import (
    _MASS_EPS,
    _solve_flow,
    _sup_matrix,
    bram_pairing,
    bram_pairing_detailed,
    brute_force_w2,
    optimal_coupling,
    path_sup_distance,
    w2_distance,
    wasserstein2_sup,
)


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
        flow = optimal_coupling(mu, nu, method="flow").cost
        oracle = brute_force_w2(mu, nu) ** 2
        assert abs(flow - oracle) <= 1e-9 * max(1.0, oracle)
        if mu.dim == 1:
            quant = optimal_coupling(mu, nu, method="quantile").cost
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
    assert optimal_coupling(mu, nu, method="flow").degenerate is True
    # generic instance: unique optimum
    rng = np.random.default_rng(9)
    mu = DiscreteMeasure(rng.normal(size=(3, 2)), np.array([0.2, 0.3, 0.5]))
    nu = DiscreteMeasure(rng.normal(size=(2, 2)), np.array([0.4, 0.6]))
    assert optimal_coupling(mu, nu, method="flow").degenerate is False
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
    return PathEnsemble(tuple(paths), np.asarray(weights), Provenance("exact-tree"))


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


def test_transport_result_cost_consistency():
    # the reported cost equals the recomputed coupling cost within 1e-10
    rng = np.random.default_rng(12)
    for method in ("flow", "quantile"):
        for _ in range(15):
            d = 1 if method == "quantile" else int(rng.integers(1, 4))
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            wm, wn = rng.random(m), rng.random(n)
            mu = DiscreteMeasure(rng.normal(size=(m, d)), wm / wm.sum())
            nu = DiscreteMeasure(rng.normal(size=(n, d)), wn / wn.sum())
            res = optimal_coupling(mu, nu, method=method)
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


@settings(max_examples=80, deadline=None)
@given(_flow_problems())
def test_flow_matches_row_at_a_time_reference_bitwise(problem):
    cost, a, b = problem
    for got, want in zip(_solve_flow(cost, a, b), _row_at_a_time_flow(cost, a, b)):
        assert got.tobytes() == want.tobytes()


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
    assert _sup_matrix(e1, e2).tobytes() == _per_pair_sup(e1, e2).tobytes()
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
