"""Sticky limit flow: closed-form checks, contraction, merging, EVI residuals."""

import math

import numpy as np
import pytest

from measureflow import limit
from measureflow.errors import InputError
from measureflow.fields import GradientSumField, InteractionField, SampledField, uniform_noise
from measureflow.limit import (
    StickyFlowConfig,
    contraction_check,
    evi_residual,
    sticky_flow,
    sticky_property_check,
)
from measureflow.measure import DiscreteMeasure, coalesce, dirac, mixture, tangent_atoms
from measureflow.paths import PathEnsemble, PiecewisePath, Provenance, constant_path
from measureflow.scenarios import scenario
from measureflow.transport import w2_distance

DET = SampledField(lambda x, u: -x, uniform_noise([0]))
ATTRACT = scenario("idf-attract").spec
ZERO_F = InteractionField(lambda x, y: np.zeros_like(x))


def test_linear_flow_matches_exponential():
    flow = sticky_flow(DET, dirac(1.0), 1.0, StickyFlowConfig(dt=1e-4))
    x1 = flow.measure_curve(1.0).atoms[0, 0]
    assert abs(x1 - math.exp(-1.0)) <= 1e-6


def test_interaction_flow_conserves_mean():
    flow = sticky_flow(ATTRACT, mixture([-1.0, 1.0], [0.5, 0.5]), 1.0, StickyFlowConfig(dt=1e-3))
    for t in (0.0, 0.5, 1.0):
        m = flow.measure_curve(t)
        mean = float(np.sum(m.weights * m.atoms[:, 0]))
        assert abs(mean) <= 1e-10
    ends = sorted(flow.measure_curve(1.0).atoms.ravel())
    assert np.allclose(ends, [-math.exp(-1.0), math.exp(-1.0)], atol=1e-6)


def test_zero_field_constant_paths_no_merges():
    flow = sticky_flow(ZERO_F, mixture([0.0, 1.0], [0.5, 0.5]), 2.0)
    assert flow.merge_events == ()
    for p in flow.ensemble.paths:
        assert np.all(p.nodes == p.nodes[0])


def test_contraction_examples():
    mu = mixture([-1.0, 1.0], [0.5, 0.5])
    rep = contraction_check(DET, dirac(0.5), dirac(0.5), -1.0, [0.5, 1.0])
    assert rep.passed and all(lhs <= 1e-9 for _, lhs, _ in rep.rows)

    # linear flow: W2 = e^{-t} W2(0) exactly, the bound is tight
    rep = contraction_check(DET, dirac(0.0), dirac(1.0), -1.0, [0.25, 1.0], StickyFlowConfig(dt=1e-3))
    assert rep.passed
    for t, lhs, _ in rep.rows:
        assert abs(lhs - math.exp(-t)) <= 1e-5

    rep = contraction_check(ZERO_F, mu, mixture([-0.5, 1.5], [0.5, 0.5]), 0.0, [0.5, 1.0])
    assert rep.passed
    lhs_vals = [lhs for _, lhs, _ in rep.rows]
    assert np.allclose(lhs_vals, lhs_vals[0])


MERGE_MU0 = mixture([-1.0, 0.0, 1.0], [0.25, 0.25, 0.5])


@pytest.fixture(scope="module")
def merging_flow():
    return sticky_flow(ATTRACT, MERGE_MU0, 15.0, StickyFlowConfig(dt=2e-3, merge_tol=1e-6))


def test_support_count_monotone_and_mass_conserved(merging_flow):
    flow = merging_flow
    assert len(flow.merge_events) >= 1
    counts = [flow.measure_curve(t).n_atoms for t in np.linspace(0.0, 15.0, 12)]
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] < counts[0]
    for t in np.linspace(0.0, 15.0, 7):
        assert flow.measure_curve(t).weights.sum() == 1.0


def test_merged_paths_share_tails_exactly(merging_flow):
    flow = merging_flow
    ev = flow.merge_events[0]
    i, j = ev.survivor, ev.absorbed[0]
    pi, pj = flow.ensemble.paths[i], flow.ensemble.paths[j]
    after = pi.grid >= ev.time
    assert np.array_equal(pi.nodes[after], pj.nodes[after])


def test_et_consistency_at_grid_times():
    flow = sticky_flow(ATTRACT, mixture([-1.0, 1.0], [0.5, 0.5]), 1.0, StickyFlowConfig(dt=0.01))
    grid = flow.ensemble.paths[0].grid
    for t in grid[:: len(grid) // 5]:
        m = flow.measure_curve(float(t))
        atoms = np.stack([p(float(t)) for p in flow.ensemble.paths])
        assert set(map(tuple, m.atoms)) == set(map(tuple, atoms))


def test_sticky_property_check_examples():
    two = PathEnsemble(
        (constant_path(0.0, 1.0), constant_path(1.0, 1.0)),
        np.array([0.5, 0.5]),
        Provenance("limit-flow"),
    )
    assert sticky_property_check(two, 1e-8).passed

    # crossing then separating violates P3
    grid = np.array([0.0, 0.5, 1.0])
    a = PiecewisePath(grid, np.array([[0.0], [1.0], [0.0]]))
    b = PiecewisePath(grid, np.array([[2.0], [1.0], [2.0]]))
    crossing = PathEnsemble((a, b), np.array([0.5, 0.5]), Provenance("limit-flow"))
    rep = sticky_property_check(crossing, 1e-8)
    assert not rep.passed and "P3" in rep.detail

    dup = PathEnsemble(
        (constant_path(0.0, 1.0), constant_path(0.0, 1.0)),
        np.array([0.5, 0.5]),
        Provenance("limit-flow"),
    )
    rep = sticky_property_check(dup, 1e-8)
    assert not rep.passed and "P1" in rep.detail


def test_sticky_properties_of_merging_flow(merging_flow):
    rep = sticky_property_check(merging_flow.ensemble, 1e-8, MERGE_MU0)
    assert rep.passed, rep.detail


def test_evi_residual_closed_form():
    # b = -x from delta_1: W2^2(mu_t, delta_0) = e^{-2t}, residual = O(h)
    flow = sticky_flow(DET, dirac(1.0), 1.0, StickyFlowConfig(dt=1e-4))
    phi = tangent_atoms([((0.0,), (0.0,))], [1.0])
    for h in (1e-2, 1e-3):
        res = evi_residual(flow, phi, [0.1, 0.4], h, lam=-1.0)
        assert all(abs(r) <= 3.0 * h for r in res)

    # test section sitting on the flow itself with zero velocities
    mu = flow.measure_curve(0.2)
    phi_on = tangent_atoms([(mu.atoms[0], np.zeros(1))], [1.0])
    res = evi_residual(flow, phi_on, [0.2], 1e-3, lam=-1.0)
    assert abs(res[0]) <= 5e-3

    flow0 = sticky_flow(ZERO_F, dirac(0.0), 1.0, StickyFlowConfig(dt=1e-3))
    phi1 = tangent_atoms([((1.0,), (0.0,))], [1.0])
    res = evi_residual(flow0, phi1, [0.1, 0.5], 1e-3, lam=0.0)
    assert all(abs(r) <= 1e-12 for r in res)


def test_evi_residual_horizon_guard():
    flow = sticky_flow(DET, dirac(1.0), 0.5, StickyFlowConfig(dt=1e-3))
    with pytest.raises(InputError):
        evi_residual(flow, tangent_atoms([((0.0,), (0.0,))], [1.0]), [0.5], 1e-2, lam=0.0)


def test_quadratic_gradient_flow_decay_rate():
    # single quadratic H(x) = a|x - c|^2 / 2: W2(mu_t, delta_c) = e^{-a t} W2(mu_0, delta_c)
    a, c = 1.5, 0.7
    spec = GradientSumField(((lambda x: a * (x - c)),))
    mu0 = mixture([-1.0, 0.5, 2.0], [0.25, 0.25, 0.5])
    flow = sticky_flow(spec, mu0, 1.0, StickyFlowConfig(dt=1e-3))
    target = dirac(c)
    w0 = w2_distance(mu0, target)
    for t in (0.25, 0.5, 1.0):
        wt = w2_distance(flow.measure_curve(t), target)
        assert abs(wt - math.exp(-a * t) * w0) <= 1e-4


def test_explicit_euler_fine_integrator_mode():
    flow = sticky_flow(DET, dirac(1.0), 1.0, StickyFlowConfig(dt=1e-4, integrator="explicit-euler-fine"))
    x1 = flow.measure_curve(1.0).atoms[0, 0]
    assert abs(x1 - math.exp(-1.0)) <= 1e-3  # first-order accuracy only


def test_limit_vs_euler_distance_monotone():
    # scheme lifts approach the limit flow monotonically (10% slack) as tau halves
    from measureflow.euler import build_path_ensemble, run_explicit_euler
    from measureflow.transport import wasserstein2_sup

    cases = [
        ("sdf-linear", 8, range(2, 7)),
        ("gradient-sum", 6, range(2, 7)),
        ("idf-attract", 3, range(2, 7)),
    ]
    for name, N, ks in cases:
        sc = scenario(name)
        T_max = N * 2.0 ** -min(ks)
        ref = sticky_flow(sc.spec, sc.default_initial, T_max, StickyFlowConfig(dt=1e-4)).ensemble
        errs = []
        for k in ks:
            tau = 2.0**-k
            run = run_explicit_euler(sc.spec, sc.default_initial, tau, N * tau, 50.0)
            ens = build_path_ensemble(run)
            errs.append(wasserstein2_sup(ens, ref.restricted(N * tau)))
        for a, b in zip(errs, errs[1:]):
            assert b <= 1.1 * a, (name, errs)


def _fixed_step_oracle(spec, mu0, T, config):
    """The fixed-step sticky loop: RK4 (or Euler) at dt, merge pass after every step.

    Returns the grid, the nodes ``(k, K+1, d)`` and the merge events as
    ``(time, survivor, absorbed)``, with event times read off the grid.
    """
    mu0 = coalesce(mu0, 0.0)
    k, d = mu0.n_atoms, mu0.dim
    n_steps = int(math.ceil(T / config.dt - 1e-12))
    dt = T / n_steps
    grid = dt * np.arange(n_steps + 1)
    grid[-1] = T
    live = list(range(k))
    rep = np.arange(k)
    pos = mu0.atoms.copy()
    grp_w = mu0.weights.copy()
    history = np.empty((n_steps + 1, k, d))
    history[0] = mu0.atoms
    events = []
    field = limit._velocity_fn(spec)
    for step in range(n_steps):
        p = pos[live]
        w = grp_w[live]
        if config.integrator == "rk4":
            k1 = field(p, w)
            k2 = field(p + 0.5 * dt * k1, w)
            k3 = field(p + 0.5 * dt * k2, w)
            k4 = field(p + dt * k3, w)
            p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            p = p + dt * field(p, w)
        pos[live] = p
        while len(live) > 1:
            arr = pos[live]
            diff = arr[:, None, :] - arr[None, :, :]
            sq = np.einsum("ijk,ijk->ij", diff, diff)
            iu = np.triu_indices(len(live), k=1)
            hits = np.nonzero(sq[iu] <= config.merge_tol**2)[0]
            if hits.size == 0:
                break
            a_i, b_i = int(iu[0][hits[0]]), int(iu[1][hits[0]])
            ga, gb = live[a_i], live[b_i]
            wa, wb = grp_w[ga], grp_w[gb]
            pos[ga] = (wa * pos[ga] + wb * pos[gb]) / (wa + wb)
            grp_w[ga] = wa + wb
            rep[rep == gb] = ga
            events.append((float(grid[step + 1]), ga, (gb,)))
            live.pop(b_i)
        history[step + 1] = pos[rep]
    return grid, history.transpose(1, 0, 2), events


def _nodes(flow):
    return np.stack([p.nodes for p in flow.ensemble.paths])


def _events(flow):
    return [(ev.time, ev.survivor, ev.absorbed) for ev in flow.merge_events]


_PLANE3 = DiscreteMeasure(
    np.array([[-1.0, 0.5], [0.4, -0.2], [1.0, 1.0]]), np.array([0.3, 0.3, 0.4])
)
_LINE3 = mixture([-1.0, 0.3, 1.2], [0.25, 0.25, 0.5])
ORACLE_INITIAL = {
    "sdf-linear": _LINE3,
    "gradient-sum": _PLANE3,
    "idf-attract": _LINE3,
    "nonlocal-cylinder": _PLANE3,
    "stochastic-idf": _LINE3,
}


@pytest.mark.parametrize("name", sorted(ORACLE_INITIAL))
def test_nodes_match_fixed_step_rk4_at_a_tenth_of_dt(name):
    spec, mu0 = scenario(name).spec, ORACLE_INITIAL[name]
    flow = sticky_flow(spec, mu0, 1.0, StickyFlowConfig(dt=5e-3))
    grid, nodes, events = _fixed_step_oracle(spec, mu0, 1.0, StickyFlowConfig(dt=5e-4))
    assert np.allclose(flow.ensemble.common_grid(), grid[::10], rtol=0.0, atol=1e-15)
    assert np.max(np.abs(_nodes(flow) - nodes[:, ::10])) <= 1e-12
    assert _events(flow) == events == []


def test_merge_events_match_fixed_step_rk4(merging_flow):
    # merging_flow is criterion 8's flow
    *_, events = _fixed_step_oracle(ATTRACT, MERGE_MU0, 15.0, merging_flow.config)
    assert len(events) == 2
    assert _events(merging_flow) == events

    mu0 = mixture([-1.0, -0.2, 0.3, 1.0], [0.1, 0.4, 0.3, 0.2])
    config = StickyFlowConfig(dt=5e-3, merge_tol=1e-3)
    spec = scenario("stochastic-idf").spec
    flow = sticky_flow(spec, mu0, 8.0, config)
    _, nodes, events = _fixed_step_oracle(spec, mu0, 8.0, config)
    assert len(events) == 3
    assert _events(flow) == events
    assert np.max(np.abs(_nodes(flow) - nodes)) <= 1e-9


@pytest.mark.parametrize("merge_tol", [1e-9, 1e-3])
def test_explicit_euler_fine_is_the_fixed_step_loop_bitwise(merge_tol):
    mu0 = mixture([-1.0, -0.2, 0.3, 1.0], [0.1, 0.4, 0.3, 0.2])
    config = StickyFlowConfig(dt=5e-3, merge_tol=merge_tol, integrator="explicit-euler-fine")
    spec = scenario("stochastic-idf").spec
    flow = sticky_flow(spec, mu0, 8.0, config)
    grid, nodes, events = _fixed_step_oracle(spec, mu0, 8.0, config)
    assert np.array_equal(flow.ensemble.common_grid(), grid)
    assert np.array_equal(_nodes(flow), nodes)
    assert _events(flow) == events
    assert (len(events) > 0) == (merge_tol > 1e-9)


def test_tree_sweep_reference_steps_coarser_than_dt(monkeypatch):
    # the sweep's reference shape: gradient-sum, 3 atoms in 2-d, T = 1, dt = 1e-4;
    # 10,000 recorded steps, while fixed RK4 spends 40,000 field calls
    calls = 0
    velocity_fn = limit._velocity_fn

    def counting_velocity_fn(spec):
        rhs = velocity_fn(spec)

        def counted(pos, w):
            nonlocal calls
            calls += 1
            return rhs(pos, w)

        return counted

    monkeypatch.setattr(limit, "_velocity_fn", counting_velocity_fn)
    mu0 = DiscreteMeasure(
        np.array([[-0.6, 0.2], [0.1, -0.9], [0.8, 0.5]]), np.array([0.3, 0.45, 0.25])
    )
    flow = sticky_flow(scenario("gradient-sum").spec, mu0, 1.0, StickyFlowConfig(dt=1e-4))
    assert flow.ensemble.common_grid().shape == (10_001,)
    assert calls < 2000


def test_merge_check_memory_is_blocked():
    import tracemalloc

    mu0 = mixture(np.linspace(-1.0, 1.0, 200).tolist(), [1 / 200] * 200)
    tracemalloc.start()
    try:
        flow = sticky_flow(ATTRACT, mu0, 0.25, StickyFlowConfig(dt=1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flow.ensemble.n_paths == 200
    # 251 x 200 nodes take 0.4 MB; one step's rows against all 19,900 pairs take 6 MB
    assert peak < 3 * 2**20, peak


def test_merge_on_the_last_step_is_logged_at_T():
    mu0 = mixture([-1.0, 1.0], [0.5, 0.5])
    free = sticky_flow(ATTRACT, mu0, 0.7, StickyFlowConfig(dt=1e-3, merge_tol=0.0))
    gaps = free.ensemble.paths[1].nodes[:, 0] - free.ensemble.paths[0].nodes[:, 0]
    assert np.all(np.diff(gaps) < 0)
    tol = 0.5 * (gaps[-2] + gaps[-1])
    flow = sticky_flow(ATTRACT, mu0, 0.7, StickyFlowConfig(dt=1e-3, merge_tol=tol))
    assert len(flow.merge_events) == 1
    assert flow.merge_events[0].time == flow.T == 0.7


# Known defect: a merge fires only when two atoms sit within merge_tol at a
# recorded time.  At a sink of the field atoms reach the same point in finite
# time but stop a few rounding errors or O(dt) apart, so they never merge.
SQRT_SINK = SampledField(lambda x, u: -np.sign(x) * np.sqrt(np.abs(x)), uniform_noise([0]))
SIGN_SINK = SampledField(lambda x, u: -np.sign(x), uniform_noise([0]))


@pytest.mark.xfail(strict=True, reason="finite-time collisions at a sink are missed")
def test_finite_time_collision_at_a_continuous_sink():
    # x(t) = sign(x0)(sqrt|x0| - t/2)^2 until 0: the atom from 0.25 arrives at
    # t = 1, the one from -1 at t = 2, where the two merge at 0
    dt = 1e-3
    flow = sticky_flow(SQRT_SINK, mixture([-1.0, 0.25], [0.5, 0.5]), 3.0, StickyFlowConfig(dt=dt))
    assert len(flow.merge_events) == 1
    assert abs(flow.merge_events[0].time - 2.0) <= 20 * dt
    for t in np.linspace(2.0 + 20 * dt, 3.0, 9):
        m = flow.measure_curve(t)
        assert m.n_atoms == 1 and abs(m.atoms[0, 0]) <= dt


@pytest.mark.xfail(strict=True, reason="finite-time collisions at a sink are missed")
def test_finite_time_collision_at_a_discontinuous_sink():
    # the atom from 0.5003 reaches 0 at t = 0.5003 and the one from -1 at t = 1
    dt = 1e-3
    flow = sticky_flow(SIGN_SINK, mixture([-1.0, 0.5003], [0.5, 0.5]), 2.0, StickyFlowConfig(dt=dt))
    for t in np.linspace(1.0 + 20 * dt, 2.0, 9):
        m = flow.measure_curve(t)
        assert m.n_atoms == 1 and abs(m.atoms[0, 0]) <= dt
