"""Action functionals, explicit bounds, sweeps, rate fits, coupled-plan checks."""

import math

import numpy as np
import pytest

from measureflow.analysis import (
    convergence_sweep,
    ensemble_action,
    gronwall_envelope,
    rate_fit,
    solvability_bounds,
)
from measureflow.errors import InputError, InsufficientDataError
from measureflow.euler import build_path_ensemble, multi_step_plan, run_explicit_euler
from measureflow.fields import InteractionField, SampledField, uniform_noise
from measureflow.limit import StickyFlowConfig, sticky_flow
from measureflow.measure import dirac, mixture, velocity_moment
from measureflow.paths import PathEnsemble, PiecewisePath, Provenance, constant_path
from measureflow.scenarios import scenario
from measureflow.transport import optimal_coupling, w2_distance
from test_euler import _successor_table

DET = SampledField(lambda x, u: -x, uniform_noise([0]))
SDF = scenario("sdf-linear").spec


def test_ensemble_action_examples():
    straight = PiecewisePath(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]))
    spike = PiecewisePath(np.array([0.0, 0.5, 1.0]), np.array([[0.0], [1.0], [0.0]]))
    single = PathEnsemble.from_paths((straight,), np.array([1.0]), Provenance("exact-tree"))
    assert ensemble_action(single, 2.0) == 1.0
    mixed = PathEnsemble.from_paths(
        (constant_path(0.0, 1.0), spike), np.array([0.5, 0.5]), Provenance("exact-tree")
    )
    assert ensemble_action(mixed, 2.0) == 2.0
    assert ensemble_action(mixed, 1.0) == 1.0  # half the mass travels 1 up and 1 back
    with pytest.raises(InputError):
        ensemble_action(mixed, 0.5)

    # four-path tree: action = tau (|Phi^0|^2 + |Phi^1|^2) = 0.5 (1 + 1.25)
    run = run_explicit_euler(SDF, dirac(0.0), 0.5, 1.0, 2.0)
    ens = build_path_ensemble(run)
    assert np.isclose(ensemble_action(ens, 2.0), 1.125)
    assert ensemble_action(ens, 2.0) <= 1.5  # the L = 1, T = 1 envelope


def test_gronwall_envelope_examples():
    assert np.isclose(gronwall_envelope(0.0, 0.0, 1.0, 1.0, 0.01), 0.8)
    assert gronwall_envelope(1.0, 0.0, 0.0, 1.0, 0.25) == 1.0
    got = gronwall_envelope(0.0, 1.0, 1.0, 1.0, 0.25)
    assert np.isclose(got, 6.0 * math.e)


def _oracle_radii(R, a, rep):
    """R_0 .. R_K of ``rep``'s radius recursion, run step by step."""
    radii = [R]
    for _ in range(rep.steps):
        nxt = radii[-1] ** 2 * (1.0 + 2.0 * a * rep.tau) + rep.tau**2 * rep.L**2 + 2.0 * a * rep.tau
        radii.append(math.sqrt(nxt))
    return radii


def test_solvability_bounds_example():
    rep = solvability_bounds(1.0, 0.0, 1.0, lambda R: R)
    assert np.isclose(rep.R_prime, math.sqrt(2.0) + 1.0)
    assert np.isclose(rep.L, rep.R_prime)
    assert np.isclose(rep.tau_bar, min(rep.L**-2, 1.0))
    # radii increase and stay below R' for all steps up to the horizon
    radii = _oracle_radii(1.0, 0.0, rep)
    assert all(b >= a for a, b in zip(radii, radii[1:]))
    assert all(r < rep.R_prime for r in radii)
    assert abs(rep.final_radius - radii[-1]) <= 1e-12 * radii[-1]


def test_solvability_bounds_small_tau_unroll():
    rep = solvability_bounds(1.0, 0.0, 1.0, lambda R: R, tau=1e-3)
    # a = 0: R_n^2 = R^2 + n tau^2 L^2 stays close to R^2
    radii = _oracle_radii(1.0, 0.0, rep)
    n = len(radii) - 1
    assert np.isclose(radii[-1] ** 2, 1.0 + n * rep.tau**2 * rep.L**2)
    assert radii[-1] < rep.R_prime
    assert abs(rep.final_radius - radii[-1]) <= 1e-12 * radii[-1]


def test_solvability_bounds_final_radius_matches_the_recursion():
    # a > 0: 2,087 steps of R_{n+1}^2 = R_n^2 (1 + 2 a tau) + tau^2 L^2 + 2 a tau
    rep = solvability_bounds(1.0, 0.3, 5.0, lambda R: R)
    radii = _oracle_radii(1.0, 0.3, rep)
    assert rep.steps == len(radii) - 1 == math.ceil(5.0 / rep.tau) == 2087
    assert all(b >= a for a, b in zip(radii, radii[1:]))
    assert all(r < rep.R_prime for r in radii)
    assert abs(rep.final_radius - radii[-1]) <= 1e-12 * radii[-1]


def test_solvability_bounds_zero_field():
    rep = solvability_bounds(2.0, 0.0, 3.0, lambda R: 0.0)
    assert rep.L == 0.0 and rep.tau_bar == 3.0
    assert all(r == 2.0 for r in _oracle_radii(2.0, 0.0, rep))
    assert rep.final_radius == 2.0


def test_solvability_bounds_tiny_and_overflowing_L():
    # L**-2 beyond the float range is above T; R' = e^{aT} ... beyond it is an input error
    rep = solvability_bounds(1.0, 0.0, 1.0, lambda R: 1e-200 * R)
    assert rep.tau_bar == 1.0 and rep.tau == 0.5 and rep.steps == 2
    for a, rho in ((1000.0, lambda R: R), (0.5, lambda R: math.inf), (0.5, lambda R: math.nan)):
        with pytest.raises(InputError, match="need a finite"):
            solvability_bounds(1.0, a, 1.0, rho)
    # R' = e^355 sqrt(711) + 1 is finite, but R_K^2 ~ e^710 is not
    with pytest.raises(InputError, match="beyond the float range"):
        solvability_bounds(1.0, 355.0, 1.0, lambda R: 1e-152 * R)


def test_rate_fit_examples():
    taus = [0.5, 0.25, 0.125, 0.0625]
    slope, const = rate_fit([(t, t) for t in taus])
    assert abs(slope - 1.0) <= 1e-12
    slope, const = rate_fit([(t, 3.0 * math.sqrt(t)) for t in taus])
    assert abs(slope - 0.5) <= 1e-12 and abs(const - 3.0) <= 1e-9
    slope, _ = rate_fit([(t, 0.7) for t in taus])
    assert abs(slope) <= 1e-12
    with pytest.raises(InsufficientDataError):
        rate_fit([(0.5, 0.0), (0.25, 0.0)])


def test_deterministic_sweep_first_order():
    ref = sticky_flow(DET, dirac(1.0), 1.0, StickyFlowConfig(dt=1e-4)).ensemble
    taus = [2.0**-k for k in range(2, 9)]
    res = convergence_sweep(DET, dirac(1.0), taus, ref, L=2.0)
    assert res.fitted_rate is not None
    assert 0.85 <= res.fitted_rate <= 1.15


def test_zero_field_sweep_reports_no_rate():
    zero = InteractionField(lambda x, y: np.zeros_like(x))
    mu0 = mixture([0.0, 1.0], [0.5, 0.5])
    ref = sticky_flow(zero, mu0, 1.0, StickyFlowConfig(dt=0.01)).ensemble
    res = convergence_sweep(zero, mu0, [0.5, 0.25, 0.125], ref, L=1.0)
    assert all(e <= 1e-12 for _, e, _ in res.rows)
    assert res.fitted_rate is None and "insufficient" in res.note


def test_action_bound_along_tau_sweep_all_scenarios():
    depth = {"sdf-linear": 6, "gradient-sum": 5, "idf-attract": 3,
             "nonlocal-cylinder": 6, "stochastic-idf": 3}
    for name, N in depth.items():
        sc = scenario(name)
        for k in range(1, 7):
            tau = 2.0**-k
            run = run_explicit_euler(sc.spec, sc.default_initial, tau, N * tau, 50.0)
            ens = build_path_ensemble(run)
            L_obs = max(velocity_moment(phi) for phi in run.sections)
            assert ensemble_action(ens, 2.0) <= L_obs**2 * (run.T + tau), (name, k)


# ---------------------------------------------------------------------------
# the coupled multi-step construction on a pair of runs (small N)
# ---------------------------------------------------------------------------


def _coupled_plans(run_a, run_b, rho0):
    """Coupled tuple plans theta^n built by extending each pair of tuples with
    the product of their single-step successor laws, starting from rho0."""
    tau = run_a.tau
    xa = rho0.first_atoms[:, None, :]
    xb = rho0.second_atoms[:, None, :]
    w = rho0.weights.copy()
    plans = []
    for n in range(run_a.n_steps):
        ta = _successor_table(run_a.sections[n], tau)
        tb = _successor_table(run_b.sections[n], tau)
        new_xa, new_xb, new_w = [], [], []
        for i in range(xa.shape[0]):
            sa_rows, sa_w = ta[(xa[i, -1, :] + 0.0).tobytes()]
            sb_rows, sb_w = tb[(xb[i, -1, :] + 0.0).tobytes()]
            for ra, wa in zip(sa_rows, sa_w):
                for rb, wb in zip(sb_rows, sb_w):
                    new_xa.append(np.vstack([xa[i], ra[None, :]]))
                    new_xb.append(np.vstack([xb[i], rb[None, :]]))
                    new_w.append(w[i] * wa * wb)
        xa = np.stack(new_xa)
        xb = np.stack(new_xb)
        w = np.asarray(new_w)
        plans.append((xa.copy(), xb.copy(), w.copy()))
    return plans


def test_coupled_plan_marginals_and_stepwise_dissipation():
    # explicit theta^n construction for N <= 4: marginals match the restricted
    # multi-step plans, the (x0, y0) law is the optimal initial coupling, and
    # each step satisfies the lambda-dissipation inequality with lambda = -1
    tau, N = 0.25, 4
    run_a = run_explicit_euler(SDF, dirac(0.0), tau, N * tau, 2.0)
    run_b = run_explicit_euler(SDF, dirac(0.5), tau, N * tau, 2.0)
    rho0 = optimal_coupling(dirac(0.0), dirac(0.5)).coupling
    plans = _coupled_plans(run_a, run_b, rho0)

    plan_a = multi_step_plan(run_a)
    plan_b = multi_step_plan(run_b)
    for n, (xa, xb, w) in enumerate(plans, start=1):
        # projections reproduce the one-sided plans after merging duplicates
        for pts, ref in ((xa, plan_a.restrict(n)), (xb, plan_b.restrict(n))):
            flat = pts.reshape(pts.shape[0], -1)
            order = np.lexsort(flat.T[::-1])
            agg: dict[bytes, float] = {}
            for row, wi in zip(flat[order], w[order]):
                agg[row.tobytes()] = agg.get(row.tobytes(), 0.0) + wi
            ref_flat = ref.points.reshape(ref.n_atoms, -1)
            assert len(agg) == ref.n_atoms
            for row, wi in zip(ref_flat, ref.weights):
                assert abs(agg[row.tobytes()] - wi) <= 1e-12
        # initial-pair marginal stays rho0
        pair0: dict[tuple, float] = {}
        for i in range(xa.shape[0]):
            key = (float(xa[i, 0, 0]), float(xb[i, 0, 0]))
            pair0[key] = pair0.get(key, 0.0) + w[i]
        assert len(pair0) == rho0.n_atoms
        # per-step dissipation (the discrete velocity comparison)
        for k in range(n):
            gap = xa[:, k, :] - xb[:, k, :]
            dv = (xa[:, k + 1, :] - xa[:, k, :]) / tau - (xb[:, k + 1, :] - xb[:, k, :]) / tau
            lhs = float(np.sum(w * np.sum(gap * dv, axis=1)))
            rhs = -1.0 * float(np.sum(w * np.sum(gap * gap, axis=1)))
            assert lhs <= rhs + 1e-10


def test_gronwall_dominance_on_paired_runs():
    # time-wise marginal distances stay under the envelope along paired runs
    for delta in (0.5, 0.25):
        for k in (2, 4, 6):
            tau = 2.0**-k
            N = 8
            run_a = run_explicit_euler(SDF, dirac(0.0), tau, N * tau, 2.0)
            run_b = run_explicit_euler(SDF, dirac(delta), tau, N * tau, 2.0)
            L_obs = max(
                max(velocity_moment(p) for p in run_a.sections),
                max(velocity_moment(p) for p in run_b.sections),
            )
            for n in range(N + 1):
                sig = w2_distance(run_a.measures[n], run_b.measures[n])
                env = gronwall_envelope(delta, -1.0, L_obs, n * tau, tau) + 1e-8
                assert sig <= env
