"""Scheme propagation, step plans, interpolants, exact path lift, Monte Carlo."""

import numpy as np
import pytest

from measureflow.analysis import ensemble_action
from measureflow.dsl import field_from_config
from measureflow.errors import (
    InputError,
    NumericDomainError,
    ResourceCapError,
    StabilityError,
)
from measureflow.euler import (
    EulerRun,
    build_path_ensemble,
    interpolate_measure,
    multi_step_plan,
    piecewise_velocity,
    run_explicit_euler,
    sample_paths_monte_carlo,
    single_step_plan,
    verify_joint_law,
    verify_marginals,
)
from measureflow.fields import InteractionField, SampledField, uniform_noise
from measureflow.measure import (
    coalesce,
    dirac,
    measures_close,
    mixture,
    tangent_atoms,
    velocity_moment,
)
from measureflow.paths import PathEnsemble, Provenance
from measureflow.scenarios import scenario
from measureflow.transport import w2_distance

SDF = scenario("sdf-linear").spec
DET = SampledField(lambda x, u: -x, uniform_noise([0]))
ZERO_F = InteractionField(lambda x, y: np.zeros_like(x))


def test_run_sdf_linear_one_step():
    run = run_explicit_euler(SDF, dirac(0.0), 0.5, 0.5, 2.0)
    m1 = run.measures[1]
    assert sorted(m1.atoms.ravel()) == [-0.5, 0.5]
    assert np.allclose(m1.weights, 0.5)


def test_run_deterministic_two_steps():
    run = run_explicit_euler(DET, dirac(1.0), 0.5, 1.0, 2.0)
    assert run.measures[2].n_atoms == 1
    assert run.measures[2].atoms[0, 0] == 0.25  # (1 - tau)^2


def test_run_zero_field_is_stationary():
    mu0 = mixture([0.3, -1.2], [0.25, 0.75])
    run = run_explicit_euler(ZERO_F, mu0, 0.25, 1.0, 1.0)
    for m in run.measures:
        assert measures_close(m, mu0, atom_tol=0.0)


def test_run_stability_abort():
    with pytest.raises(StabilityError) as err:
        run_explicit_euler(SDF, dirac(0.0), 0.5, 1.0, 0.5)  # |Phi^0|_2 = 1 > 0.5
    assert err.value.step == 0
    assert np.isclose(err.value.moment, 1.0)


def test_run_atom_cap():
    mu0 = mixture([-1.0, 0.0, 0.5, 1.0, 2.0], [0.2] * 5)
    with pytest.raises(ResourceCapError):
        run_explicit_euler(scenario("idf-attract").spec, mu0, 0.1, 1.0, 50.0, atom_cap=500)


def test_single_step_plan_examples():
    phi = tangent_atoms([((0.0,), (1.0,))], [1.0])
    plan = single_step_plan(phi, 0.5)
    assert plan.first_atoms[0, 0] == 0.0 and plan.second_atoms[0, 0] == 0.5

    phi = tangent_atoms([((0.0,), (1.0,)), ((0.0,), (-1.0,))], [0.5, 0.5])
    plan = single_step_plan(phi, 1.0)
    pairs = sorted((float(a[0]), float(b[0])) for a, b in zip(plan.first_atoms, plan.second_atoms))
    assert pairs == [(0.0, -1.0), (0.0, 1.0)]

    phi = tangent_atoms([((2.0,), (0.0,))], [1.0])
    plan = single_step_plan(phi, 7.0)
    assert plan.second_atoms[0, 0] == 2.0


def test_multi_step_plan_tree_example():
    run = run_explicit_euler(SDF, dirac(0.0), 0.5, 1.0, 2.0)
    plan = multi_step_plan(run)
    assert plan.n_atoms == 4
    assert np.allclose(plan.weights, 0.25)
    finals = sorted(plan.points[:, 2, 0])
    assert np.allclose(finals, [-0.75, -0.25, 0.25, 0.75])


def test_multi_step_plan_deterministic_single_tuple():
    run = run_explicit_euler(DET, dirac(1.0), 0.5, 1.0, 2.0)
    plan = multi_step_plan(run)
    assert plan.n_atoms == 1
    assert np.allclose(plan.points[0, :, 0], [1.0, 0.5, 0.25])


def test_multi_step_plan_base_case_is_single_step_plan():
    run = run_explicit_euler(SDF, dirac(0.0), 0.5, 0.5, 2.0)
    plan = multi_step_plan(run)
    step = single_step_plan(run.sections[0], 0.5)
    got = sorted((float(a[0]), float(b[0]), float(w)) for a, b, w in zip(plan.points[:, 0, :], plan.points[:, 1, :], plan.weights))
    want = sorted((float(a[0]), float(b[0]), float(w)) for a, b, w in zip(step.first_atoms, step.second_atoms, step.weights))
    assert np.allclose(got, want)


def _truncated(run: EulerRun, n: int) -> EulerRun:
    return EulerRun(
        run.spec, run.tau, n * run.tau, run.L, run.measures[: n + 1], run.sections[:n]
    )


def test_restriction_recursion_and_marginals():
    # Markov consistency, tested exactly for N <= 6
    run = run_explicit_euler(SDF, dirac(0.0), 0.25, 1.5, 2.0)
    assert run.n_steps == 6
    plan = multi_step_plan(run)
    for n in range(1, run.n_steps + 1):
        restricted = plan.restrict(n)
        direct = multi_step_plan(_truncated(run, n))
        ra = coalesce(restricted, 0.0)
        rb = coalesce(direct, 0.0)
        assert ra.n_atoms == rb.n_atoms
        oa = np.lexsort(ra.points.reshape(ra.n_atoms, -1).T[::-1])
        ob = np.lexsort(rb.points.reshape(rb.n_atoms, -1).T[::-1])
        assert np.allclose(ra.points[oa], rb.points[ob], atol=1e-14)
        assert np.allclose(ra.weights[oa], rb.weights[ob], atol=1e-12)
        assert measures_close(plan.restrict(n).coordinate_marginal(n), run.measures[n], 1e-12)


def test_interpolate_measure_examples():
    run = run_explicit_euler(DET, dirac(1.0), 0.5, 1.0, 2.0)
    assert measures_close(interpolate_measure(run, 0.5), run.measures[1], 0.0)
    assert interpolate_measure(run, 0.25).atoms[0, 0] == 0.75  # 1 + 0.25 * (-1)
    runz = run_explicit_euler(ZERO_F, mixture([1.0, 2.0], [0.5, 0.5]), 0.5, 1.0, 1.0)
    assert measures_close(interpolate_measure(runz, 0.3), runz.measures[0], 1e-15)
    with pytest.raises(InputError):
        interpolate_measure(run, 1.5)


def test_piecewise_velocity_floor_semantics():
    run = run_explicit_euler(SDF, dirac(0.0), 0.5, 1.5, 2.0)
    assert piecewise_velocity(run, 0.0) is run.sections[0]
    assert piecewise_velocity(run, 0.49) is run.sections[0]
    assert piecewise_velocity(run, 0.5) is run.sections[1]
    assert piecewise_velocity(run, 0.5 - 1e-12) is run.sections[0]
    with pytest.raises(InputError):
        piecewise_velocity(run, 1.5)


def test_build_path_ensemble_examples():
    run = run_explicit_euler(SDF, dirac(0.0), 0.5, 1.0, 2.0)
    ens = build_path_ensemble(run)
    assert ens.n_paths == 4
    assert np.allclose(ens.weights, 0.25)
    assert ens.provenance.kind == "exact-tree"

    det = build_path_ensemble(run_explicit_euler(DET, dirac(1.0), 0.5, 1.0, 2.0))
    assert det.n_paths == 1
    assert np.allclose(det.paths[0].nodes.ravel(), [1.0, 0.5, 0.25])

    const = build_path_ensemble(run_explicit_euler(ZERO_F, mixture([0.0, 1.0], [0.5, 0.5]), 0.5, 1.0, 1.0))
    assert all(np.all(p.nodes == p.nodes[0]) for p in const.paths)


def test_final_partial_step_clipping():
    run = run_explicit_euler(DET, dirac(1.0), 0.4, 1.0, 2.0)
    assert run.n_steps == 3  # grid 0, .4, .8, 1.2 clipped at 1.0
    ens = build_path_ensemble(run)
    assert np.isclose(ens.horizon, 1.0)
    ok = verify_marginals(ens, run, [0.0, 0.4, 0.8, 1.0, 0.37, 0.93])
    assert ok.passed, ok.detail


def test_verify_marginals_counts_times_from_a_generator():
    run = run_explicit_euler(SDF, dirac(0.0), 0.5, 1.0, 2.0)
    ens = build_path_ensemble(run)
    report = verify_marginals(ens, run, (t for t in (0.0, 0.25, 1.0)))
    assert report.passed
    assert report.detail == "marginals match at 3 times"


def test_verify_joint_law_and_corruption():
    run = run_explicit_euler(SDF, dirac(0.0), 0.5, 1.5, 2.0)
    ens = build_path_ensemble(run)
    for n in range(run.n_steps - 1):
        assert verify_joint_law(ens, run, n).passed
    # corrupt one node by 1e-3 and expect a witnessed failure
    paths = list(ens.paths)
    nodes = paths[0].nodes.copy()
    nodes[1, 0] += 1e-3
    from measureflow.paths import PiecewisePath

    paths[0] = PiecewisePath(paths[0].grid, nodes)
    bad = PathEnsemble(tuple(paths), ens.weights, Provenance("exact-tree"))
    assert not verify_joint_law(bad, run, 0).passed
    assert not verify_marginals(bad, run, [0.5]).passed


def test_verify_refuses_monte_carlo():
    run = run_explicit_euler(SDF, dirac(0.0), 0.5, 1.0, 2.0)
    mc = sample_paths_monte_carlo(SDF, dirac(0.0), 0.5, 1.0, 16, seed=0)
    with pytest.raises(InputError):
        verify_joint_law(mc, run, 0)
    with pytest.raises(InputError):
        verify_marginals(mc, run, [0.0])


def test_paths_start_in_initial_support():
    mu0 = mixture([-1.0, 2.0], [0.25, 0.75])
    run = run_explicit_euler(SDF, mu0, 0.25, 1.0, 4.0)
    ens = build_path_ensemble(run)
    starts = {float(p.nodes[0, 0]) for p in ens.paths}
    assert starts <= {-1.0, 2.0}


def test_slope_bound_and_action_bound():
    run = run_explicit_euler(SDF, dirac(0.0), 0.25, 1.0, 2.0)
    ens = build_path_ensemble(run)
    for p in ens.paths:
        slopes = np.linalg.norm(p.slopes(), axis=1)
        for k, s in enumerate(slopes):
            vmax = np.max(np.linalg.norm(run.sections[k].velocities, axis=1))
            assert s <= vmax + 1e-12
    L_obs = max(velocity_moment(phi) for phi in run.sections)
    assert ensemble_action(ens, 2.0) <= L_obs**2 * (run.T + run.tau)


def test_exact_action_identity():
    # the 2-action of the lift equals sum_k tau |Phi^k|_2^2 exactly
    run = run_explicit_euler(SDF, dirac(0.0), 0.5, 1.0, 2.0)
    ens = build_path_ensemble(run)
    expect = sum(run.tau * velocity_moment(phi) ** 2 for phi in run.sections)
    assert np.isclose(ensemble_action(ens, 2.0), expect, rtol=1e-12)


def test_monte_carlo_deterministic_and_exact_limits():
    a = sample_paths_monte_carlo(SDF, dirac(0.0), 0.5, 1.0, 64, seed=3)
    b = sample_paths_monte_carlo(SDF, dirac(0.0), 0.5, 1.0, 64, seed=3)
    for pa, pb in zip(a.paths, b.paths):
        assert np.array_equal(pa.nodes, pb.nodes)

    det = sample_paths_monte_carlo(DET, dirac(1.0), 0.5, 1.0, 1, seed=0)
    assert np.allclose(det.paths[0].nodes.ravel(), [1.0, 0.5, 0.25])

    const = sample_paths_monte_carlo(ZERO_F, mixture([0.0, 1.0], [0.5, 0.5]), 0.25, 1.0, 8, seed=1)
    for p in const.paths:
        assert np.all(p.nodes == p.nodes[0])


def test_monte_carlo_binomial_mass():
    mc = sample_paths_monte_carlo(SDF, dirac(0.0), 0.5, 0.5, 10_000, seed=7)
    m = mc.evaluate(0.5)
    mass_up = float(m.weights[np.argmax(m.atoms.ravel())])
    assert 0.45 <= mass_up <= 0.55  # binomial(10^4, 1/2) 99.99% interval


def test_monte_carlo_shared_noise_mode():
    mc = sample_paths_monte_carlo(SDF, dirac(0.0), 0.5, 0.5, 32, seed=2, noise_mode="shared")
    # one shared label per step: all particles move together from a Dirac start
    assert mc.evaluate(0.5).n_atoms == 1


def test_monte_carlo_exact_agreement_rate():
    # Against an atomic target the squared distance shrinks ~ M^{-1/2}
    # (mass defects of order M^{-1/2} transported over fixed gaps).
    run = run_explicit_euler(SDF, dirac(0.0), 0.25, 1.0, 2.0)
    exact = run.measures[-1]
    errs = []
    for M in (100, 1000, 10_000):
        mc = sample_paths_monte_carlo(SDF, dirac(0.0), 0.25, 1.0, M, seed=11)
        errs.append(w2_distance(mc.evaluate(1.0), exact))
    assert errs[2] < errs[1] < errs[0]
    sq_slope = np.polyfit(np.log([100, 1000, 10_000]), np.log(np.square(errs)), 1)[0]
    assert -0.8 <= sq_slope <= -0.3


def test_monte_carlo_refuses_non_finite_velocities():
    blowup = field_from_config(
        {
            "kind": "sampled",
            "g": "exp(1000 * x) + u",
            "noise": {"labels": [0, 1], "weights": [0.5, 0.5]},
        },
        dim=1,
    )
    with np.errstate(over="ignore"):
        with pytest.raises(NumericDomainError, match="step 0"):
            sample_paths_monte_carlo(blowup, dirac(1.0), 0.1, 1.0, 8, seed=0)


def test_monte_carlo_refuses_position_overflow():
    # every velocity is finite, but the second step leaves the float range
    huge = field_from_config(
        {
            "kind": "sampled",
            "g": "1e308 + 0 * x + 0 * u",
            "noise": {"labels": [0], "weights": [1.0]},
        },
        dim=1,
    )
    with pytest.raises(NumericDomainError, match="position at step 1") as info:
        sample_paths_monte_carlo(huge, dirac(0.0), 1.0, 2.0, 4, seed=0)
    assert np.array_equal(info.value.witness, [1e308])
