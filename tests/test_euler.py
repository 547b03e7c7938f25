"""Scheme propagation, step plans, interpolants, exact path lift, Monte Carlo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    run_explicit_euler,
    sample_paths_monte_carlo,
    single_step_plan,
    verify_joint_law,
    verify_marginals,
)
from measureflow.fields import InteractionField, SampledField, uniform_noise
from measureflow.measure import (
    DiscreteMeasure,
    TangentMeasure,
    coalesce,
    dirac,
    measures_close,
    mixture,
    tangent_atoms,
    velocity_moment,
)
from measureflow.paths import PathEnsemble, PiecewisePath, Provenance
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
    paths[0] = PiecewisePath(paths[0].grid, nodes)
    bad = PathEnsemble.from_paths(tuple(paths), ens.weights, Provenance("exact-tree"))
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


def test_exact_lift_of_a_coalescing_run_is_refused():
    # 0 and 1e-4 step to successors that coalesce_tol = 0.01 merges, so the
    # tuples' end points are no atoms of the next section
    run = run_explicit_euler(SDF, mixture([0.0, 1e-4], [0.5, 0.5]), 0.25, 1.0, 4.0, 0.01)
    with pytest.raises(InputError, match="step 1 .* coalesce_tol = 0"):
        build_path_ensemble(run)
    # a tolerance that merges nothing keeps the exact lift, bit for bit
    mu0 = mixture([-0.7, 0.2, 0.9], [0.2, 0.5, 0.3])
    loose = build_path_ensemble(run_explicit_euler(SDF, mu0, 0.25, 1.0, 4.0, 1e-9))
    exact = build_path_ensemble(run_explicit_euler(SDF, mu0, 0.25, 1.0, 4.0))
    assert loose.nodes.tobytes() == exact.nodes.tobytes()
    assert loose.weights.tobytes() == exact.weights.tobytes()


@pytest.mark.parametrize("tau, T", [(0.25, 0.25), (0.25, 1.0), (0.25, 0.9), (0.3, 0.7)])
def test_verify_joint_law_checks_the_final_section(tau, T):
    # one-step, whole-step and clipped runs: the last section is checked too
    run = run_explicit_euler(SDF, mixture([-0.7, 0.2, 0.9], [0.2, 0.5, 0.3]), tau, T, 4.0)
    ens = build_path_ensemble(run)
    N = run.n_steps
    for n in range(N):
        assert verify_joint_law(ens, run, n).passed, n
    nodes = ens.nodes.copy()
    nodes[0, N, 0] += 1e-3
    bad = PathEnsemble(ens.grid, nodes, ens.weights, ens.provenance)
    assert not verify_joint_law(bad, run, N - 1).passed
    assert N == 1 or verify_joint_law(bad, run, N - 2).passed
    for n in (-1, N):
        with pytest.raises(InputError):
            verify_joint_law(ens, run, n)


# ---------------------------------------------------------------------------
# the array lift against the dict-keyed recursion it replaced
# ---------------------------------------------------------------------------


def _successor_table(phi: TangentMeasure, tau: float):
    """Per-position successor rows and conditional weights of the single-step plan.

    Positions are keyed by the bytes of ``x + 0.0``, so -0.0 and 0.0 are one key.
    """
    succ_rows: dict[bytes, list] = {}
    succ_w: dict[bytes, list] = {}
    mass: dict[bytes, float] = {}
    nxt = phi.positions + tau * phi.velocities
    for x, y, w in zip(phi.positions, nxt, phi.weights):
        key = (x + 0.0).tobytes()
        succ_rows.setdefault(key, []).append(y)
        succ_w.setdefault(key, []).append(w)
        mass[key] = mass.get(key, 0.0) + w
    return {
        key: (np.stack(rows), np.asarray(succ_w[key]) / mass[key])
        for key, rows in succ_rows.items()
    }


def _oracle_multi_step_plan(run: EulerRun):
    """The per-tuple recursion over ``_successor_table``: (points, weights)."""
    pts = run.measures[0].atoms[:, None, :].copy()
    weights = run.measures[0].weights.copy()
    for n in range(run.n_steps):
        table = _successor_table(run.sections[n], run.tau)
        keys = [(pts[i, -1, :] + 0.0).tobytes() for i in range(pts.shape[0])]
        counts = np.asarray([table[k][0].shape[0] for k in keys])
        rep = np.repeat(np.arange(pts.shape[0]), counts)
        new_last = np.concatenate([table[k][0] for k in keys], axis=0)
        cond_w = np.concatenate([table[k][1] for k in keys])
        pts = np.concatenate([pts[rep], new_last[:, None, :]], axis=1)
        weights = weights[rep] * cond_w
    return pts, weights


def _oracle_exact_nodes(run: EulerRun) -> np.ndarray:
    """One PiecewisePath per tuple on the clipped grid, stacked."""
    pts, _ = _oracle_multi_step_plan(run)
    N = run.n_steps
    grid = run.tau * np.arange(N + 1)
    if grid[-1] > run.T + 1e-12 * max(1.0, run.T):
        grid[-1] = run.T
        frac = (run.T - run.tau * (N - 1)) / run.tau
        last = pts[:, N - 1, :] + frac * (pts[:, N, :] - pts[:, N - 1, :])
        pts = np.concatenate([pts[:, :N, :], last[:, None, :]], axis=1)
    return np.stack([PiecewisePath(grid, pts[i]).nodes for i in range(pts.shape[0])])


_LATTICE = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)
_SPEEDS = (-1.0, -0.0, 0.0, 1.0)  # tau = 0.5 steps 0.5 to +0.0, -0.0 to -0.0
_RAW_WEIGHTS = (1.0, 1.0, 2.0, 3.0)  # tied weights


@st.composite
def _section_runs(draw):
    """A run of 1-3 drawn sections whose positions are the previous successors.

    Each position holds 1-3 rows in a drawn order, so groups interleave and
    positions repeat; -0.0 and 0.0 can both be positions, and they are one key.
    """
    d = draw(st.integers(1, 2))
    tau = 0.5
    point = st.lists(st.sampled_from(_LATTICE), min_size=d, max_size=d)
    n0 = draw(st.integers(1, 3))
    raw = np.array(draw(st.lists(st.sampled_from(_RAW_WEIGHTS), min_size=n0, max_size=n0)))
    atoms = np.array(draw(st.lists(point, min_size=n0, max_size=n0)))
    mu0 = DiscreteMeasure(atoms, raw / raw.sum())
    ends, sections = mu0.atoms, []
    for _ in range(draw(st.integers(1, 3))):
        positions = list({x.tobytes(): x for x in ends}.values())
        rows = [
            (x, draw(st.lists(st.sampled_from(_SPEEDS), min_size=d, max_size=d)))
            for x in positions
            for _ in range(draw(st.integers(1, 3)))
        ]
        order = draw(st.permutations(range(len(rows))))
        raw = np.array(
            draw(st.lists(st.sampled_from(_RAW_WEIGHTS), min_size=len(rows), max_size=len(rows)))
        )
        phi = TangentMeasure(
            np.array([rows[i][0] for i in order]),
            np.array([rows[i][1] for i in order]),
            raw / raw.sum(),
        )
        sections.append(phi)
        ends = phi.positions + tau * phi.velocities
    return EulerRun(None, tau, tau * len(sections), 1.0, (mu0,), tuple(sections))


@settings(max_examples=200, deadline=None)
@given(run=_section_runs())
def test_multi_step_plan_matches_dict_keyed_recursion_bitwise(run):
    plan = multi_step_plan(run)
    pts, weights = _oracle_multi_step_plan(run)
    assert plan.points.shape == pts.shape
    assert plan.points.tobytes() == pts.tobytes()
    assert plan.weights.tobytes() == weights.tobytes()


def test_exact_lift_takes_signed_zeros_for_one_atom():
    # x * u sends -0.0 to -0.0 and 0.0, and 0.25 to 0.0: M^1 holds the atom
    # -0.0 while tuples also end at 0.0, which is the same atom
    noise = {"labels": [1.0, -4.0], "weights": [0.5, 0.5]}
    spec = field_from_config({"kind": "sampled", "g": "x * u", "noise": noise}, 1)
    run = run_explicit_euler(spec, DiscreteMeasure([[-0.0], [0.25]], [0.5, 0.5]), 0.25, 0.5, 4.0)
    assert np.signbit(run.sections[1].positions[:, 0]).tolist() == [True, False, False]
    ens = build_path_ensemble(run)
    assert ens.n_paths == 4
    assert not np.signbit(ens.nodes[:, 1, 0]).all()
    assert verify_marginals(ens, run, [0.0, 0.125, 0.25, 0.375, 0.5]).passed
    assert all(verify_joint_law(ens, run, n).passed for n in range(run.n_steps))


@pytest.mark.parametrize("name", ["sdf-linear", "gradient-sum", "idf-attract", "stochastic-idf"])
@pytest.mark.parametrize("T", [0.75, 0.7])
def test_exact_lift_nodes_equal_stacked_per_path_nodes(name, T):
    sc = scenario(name)
    run = run_explicit_euler(sc.spec, sc.default_initial, 0.25, T, 50.0)
    ens = build_path_ensemble(run)
    assert ens.nodes.tobytes() == _oracle_exact_nodes(run).tobytes()
    for p, nodes in zip(ens.paths, ens.nodes):
        assert np.shares_memory(p.grid, ens.grid) and np.shares_memory(p.nodes, ens.nodes)
        assert p.nodes.tobytes() == nodes.tobytes()


def test_monte_carlo_nodes_equal_stacked_per_particle_trajectories():
    # x' = x - tau x from three atoms, the last step clipped at T = 0.7
    mu0 = mixture([-0.7, 0.2, 0.9], [0.2, 0.5, 0.3])
    ens = sample_paths_monte_carlo(DET, mu0, 0.25, 0.7, 40, seed=3)
    starts = ens.nodes[:, 0, :]
    traj = [starts]
    for _ in range(3):
        traj.append(traj[-1] + 0.25 * -traj[-1])
    traj[3] = traj[2] + (0.7 - 0.25 * 2) / 0.25 * (traj[3] - traj[2])
    grid = np.array([0.0, 0.25, 0.5, 0.7])
    want = np.stack([PiecewisePath(grid, np.stack(traj)[:, i, :]).nodes for i in range(40)])
    assert set(starts.ravel().tolist()) <= {-0.7, 0.2, 0.9}
    assert ens.grid.tobytes() == grid.tobytes()
    assert ens.nodes.tobytes() == want.tobytes()
