"""Field evaluation, barycenters, certifiers, and the expression DSL."""

import ast
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measureflow.dsl import _as_velocity, compile_expression, field_from_config
from measureflow.errors import InputError
from measureflow.euler import _predicted_section_atoms, sample_paths_monte_carlo
from measureflow.fields import (
    GradientSumField,
    InteractionField,
    NonlocalSampledField,
    SampledField,
    StochasticInteractionField,
    _section,
    barycenter_field,
    check_growth,
    check_one_sided_lipschitz,
    check_pair_dissipativity,
    check_total_dissipativity,
    evaluate_pvf,
    product_disintegration_coupling,
    uniform_noise,
)
from measureflow.limit import _velocity_fn
from measureflow.measure import (
    DiscreteMeasure,
    TangentMeasure,
    barycentric_projection,
    coalesce,
    dirac,
    measures_close,
    mixture,
    second_moment,
    tangent_atoms,
    velocity_moment,
)
from measureflow.scenarios import scenario, scenario_names
from measureflow.transport import optimal_coupling

SDF = SampledField(lambda x, u: -x + u, uniform_noise([1.0, -1.0]))
ATTRACT = InteractionField(lambda x, y: y - x)
ZERO_F = InteractionField(lambda x, y: np.zeros_like(x))


def test_evaluate_sampled_example():
    phi = evaluate_pvf(SDF, dirac(0.0))
    pairs = sorted((float(v[0]), float(w)) for v, w in zip(phi.velocities, phi.weights))
    assert pairs == [(-1.0, 0.5), (1.0, 0.5)]
    assert np.all(phi.positions == 0.0)


def test_evaluate_interaction_example():
    mu = mixture([-1.0, 1.0], [0.5, 0.5])
    phi = evaluate_pvf(ATTRACT, mu)
    got = sorted(
        (float(x[0]), float(v[0]), float(w))
        for x, v, w in zip(phi.positions, phi.velocities, phi.weights)
    )
    assert got == [(-1.0, 0.0, 0.25), (-1.0, 2.0, 0.25), (1.0, -2.0, 0.25), (1.0, 0.0, 0.25)]


def test_evaluate_zero_interaction():
    mu = mixture([0.3, -0.7, 2.0], [0.25, 0.25, 0.5])
    phi = evaluate_pvf(ZERO_F, mu)
    assert np.all(phi.velocities == 0.0)
    assert measures_close(phi.x_marginal(), mu, atom_tol=0.0)


def test_x_marginal_law_all_scenarios():
    rng = np.random.default_rng(0)
    for name in scenario_names():
        sc = scenario(name)
        w = rng.random(3)
        mu = DiscreteMeasure(rng.normal(size=(3, sc.dim)), w / w.sum())
        phi = evaluate_pvf(sc.spec, mu)
        assert measures_close(phi.x_marginal(), mu, atom_tol=0.0, weight_tol=1e-13)


def test_barycenter_field_examples():
    assert barycenter_field(SDF, np.array([0.0]), dirac(0.0))[0] == 0.0
    mu = mixture([-1.0, 1.0], [0.5, 0.5])
    assert barycenter_field(ATTRACT, np.array([0.0]), mu)[0] == 0.0
    grad = GradientSumField((lambda x: x,))  # H(x) = x^2 / 2
    assert barycenter_field(grad, np.array([3.0]), dirac(0.0))[0] == -3.0


def test_barycenter_consistency_with_projection():
    rng = np.random.default_rng(1)
    for name in scenario_names():
        sc = scenario(name)
        w = rng.random(4)
        mu = DiscreteMeasure(rng.normal(size=(4, sc.dim)), w / w.sum())
        proj = barycentric_projection(evaluate_pvf(sc.spec, mu))
        bry = {x.tobytes(): v for x, v in zip(proj.positions, proj.velocities)}
        for x in mu.atoms:
            want = barycenter_field(sc.spec, x, mu)
            assert np.max(np.abs(bry[x.tobytes()] - want)) <= 1e-12


def test_one_sided_lipschitz_examples():
    rng = np.random.default_rng(2)
    pairs = [(rng.normal(size=1), rng.normal(size=1)) for _ in range(40)]
    rep = check_one_sided_lipschitz(lambda x: -x, pairs, 0.0)
    assert rep.passed and np.isclose(rep.lambda_hat, -1.0)

    rep = check_one_sided_lipschitz(lambda x: x, [(np.zeros(1), np.ones(1))], 0.0)
    assert not rep.passed and np.isclose(rep.lambda_hat, 1.0)
    assert len(rep.violations) == 1

    cube_pairs = [(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)) for _ in range(100)]
    rep = check_one_sided_lipschitz(lambda x: -(x**3), cube_pairs, 0.0)
    assert rep.passed


def test_pair_dissipativity_examples():
    rng = np.random.default_rng(3)
    samples = [
        ((rng.normal(size=1), rng.normal(size=1)), (rng.normal(size=1), rng.normal(size=1)))
        for _ in range(60)
    ]
    assert check_pair_dissipativity(lambda x, y: y - x, samples, 0.0).passed
    rep = check_pair_dissipativity(lambda x, y: x, samples, 0.0)
    assert not rep.passed
    assert check_pair_dissipativity(lambda x, y: np.zeros(1), samples, 0.0).passed


def test_total_dissipativity_examples():
    phi0 = tangent_atoms([((0.0,), (0.0,))], [1.0])
    down = tangent_atoms([((1.0,), (-1.0,))], [1.0])
    up = tangent_atoms([((1.0,), (1.0,))], [1.0])
    assert check_total_dissipativity(phi0, down, [], 0.0).passed
    rep = check_total_dissipativity(phi0, up, [], 0.0)
    assert not rep.passed
    assert check_total_dissipativity(phi0, up, [], 1.0).passed  # equality case


def test_dissbari_product_coupling_inherits_pair_dissipativity():
    # kernels y - x - c x are pair-dissipative at -c; the induced product
    # coupling along any spatial plan must then be totally (-c)-dissipative
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = float(rng.random())
        f = lambda x, y, c=c: (y - x) - c * x
        spec = InteractionField(f)
        w0, w1 = rng.random(3), rng.random(2)
        mu0 = DiscreteMeasure(rng.normal(size=(3, 2)), w0 / w0.sum())
        mu1 = DiscreteMeasure(rng.normal(size=(2, 2)), w1 / w1.sum())
        samples = [
            ((rng.normal(size=2), rng.normal(size=2)), (rng.normal(size=2), rng.normal(size=2)))
            for _ in range(50)
        ]
        assert check_pair_dissipativity(f, samples, -c).passed
        phi0 = evaluate_pvf(spec, mu0)
        phi1 = evaluate_pvf(spec, mu1)
        gamma = optimal_coupling(mu0, mu1).coupling
        assert check_total_dissipativity(phi0, phi1, [], -c, gamma=gamma).passed


def test_product_disintegration_marginal_validation():
    phi0 = evaluate_pvf(SDF, dirac(0.0))
    phi1 = evaluate_pvf(SDF, dirac(1.0))
    gamma = optimal_coupling(dirac(0.0), dirac(1.0)).coupling
    theta = product_disintegration_coupling(phi0, phi1, gamma)
    assert theta.weights.shape[0] == 4  # 2 velocities on each side


def test_product_disintegration_refuses_a_gamma_off_the_x_marginals():
    phi0 = evaluate_pvf(SDF, dirac(0.0))
    phi1 = evaluate_pvf(SDF, dirac(1.0))
    gamma = optimal_coupling(dirac(0.5), dirac(1.0)).coupling
    with pytest.raises(InputError, match="not a coupling"):
        product_disintegration_coupling(phi0, phi1, gamma)


def _oracle_product_disintegration(phi, psi, gamma):
    """Dict-and-loop product of conditionals, positions keyed by ``x + 0.0``."""

    def conditionals(tm):
        groups, mass = {}, {}
        for x, v, w in zip(tm.positions, tm.velocities, tm.weights):
            key = (x + 0.0).tobytes()
            groups.setdefault(key, []).append((v, w))
            mass[key] = mass.get(key, 0.0) + w
        return groups, mass

    g0, m0 = conditionals(phi)
    g1, m1 = conditionals(psi)
    x0s, v0s, x1s, v1s, ws = [], [], [], [], []
    for x0, x1, w in zip(gamma.first_atoms, gamma.second_atoms, gamma.weights):
        k0, k1 = (x0 + 0.0).tobytes(), (x1 + 0.0).tobytes()
        for v0, w0 in g0[k0]:
            for v1, w1 in g1[k1]:
                x0s.append(x0)
                v0s.append(v0)
                x1s.append(x1)
                v1s.append(v1)
                ws.append(w * (w0 / m0[k0]) * (w1 / m1[k1]))
    return np.stack(x0s), np.stack(v0s), np.stack(x1s), np.stack(v1s), np.asarray(ws)


_SIGNED_LATTICE = (-1.0, -0.0, 0.0, 0.5)


@st.composite
def _lattice_tangent(draw, dim):
    """1-5 rows on a lattice holding ±0.0, so positions repeat; tied weights."""
    n = draw(st.integers(1, 5))
    point = st.lists(st.sampled_from(_SIGNED_LATTICE), min_size=dim, max_size=dim)
    pos = np.array(draw(st.lists(point, min_size=n, max_size=n)))
    vel = np.array(draw(st.lists(point, min_size=n, max_size=n)))
    raw = np.array(draw(st.lists(st.sampled_from((1.0, 1.0, 2.0, 3.0)), min_size=n, max_size=n)))
    return TangentMeasure(pos, vel, raw / raw.sum())


@settings(max_examples=150, deadline=None)
@given(data=st.data(), method=st.sampled_from(["flow", "quantile"]))
def test_product_disintegration_matches_dict_keyed_oracle_bitwise(data, method):
    dim = 1 if method == "quantile" else data.draw(st.integers(1, 2))
    phi, psi = data.draw(_lattice_tangent(dim)), data.draw(_lattice_tangent(dim))
    gamma = optimal_coupling(phi.x_marginal(), psi.x_marginal(), method=method).coupling
    theta = product_disintegration_coupling(phi, psi, gamma)
    want = _oracle_product_disintegration(phi, psi, gamma)
    for name, arr in zip(("x0", "v0", "x1", "v1", "weights"), want):
        assert _bits(getattr(theta, name)) == _bits(arr), name


def test_total_dissipativity_takes_signed_zeros_for_one_position():
    psi = tangent_atoms([((0.5,), (0.0,)), ((2.0,), (-1.0,))], [0.5, 0.5])

    def phi(zero):
        return TangentMeasure([[zero], [0.0], [1.0]], [[1.0], [2.0], [0.0]], [0.25, 0.25, 0.5])

    report = check_total_dissipativity(phi(-0.0), psi, [], 0.0)
    assert report == check_total_dissipativity(phi(0.0), psi, [], 0.0)
    assert report.passed and report.samples_tested == 1


def test_growth_examples():
    shrink = SampledField(lambda x, u: -x, uniform_noise([0, 1]))
    mus = [dirac(1.0), mixture([-2.0, 0.5], [0.5, 0.5])]
    assert check_growth(shrink, mus, 0.0).passed

    grow = SampledField(lambda x, u: x, uniform_noise([0, 1]))
    rep = check_growth(grow, [dirac(1.0)], 0.0)
    assert not rep.passed and np.isclose(rep.lambda_hat, 0.5)

    unit = SampledField(lambda x, u: np.array([1.0]) * u, uniform_noise([1.0, -1.0]))
    assert check_growth(unit, mus, 1.0).passed


def test_velocity_growth_constants_of_scenarios():
    rng = np.random.default_rng(5)
    for name in scenario_names():
        sc = scenario(name)
        for _ in range(8):
            n = int(rng.integers(1, 5))
            w = rng.random(n)
            mu = DiscreteMeasure(rng.uniform(-2, 2, size=(n, sc.dim)), w / w.sum())
            lhs = velocity_moment(evaluate_pvf(sc.spec, mu)) ** 2
            rhs = sc.velocity_growth_L * (1.0 + second_moment(mu) ** 2)
            assert lhs <= rhs + 1e-10, (name, lhs, rhs)


# ---------------------------------------------------------------------------
# expression DSL
# ---------------------------------------------------------------------------


def test_dsl_sampled_field():
    spec = field_from_config(
        {"kind": "sampled", "g": "-x + u", "noise": {"labels": [1, -1], "weights": [0.5, 0.5]}},
        dim=1,
    )
    phi = evaluate_pvf(spec, dirac(0.0))
    assert sorted(phi.velocities.ravel()) == [-1.0, 1.0]


def test_dsl_interaction_and_vectors():
    spec = field_from_config({"kind": "interaction", "f": "y - x"}, dim=2)
    mu = mixture([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    phi = evaluate_pvf(spec, mu)
    assert phi.n_atoms == 4
    fn = compile_expression("[x[0] + 1, 2 * x[1]]", ("x",))
    out = fn({"x": np.array([1.0, 3.0])})
    assert np.allclose(out, [2.0, 6.0])


def test_dsl_nonlocal_moments():
    spec = field_from_config(
        {
            "kind": "nonlocal-sampled",
            "g": "-x * (1 + m2)",
            "noise": {"labels": [0], "weights": [1.0]},
        },
        dim=1,
    )
    mu = mixture([1.0, -1.0], [0.5, 0.5])  # m2 = 1
    phi = evaluate_pvf(spec, mu)
    vel = {float(x[0]): float(v[0]) for x, v in zip(phi.positions, phi.velocities)}
    assert np.isclose(vel[1.0], -2.0) and np.isclose(vel[-1.0], 2.0)


def test_dsl_rejects_malformed_shapes():
    x = np.array([1.0, 2.0])
    with pytest.raises(InputError):
        compile_expression("x[2]", ("x",))({"x": x})  # index beyond the vector
    with pytest.raises(InputError):
        compile_expression("[x, 1]", ("x",))({"x": x})  # non-scalar element
    with pytest.raises(InputError):
        compile_expression("dot(x, [1, 2, 3])", ("x",))({"x": x})
    with pytest.raises(InputError):
        compile_expression("[]", ("x",))
    with pytest.raises(InputError):
        compile_expression("x[True]", ("x",))
    spec = field_from_config({"kind": "interaction", "f": "x[0] + y[0]"}, dim=2)
    with pytest.raises(InputError):
        evaluate_pvf(spec, mixture([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5]))


def test_dsl_rejects_code_execution():
    with pytest.raises(InputError):
        compile_expression("__import__('os').system('true')", ("x",))
    with pytest.raises(InputError):
        compile_expression("x.dtype", ("x",))
    with pytest.raises(InputError):
        compile_expression("open('/etc/passwd')", ("x",))
    with pytest.raises(InputError):
        compile_expression("y + 1", ("x",))  # unknown variable


# ---------------------------------------------------------------------------
# the section rule against per-kind reference loops
# ---------------------------------------------------------------------------

_DSL_CONFIGS = {
    "dsl-sampled": (
        {"kind": "sampled", "g": "-x + u", "noise": {"labels": [1, -1], "weights": [0.25, 0.75]}},
        1,
    ),
    "dsl-interaction": ({"kind": "interaction", "f": "y - x"}, 2),
    "dsl-stochastic-interaction": (
        {
            "kind": "stochastic-interaction",
            "h": "u * (y - x) - 0.5 * x",
            "noise": {"labels": [0.5, 1.5], "weights": [0.3, 0.7]},
        },
        2,
    ),
    "dsl-nonlocal-sampled": (
        {
            "kind": "nonlocal-sampled",
            "g": "-x * (1 + m2) + u * m1",
            "noise": {"labels": [0, 1, 2], "weights": [0.2, 0.3, 0.5]},
        },
        2,
    ),
    "dsl-reductions": (
        {
            "kind": "stochastic-interaction",
            "h": "u * (y - x) * sin(norm(x - y)) - 0.5 * dot(x, y) * x",
            "noise": {"labels": [0.5, 1.5], "weights": [0.3, 0.7]},
        },
        3,
    ),
}
_KINDS = tuple(scenario_names()) + tuple(_DSL_CONFIGS)
# the same fields declared per-point, so the section rule wraps them in its adapter
_PER_POINT = tuple(f"{name}:per-point" for name in _KINDS)


def _spec_and_dim(name):
    base = name.removesuffix(":per-point")
    if base in _DSL_CONFIGS:
        cfg, dim = _DSL_CONFIGS[base]
        spec = field_from_config(cfg, dim)
    else:
        sc = scenario(base)
        spec, dim = sc.spec, sc.dim
    assert spec.batched
    return dataclasses.replace(spec, batched=base == name), dim


def _as_sampled(spec):
    if isinstance(spec, GradientSumField):
        grads = spec.gradients
        return SampledField(
            lambda x, u: -np.asarray(grads[u](x)), uniform_noise(range(len(grads)))
        )
    return spec


def _oracle_evaluate_pvf(spec, mu):
    """The per-kind evaluation loop that the section rule replaced."""
    spec = _as_sampled(spec)
    vec = lambda v: np.atleast_1d(np.asarray(v, dtype=float))  # noqa: E731
    xs, vs, ws = [], [], []
    if isinstance(spec, SampledField):
        for x, w in zip(mu.atoms, mu.weights):
            for u, uw in zip(spec.noise.labels, spec.noise.weights):
                xs.append(x)
                vs.append(vec(spec.g(x, u)))
                ws.append(w * uw)
    elif isinstance(spec, InteractionField):
        for x, w in zip(mu.atoms, mu.weights):
            for y, wy in zip(mu.atoms, mu.weights):
                xs.append(x)
                vs.append(vec(spec.f(x, y)))
                ws.append(w * wy)
    elif isinstance(spec, StochasticInteractionField):
        for x, w in zip(mu.atoms, mu.weights):
            for y, wy in zip(mu.atoms, mu.weights):
                for u, uw in zip(spec.noise.labels, spec.noise.weights):
                    xs.append(x)
                    vs.append(vec(spec.h(x, y, u)))
                    ws.append(w * wy * uw)
    else:
        assert isinstance(spec, NonlocalSampledField)
        for x, w in zip(mu.atoms, mu.weights):
            for u, uw in zip(spec.noise.labels, spec.noise.weights):
                xs.append(x)
                vs.append(vec(spec.g(x, mu, u)))
                ws.append(w * uw)
    return coalesce(TangentMeasure(np.stack(xs), np.stack(vs), np.asarray(ws)), 0.0)


def _oracle_monte_carlo(spec, mu0, tau, n_steps, M, seed, noise_mode):
    """The per-kind particle loop that the section rule replaced: (M, N+1, d) nodes."""
    spec = _as_sampled(spec)
    rng = np.random.default_rng(seed)
    X = mu0.atoms[rng.choice(mu0.n_atoms, size=M, p=mu0.weights)].copy()
    traj = [X]

    def draw_labels(noise):
        if noise_mode == "shared":
            return [noise.labels[rng.choice(len(noise.labels), p=noise.weights)]] * M
        idx = rng.choice(len(noise.labels), size=M, p=noise.weights)
        return [noise.labels[i] for i in idx]

    for _ in range(n_steps):
        V = np.empty_like(X)
        if isinstance(spec, SampledField):
            labels = draw_labels(spec.noise)
            for i in range(M):
                V[i] = spec.g(X[i], labels[i])
        elif isinstance(spec, NonlocalSampledField):
            labels = draw_labels(spec.noise)
            mu_hat = DiscreteMeasure(X.copy(), np.full(M, 1.0 / M))
            for i in range(M):
                V[i] = spec.g(X[i], mu_hat, labels[i])
        elif isinstance(spec, InteractionField):
            partners = rng.integers(0, M, size=M)
            for i in range(M):
                V[i] = spec.f(X[i], X[partners[i]])
        else:
            partners = rng.integers(0, M, size=M)
            labels = draw_labels(spec.noise)
            for i in range(M):
                V[i] = spec.h(X[i], X[partners[i]], labels[i])
        X = X + tau * V
        traj.append(X)
    return np.stack(traj, axis=1)


def _oracle_barycenter(spec, x, mu):
    """The per-point barycenter sum: partner by partner, then label by label."""
    sign, noise, pairs = 1.0, getattr(spec, "noise", None), False
    if isinstance(spec, GradientSumField):
        sign, noise = -1.0, uniform_noise(range(len(spec.gradients)))
        call = lambda y, u: spec.gradients[u](x)  # noqa: E731
    elif isinstance(spec, SampledField):
        call = lambda y, u: spec.g(x, u)  # noqa: E731
    elif isinstance(spec, InteractionField):
        call, pairs = (lambda y, u: spec.f(x, y)), True
    elif isinstance(spec, StochasticInteractionField):
        call, pairs = (lambda y, u: spec.h(x, y, u)), True
    else:
        call = lambda y, u: spec.g(x, mu, u)  # noqa: E731
    partners = list(zip(mu.atoms, mu.weights)) if pairs else [(None, 1.0)]
    labels = [(None, 1.0)] if noise is None else list(zip(noise.labels, noise.weights))
    out = np.zeros_like(x)
    for y, wy in partners:
        for u, uw in labels:
            out = out + sign * wy * uw * np.asarray(call(y, u), dtype=float)
    return out


@st.composite
def _measures(draw, dim, low=0.1, high=1.0, normalise=True):
    n = draw(st.integers(1, 4))
    coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    atoms = np.array(draw(st.lists(coord, min_size=n * dim, max_size=n * dim)))
    w = np.array(draw(st.lists(st.floats(low, high), min_size=n, max_size=n)))
    return atoms.reshape(n, dim), (w / w.sum() if normalise else w)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("name", _KINDS + _PER_POINT)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_evaluate_pvf_matches_per_kind_oracle(name, data):
    spec, dim = _spec_and_dim(name)
    atoms, w = data.draw(_measures(dim))
    mu = DiscreteMeasure(atoms, w)
    got, want = evaluate_pvf(spec, mu), _oracle_evaluate_pvf(spec, mu)
    assert _bits(got.positions) == _bits(want.positions)
    assert _bits(got.velocities) == _bits(want.velocities)
    assert _bits(got.weights) == _bits(want.weights)


@pytest.mark.parametrize("noise_mode", ["independent", "shared"])
@pytest.mark.parametrize("name", _KINDS + _PER_POINT)
@settings(max_examples=10, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_monte_carlo_matches_per_kind_oracle(name, noise_mode, data, seed):
    spec, dim = _spec_and_dim(name)
    atoms, w = data.draw(_measures(dim))
    mu0 = DiscreteMeasure(atoms, w)
    ens = sample_paths_monte_carlo(spec, mu0, 0.25, 0.75, 12, seed, noise_mode)
    got = np.stack([p.nodes for p in ens.paths])
    assert _bits(got) == _bits(_oracle_monte_carlo(spec, mu0, 0.25, 3, 12, seed, noise_mode))


@pytest.mark.parametrize("name", _KINDS + _PER_POINT)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sticky_rhs_rows_equal_barycenter_field(name, data):
    # weights summing to 2 or more: the right-hand side normalises them
    spec, dim = _spec_and_dim(name)
    pos, w = data.draw(_measures(dim, low=2.0, high=3.0, normalise=False))
    rhs = _velocity_fn(spec)(pos, w)
    mu = DiscreteMeasure(pos, w / w.sum())
    for i in range(pos.shape[0]):
        assert _bits(rhs[i]) == _bits(barycenter_field(spec, pos[i], mu))
        assert _bits(rhs[i]) == _bits(_oracle_barycenter(spec, pos[i], mu))


def test_unknown_spec_refused_by_every_consumer():
    bogus = object()
    mu = dirac(0.0)
    with pytest.raises(InputError):
        evaluate_pvf(bogus, mu)
    with pytest.raises(InputError):
        barycenter_field(bogus, np.zeros(1), mu)
    with pytest.raises(InputError):
        _velocity_fn(bogus)
    with pytest.raises(InputError):
        sample_paths_monte_carlo(bogus, mu, 0.5, 1.0, 4, seed=0)
    with pytest.raises(InputError):
        _predicted_section_atoms(bogus, 3)


# ---------------------------------------------------------------------------
# batch kernels against single-point calls
# ---------------------------------------------------------------------------


def _strided(a):
    """A view with the values of ``a`` whose rows and columns are both strided."""
    n, d = a.shape
    big = np.full((2 * n, d + 1), np.nan)
    big[::2, 1:] = a
    return big[::2, 1:]


@pytest.mark.parametrize("name", _KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_section_kernel_rows_equal_single_point_calls(name, data):
    spec, dim = _spec_and_dim(name)
    atoms, w = data.draw(_measures(dim))
    mu = DiscreteMeasure(atoms, w)
    pts = data.draw(_measures(dim))[0]
    X, Y = _strided(pts), _strided(pts[::-1])
    rule = _section(spec)
    read = mu if rule.reads_measure else None
    for _, _, fn in rule.terms:
        batch = fn(X, Y if rule.pairs else None, read)
        for i in range(X.shape[0]):
            one = fn(X[i], Y[i] if rule.pairs else None, read)
            assert _bits(batch[i]) == _bits(one)


def _parent_compile(text):
    """The per-point DSL compiler that the array compiler replaced (reference only)."""
    functions = {
        "sin": np.sin, "cos": np.cos, "tanh": np.tanh, "exp": np.exp, "sqrt": np.sqrt,
        "abs": np.abs, "min": np.minimum, "max": np.maximum,
    }
    binops = {
        ast.Add: lambda a, b: a + b,
        ast.Sub: lambda a, b: a - b,
        ast.Mult: lambda a, b: a * b,
        ast.Div: lambda a, b: a / b,
        ast.Pow: lambda a, b: a**b,
    }
    unary = {ast.USub: lambda a: -a, ast.UAdd: lambda a: a}

    def node_fn(node):
        if isinstance(node, ast.Constant):
            value = float(node.value)
            return lambda env: value
        if isinstance(node, ast.Name):
            return lambda env: env[node.id]
        if isinstance(node, ast.BinOp):
            op, left, right = binops[type(node.op)], node_fn(node.left), node_fn(node.right)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp):
            op, operand = unary[type(node.op)], node_fn(node.operand)
            return lambda env: op(operand(env))
        if isinstance(node, ast.Call):
            fn, args = functions[node.func.id], [node_fn(a) for a in node.args]
            return lambda env: fn(*(a(env) for a in args))
        if isinstance(node, ast.List):
            elems = [node_fn(e) for e in node.elts]
            return lambda env: np.asarray(
                [float(np.asarray(e(env), dtype=float).reshape(())) for e in elems]
            )
        base, idx = node_fn(node.value), node.slice.value
        return lambda env: np.atleast_1d(base(env))[idx]

    fn = node_fn(ast.parse(text, mode="eval").body)
    return lambda env: np.atleast_1d(np.asarray(fn(env), dtype=float))


# (expression over x, y, u, m1, m2 in R^3, whether the per-point compiler is an oracle).
# norm and dot now sum in index order where the per-point compiler called BLAS, and
# ** on a per-point scalar (x[k], norm, dot) now takes numpy's array power where the
# per-point compiler took the scalar one; both can differ in the last bit, so those
# expressions are checked only batch against single point.
_GRAMMAR = {
    "functions": ("sin(x) + cos(y) - tanh(x * y) + exp(-abs(u * x))", True),
    "sqrt-moments": ("sqrt(abs(x - y)) / (1 + abs(m1)) - m2 * x", True),
    "array-power": ("x ** 2 + abs(y) ** 1.5 - 2 ** u + (-x) ** 3", True),
    "index-literal": ("[x[0] * y[1], min(x[1], y[2]) - max(x[2], u), sin(x[2]) + m1[0]]", True),
    "unary-broadcast": ("+x - -y * m1[1] + [1, u, m2]", True),
    "no-batch-axis": ("m1 * u - [m2, 1, 2 ** u]", True),  # _as_velocity broadcasts it
    "scalar-power": ("[x[1] ** 3, abs(y[0]) ** 0.5, 2 ** x[2]]", False),
    "norm-dot": ("norm(x - y) * x + dot(x, y) * y - norm(u)", False),
    "norm-dot-literal": ("[norm(x), dot(x, m1), dot(y, [1, 2, 3]) ** 2]", False),
}
_VARS = ("x", "y", "u", "m1", "m2")


@pytest.mark.parametrize("text, parent_oracle", _GRAMMAR.values(), ids=_GRAMMAR.keys())
@settings(max_examples=40, deadline=None)
@given(data=st.data(), u=st.sampled_from([0.5, -1.5, 3.0]))
def test_dsl_batch_rows_equal_single_point_calls(text, parent_oracle, data, u):
    pts = data.draw(_measures(3))[0]
    m1 = data.draw(_measures(3))[0][0]
    X, Y = _strided(pts), _strided(pts[::-1] * 1.5)
    kernel = compile_expression(text, _VARS)
    env = lambda x, y: {"x": x, "y": y, "u": u, "m1": m1, "m2": 0.75}  # noqa: E731
    batch = _as_velocity(kernel(env(X, Y)), X, 3)
    assert batch.shape == X.shape
    for i in range(X.shape[0]):
        one = _as_velocity(kernel(env(X[i], Y[i])), X[i], 3)
        assert _bits(batch[i]) == _bits(one)
        if parent_oracle:
            assert _bits(one) == _bits(_parent_compile(text)(env(X[i], Y[i])))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dsl_norm_and_dot_are_ordered_sums(data):
    pts = data.draw(_measures(3))[0]
    env = {"x": _strided(pts), "y": _strided(pts[::-1] * 0.7)}
    norm = compile_expression("norm(x)", ("x", "y"))(env)
    dot = compile_expression("dot(x, y)", ("x", "y"))(env)
    for i, (x, y) in enumerate(zip(env["x"].tolist(), env["y"].tolist())):
        assert norm[i, 0] == math.sqrt((x[0] * x[0] + x[1] * x[1]) + x[2] * x[2])
        assert dot[i, 0] == (x[0] * y[0] + x[1] * y[1]) + x[2] * y[2]


def test_monte_carlo_calls_each_drawn_label_once_per_step():
    spec, dim = _spec_and_dim("dsl-stochastic-interaction")
    mu0 = mixture([[0.5, -0.2], [-0.3, 0.8]], [0.4, 0.6])
    want = sample_paths_monte_carlo(spec, mu0, 0.25, 1.0, 500, seed=4)
    rows = []

    def counted(x, y, u):
        rows.append(x.shape[0] if x.ndim == 2 else 1)
        return spec.h(x, y, u)

    for batched, most in ((True, 4 * 2), (False, 4 * 500)):
        rows.clear()
        traced = dataclasses.replace(spec, h=counted, batched=batched)  # as a tracer rebuilds it
        got = sample_paths_monte_carlo(traced, mu0, 0.25, 1.0, 500, seed=4)
        assert len(rows) <= most and sum(rows) == 4 * 500
        assert _bits(got.nodes) == _bits(want.nodes)
