"""Measure containers: push-forward, products, moments, projection, coalescing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measureflow.errors import InputError, NumericDomainError
from measureflow.measure import (
    Coupling,
    DiscreteMeasure,
    TangentMeasure,
    TuplePlan,
    barycentric_projection,
    coalesce,
    dirac,
    dumps,
    exp_push,
    loads_measure,
    loads_tangent,
    measures_close,
    mixture,
    product,
    push_forward,
    second_moment,
    tangent_atoms,
    velocity_moment,
)


def test_construction_validates():
    with pytest.raises(InputError):
        DiscreteMeasure(np.array([[0.0]]), np.array([0.5]))  # mass != 1
    with pytest.raises(InputError):
        DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.0, 0.0]))  # zero weight
    with pytest.raises(InputError):
        DiscreteMeasure(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(InputError):
        mixture([[0.0, 1.0]], [1.0, 0.5])  # length mismatch


def test_immutability():
    m = mixture([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        m.atoms[0, 0] = 7.0


def test_push_forward_translation_of_dirac():
    out = push_forward(dirac(0.0), lambda x: x + 1.0)
    assert out.n_atoms == 1
    assert out.atoms[0, 0] == 1.0


def test_push_forward_merges_coincident_images():
    m = mixture([-1.0, 1.0], [0.5, 0.5])
    out = push_forward(m, lambda x: x**2)
    assert out.n_atoms == 1
    assert out.atoms[0, 0] == 1.0
    assert out.weights[0] == 1.0


def test_push_forward_exponential_pairs():
    phi = tangent_atoms([((0.0,), (1.0,)), ((2.0,), (1.0,))], [0.5, 0.5])
    out = exp_push(phi, 0.5)
    assert sorted(out.atoms.ravel()) == [0.5, 2.5]
    assert np.allclose(out.weights, 0.5)


def test_push_forward_mass_preserved_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, d = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        w = rng.random(n)
        m = DiscreteMeasure(rng.normal(size=(n, d)), w / w.sum())
        out = push_forward(m, lambda x: np.round(x, 1))
        assert abs(out.weights.sum() - 1.0) < 1e-14


def test_push_forward_nonfinite_map_raises():
    with np.errstate(invalid="ignore"), pytest.raises(NumericDomainError):
        push_forward(dirac(0.0), lambda x: x / 0.0)


def test_product_examples():
    c = product(dirac(0.0), dirac(1.0))
    assert c.n_atoms == 1 and c.weights[0] == 1.0
    c = product(mixture([0.0, 1.0], [0.5, 0.5]), mixture([0.0, 1.0], [0.5, 0.5]))
    assert c.n_atoms == 4
    assert np.allclose(c.weights, 0.25)
    c = product(dirac(0.0), mixture([2.0, 3.0], [1 / 3, 2 / 3]))
    assert c.n_atoms == 2
    assert np.allclose(sorted(c.weights), [1 / 3, 2 / 3])


def test_product_marginals_exact():
    rng = np.random.default_rng(1)
    for _ in range(10):
        wm = rng.random(3)
        wn = rng.random(2)
        mu = DiscreteMeasure(rng.normal(size=(3, 2)), wm / wm.sum())
        nu = DiscreteMeasure(rng.normal(size=(2, 2)), wn / wn.sum())
        product(mu, nu)  # the constructor itself validates both marginals


def test_second_moment_examples():
    assert second_moment(dirac(3.0)) == 3.0
    assert np.isclose(second_moment(mixture([0.0, 2.0], [0.5, 0.5])), np.sqrt(2.0))
    assert second_moment(dirac([3.0, 4.0])) == 5.0


def test_velocity_moment_examples():
    assert velocity_moment(tangent_atoms([((0.0,), (2.0,))], [1.0])) == 2.0
    phi = tangent_atoms([((0.0,), (1.0,)), ((0.0,), (-1.0,))], [0.5, 0.5])
    assert velocity_moment(phi) == 1.0
    phi = tangent_atoms([((0.0,), (0.0,)), ((0.0,), (2.0,))], [0.5, 0.5])
    assert np.isclose(velocity_moment(phi), np.sqrt(2.0))


def test_barycentric_projection_examples():
    phi = tangent_atoms([((0.0,), (1.0,)), ((0.0,), (-1.0,))], [0.5, 0.5])
    out = barycentric_projection(phi)
    assert out.n_atoms == 1
    assert out.velocities[0, 0] == 0.0

    out = barycentric_projection(tangent_atoms([((1.0,), (5.0,))], [1.0]))
    assert out.positions[0, 0] == 1.0 and out.velocities[0, 0] == 5.0

    # per-x weighted means: 1/4 (0,2) + 1/4 (0,4) + 1/2 (1,0)
    phi = tangent_atoms(
        [((0.0,), (2.0,)), ((0.0,), (4.0,)), ((1.0,), (0.0,))], [0.25, 0.25, 0.5]
    )
    out = barycentric_projection(phi)
    got = {float(x[0]): float(v[0]) for x, v in zip(out.positions, out.velocities)}
    assert got == {0.0: 3.0, 1.0: 0.0}
    assert np.allclose(sorted(out.weights), [0.5, 0.5])


def test_barycentric_projection_never_increases_velocity_moment():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n, d = int(rng.integers(1, 10)), int(rng.integers(1, 4))
        pos = rng.integers(0, 3, size=(n, d)).astype(float)  # shared positions likely
        vel = rng.normal(size=(n, d))
        w = rng.random(n)
        phi = TangentMeasure(pos, vel, w / w.sum())
        assert velocity_moment(barycentric_projection(phi)) <= velocity_moment(phi) + 1e-12


def test_coalesce_examples():
    m = DiscreteMeasure(np.array([[0.0], [0.0]]), np.array([0.5, 0.5]))
    out = coalesce(m, 0.0)
    assert out.n_atoms == 1 and out.weights[0] == 1.0

    m = DiscreteMeasure(np.array([[0.0], [1e-9]]), np.array([0.5, 0.5]))
    out = coalesce(m, 1e-6)
    assert out.n_atoms == 1
    assert np.isclose(out.atoms[0, 0], 5e-10)

    m = mixture([0.0, 1.0], [0.5, 0.5])
    out = coalesce(m, 1e-6)
    assert out.n_atoms == 2


def test_coalesce_idempotent_and_mass_preserving():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        w = rng.random(n)
        m = DiscreteMeasure(rng.normal(size=(n, 2)) * 0.1, w / w.sum())
        tol = float(rng.choice([0.0, 0.05, 0.2]))
        once = coalesce(m, tol)
        twice = coalesce(once, tol)
        assert abs(once.weights.sum() - 1.0) < 1e-13
        assert once.n_atoms == twice.n_atoms
        assert np.array_equal(once.atoms, twice.atoms)


def _full_scan_coalesce(m, tol):
    """Reference greedy coalesce: every row scans all earlier cluster seeds."""
    rows, weights = m.atoms, m.weights
    while True:
        order = np.lexsort(rows.T[::-1])
        seeds, members = [], []
        merged = False
        for r, w in zip(rows[order], weights[order]):
            target = -1
            for k, seed in enumerate(seeds):
                if r[0] - seed[0] > tol:
                    continue
                if np.linalg.norm(r - seed) <= tol:
                    target = k
                    break
            if target < 0:
                seeds.append(r)
                members.append([(r, w)])
            else:
                merged = True
                members[target].append((r, w))
        out_rows, out_w = [], []
        for group in members:
            total = sum(w for _, w in group)
            out_w.append(total)
            if len(group) == 1:
                out_rows.append(group[0][0])
            else:
                out_rows.append(sum(r * w for r, w in group) / total)
        rows, weights = np.stack(out_rows), np.asarray(out_w)
        if not merged:
            return rows, weights


# rounded coordinates give tied first coordinates; the offsets straddle each tol
_COORD = st.one_of(
    st.builds(
        lambda k, off: k / 8 + off,
        st.integers(-8, 8),
        st.sampled_from([0.0, 0.0, 1e-13, -1e-13, 4e-4, -9e-4, 0.03, 0.08]),
    ),
    st.floats(-1.0, 1.0, allow_subnormal=False),
)
_TOL = st.sampled_from([1e-12, 1e-3, 0.1])


@st.composite
def _measures(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.lists(_COORD, min_size=d, max_size=d), min_size=n, max_size=n))
    raw = np.asarray(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)), dtype=float)
    return DiscreteMeasure(np.asarray(rows), raw / raw.sum())


@settings(max_examples=300, deadline=None)
@given(_measures(), _TOL)
def test_coalesce_matches_full_scan_bitwise(m, tol):
    out = coalesce(m, tol)
    rows, weights = _full_scan_coalesce(m, tol)
    assert out.atoms.tobytes() == rows.tobytes()
    assert out.weights.tobytes() == weights.tobytes()


@settings(max_examples=200, deadline=None)
@given(_measures(), _TOL)
def test_coalesce_fixpoint_invariants(m, tol):
    once = coalesce(m, tol)
    twice = coalesce(once, tol)
    assert once.atoms.tobytes() == twice.atoms.tobytes()
    assert once.weights.tobytes() == twice.weights.tobytes()
    assert abs(once.weights.sum() - m.weights.sum()) < 1e-13
    # at the fixpoint no greedy pass merges, so the atoms are tol-separated
    for i in range(once.n_atoms):
        for j in range(i):
            assert np.linalg.norm(once.atoms[i] - once.atoms[j]) > tol


def test_coupling_marginal_validation():
    mu = mixture([0.0, 1.0], [0.5, 0.5])
    nu = dirac(2.0)
    with pytest.raises(InputError):
        Coupling(
            np.array([[0.0], [1.0]]),
            np.array([[2.0], [2.0]]),
            np.array([0.25, 0.75]),  # wrong split of the first marginal
            mu,
            nu,
        )


def test_tuple_plan_restrict_and_marginal():
    pts = np.array([[[0.0], [1.0], [2.0]], [[0.0], [1.0], [3.0]]])
    plan = TuplePlan(pts, np.array([0.5, 0.5]))
    assert plan.n_steps == 2
    r = plan.restrict(1)
    assert r.n_atoms == 1  # shared prefix merges
    assert r.weights[0] == 1.0
    marg = plan.coordinate_marginal(2)
    assert sorted(marg.atoms.ravel()) == [2.0, 3.0]


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(4)
    m = DiscreteMeasure(rng.normal(size=(5, 3)), np.full(5, 0.2))
    back = loads_measure(dumps(m))
    assert np.array_equal(back.atoms, m.atoms)
    assert np.array_equal(back.weights, m.weights)

    phi = TangentMeasure(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), np.full(4, 0.25))
    back = loads_tangent(dumps(phi))
    assert np.array_equal(back.positions, phi.positions)
    assert np.array_equal(back.velocities, phi.velocities)
    d = json.loads(dumps(phi))
    assert d["dim"] == 2 and len(d["atoms"][0]) == 2


def test_measures_close_detects_mismatch():
    a = mixture([0.0, 1.0], [0.5, 0.5])
    b = mixture([0.0, 1.0 + 1e-3], [0.5, 0.5])
    assert not measures_close(a, b)
    assert measures_close(a, mixture([1.0, 0.0], [0.5, 0.5]))
