"""Measure containers: exponential push-forward, moments, projection, coalescing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from measureflow.errors import InputError, NumericDomainError
from measureflow.fields import NoiseSpace
from measureflow.measure import (
    Coupling,
    DiscreteMeasure,
    TangentCoupling,
    TangentMeasure,
    TuplePlan,
    _rows_of,
    barycentric_projection,
    coalesce,
    dirac,
    exp_push,
    measures_close,
    mixture,
    second_moment,
    tangent_atoms,
    velocity_moment,
)
from measureflow.paths import PathEnsemble, PiecewisePath, Provenance


def test_construction_validates():
    with pytest.raises(InputError):
        DiscreteMeasure(np.array([[0.0]]), np.array([0.5]))  # mass != 1
    with pytest.raises(InputError):
        DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.0, 0.0]))  # zero weight
    with pytest.raises(InputError):
        DiscreteMeasure(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(InputError):
        mixture([[0.0, 1.0]], [1.0, 0.5])  # length mismatch


_X, _W = np.array([[0.0], [1.0]]), np.array([0.5, 0.5])
_MU, _PHI = DiscreteMeasure(_X, _W), TangentMeasure(_X, _X, _W)

# Every type validated by the one rule for weighted atoms, built from (n, 1)
# coordinates and n weights, with the part of the input it does not have.
_VALIDATED = {
    "DiscreteMeasure": (lambda x, w: DiscreteMeasure(x, w), None),
    "TangentMeasure": (lambda x, w: TangentMeasure(x, x, w), None),
    "Coupling": (lambda x, w: Coupling(x, x, w, _MU, _MU), None),
    "TangentCoupling": (lambda x, w: TangentCoupling(x, x, x, x, w, _PHI, _PHI), None),
    "TuplePlan": (lambda x, w: TuplePlan(np.stack([x, x], axis=1), w), None),
    "PathEnsemble": (
        lambda x, w: PathEnsemble(
            np.array([0.0, 1.0]), np.stack([x, x], axis=1), w, Provenance("exact-tree")
        ),
        None,
    ),
    "PiecewisePath": (lambda x, w: PiecewisePath(np.arange(w.size, dtype=float), x), "weights"),
    "NoiseSpace": (lambda x, w: NoiseSpace(tuple(range(x.shape[0])), w), "coordinates"),
}

_BAD_ATOMS = [  # (the part it breaks, coordinates, weights)
    ("coordinates", [[np.nan], [1.0]], _W),
    ("coordinates", [[0.0], [np.inf]], _W),
    ("weights", _X, [np.nan, 1.0]),
    ("weights", _X, [np.inf, 0.5]),
    ("weights", _X, [1.0, 0.0]),
    ("weights", _X, [1.5, -0.5]),
    ("weights", _X, [0.5, 0.5 + 2e-12]),  # sum off 1
    ("both", np.zeros((0, 1)), []),  # empty
    ("both", [[0.0], [1.0], [2.0]], _W),  # three atoms, two weights
]


@pytest.mark.parametrize("name", sorted(_VALIDATED))
def test_weighted_atoms_refusals(name):
    build, absent = _VALIDATED[name]
    build(_X, _W)
    for part, x, w in _BAD_ATOMS:
        if part != absent:
            with pytest.raises(InputError):
                build(np.asarray(x, dtype=float), np.asarray(w, dtype=float))


def test_immutability():
    m = mixture([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        m.atoms[0, 0] = 7.0


def test_push_forward_exponential_pairs():
    phi = tangent_atoms([((0.0,), (1.0,)), ((2.0,), (1.0,))], [0.5, 0.5])
    out = exp_push(phi, 0.5)
    assert sorted(out.atoms.ravel()) == [0.5, 2.5]
    assert np.allclose(out.weights, 0.5)
    with pytest.raises(NumericDomainError):
        exp_push(phi, np.inf)


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


def _of_kind(kind, rows, weights, d):
    """``rows`` (n, width) as a measure of ``kind`` with dimension ``d``."""
    if kind == "tangent":
        return TangentMeasure(rows[:, :d], rows[:, d:], weights)
    if kind == "plan":
        return TuplePlan(rows.reshape(rows.shape[0], -1, d), weights)
    return DiscreteMeasure(rows, weights)


@st.composite
def _coalesce_cases(draw):
    """A measure of any kind with rows up to 12 wide, and a tolerance.

    Coordinates include -0.0, multiples of the tolerance and the float just
    above it, so some rows sit exactly ``tol`` apart and some one ulp beyond.
    One case in eight puts 200-250 rows on one first coordinate: the widest
    window the pass meets.
    """
    tol = draw(_TOL)
    kind = draw(st.sampled_from(["discrete", "tangent", "plan"]))
    d = draw(st.integers(1, {"discrete": 3, "tangent": 6, "plan": 3}[kind]))
    times = draw(st.integers(1, 12 // d)) if kind == "plan" else 1
    width = {"discrete": d, "tangent": 2 * d, "plan": d * times}[kind]
    values = np.array([0.0, -0.0, tol, -tol, 2 * tol, np.nextafter(tol, 1.0), 0.5, 0.5 + tol])
    if draw(st.integers(0, 7)) == 0:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rows = rng.choice(values, size=(int(rng.integers(200, 251)), width))
        rows[:, 0] = values[draw(st.integers(0, values.size - 1))]
        raw = rng.integers(1, 6, size=rows.shape[0]).astype(float)
    else:
        coord = st.one_of(_COORD, st.sampled_from(values[:6].tolist()))
        n = draw(st.integers(1, max(1, 120 // width)))
        row = st.lists(coord, min_size=width, max_size=width)
        rows = np.asarray(draw(st.lists(row, min_size=n, max_size=n)))
        raw = np.asarray(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)), dtype=float)
    return _of_kind(kind, rows, raw / raw.sum(), d), tol


# the last row's nearest two neighbours are seeds, but an earlier seed is within tol too
_THIRD_SEED = DiscreteMeasure(
    np.array([[0.0, 0.0], [0.1, 1.05], [0.2, 0.5], [0.3, 0.5]]) * 0.1, np.arange(1, 5) / 10
)


@settings(max_examples=300, deadline=None)
@given(_coalesce_cases())
@example((_THIRD_SEED, 0.1))
def test_coalesce_matches_full_scan_bitwise(case):
    m, tol = case
    out = coalesce(m, tol)
    assert type(out) is type(m)
    rows, weights = _full_scan_coalesce(DiscreteMeasure(_rows_of(m), m.weights), tol)
    assert _rows_of(out).tobytes() == rows.tobytes()
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


def test_measures_close_pairs_atoms_within_tolerance():
    a = DiscreteMeasure(np.array([[0.0, 1.0], [1e-15, 0.0]]), _W)
    b = DiscreteMeasure(np.array([[1e-15, 1.0], [0.0, 0.0]]), _W)
    assert measures_close(a, b, 1e-12)


def test_measures_close_detects_mismatch():
    a = mixture([0.0, 1.0], [0.5, 0.5])
    b = mixture([0.0, 1.0 + 1e-3], [0.5, 0.5])
    assert not measures_close(a, b)
    assert measures_close(a, mixture([1.0, 0.0], [0.5, 0.5]))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["discrete", "tangent"]),
    st.integers(1, 3),
    st.sampled_from([1e-12, 1e-9, 1e-3]),
    st.sampled_from([1e-12, 1e-9]),
    st.data(),
)
def test_measures_close_on_noisy_shuffled_copies(kind, d, tol, weight_tol, data):
    """Atoms more than 2 tol apart, moved by at most tol/4 and shuffled, still match."""
    width = 2 * d if kind == "tangent" else d
    lattice = st.tuples(*[st.integers(-4, 4)] * width)
    points = sorted(data.draw(st.sets(lattice, min_size=1, max_size=20)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = 3 * tol * np.array(points, dtype=float)  # spacing 3 tol > 2 tol
    n = rows.shape[0]
    raw = rng.uniform(0.5, 1.5, size=n)
    w = raw / raw.sum()
    noise = rng.uniform(-1.0, 1.0, size=(n, width)) * tol / (4 * np.sqrt(width))
    perm = rng.permutation(n)
    a = _of_kind(kind, rows, w, d)
    b = _of_kind(kind, (rows + noise)[perm], w[perm], d)
    assert measures_close(a, b, tol, weight_tol)
    assert measures_close(b, a, tol, weight_tol)
    if n >= 2:
        moved = w.copy()
        moved[0] += 2 * weight_tol
        moved[1] -= 2 * weight_tol
        c = _of_kind(kind, (rows + noise)[perm], moved[perm], d)
        assert not measures_close(a, c, tol, weight_tol)
        assert not measures_close(c, a, tol, weight_tol)


@pytest.mark.parametrize("name", sorted(n for n, (_, no) in _VALIDATED.items() if no != "weights"))
def test_weights_do_not_alias_the_callers_array(name):
    w = _W.copy()
    m = _VALIDATED[name][0](_X, w)
    w[0] = 0.7
    assert m.weights.tolist() == [0.5, 0.5]


def test_measures_close_at_atom_tol_zero_on_atoms_closer_than_4e16():
    # the comparison runs at 4e-16, so each side is coalesced there first
    m = mixture([0.0, 1e-16], [0.5, 0.5])
    assert measures_close(m, m, atom_tol=0.0)


def test_measures_close_refuses_two_atoms_near_one():
    # both atoms of b lie within tol of a's first atom and 1.4 tol from each other
    tol = 1e-12
    a = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), _W)
    b = DiscreteMeasure(np.array([[0.1, 0.7], [0.2, -0.7]]) * tol, _W)
    assert not measures_close(a, b, tol)
