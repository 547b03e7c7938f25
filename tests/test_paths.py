"""Path ensembles: the shared node array against per-path evaluation, and the writers."""

import csv
import functools
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measureflow.analysis import ensemble_action
from measureflow.errors import InputError
from measureflow.euler import (
    build_path_ensemble,
    run_explicit_euler,
    sample_paths_monte_carlo,
    verify_joint_law,
)
from measureflow.limit import StickyFlowConfig, sticky_flow
from measureflow.measure import DiscreteMeasure, coalesce, mixture
from measureflow.paths import (
    HORIZON_TOL,
    PathEnsemble,
    PiecewisePath,
    Provenance,
    ensemble_from_json,
)
from measureflow.scenarios import scenario

SDF = scenario("sdf-linear").spec
MU0 = mixture([-0.7, 0.2, 0.9], [0.2, 0.5, 0.3])


def _per_path_evaluate(ens, t):
    atoms = np.stack([p(float(t)) for p in ens.paths])
    return coalesce(DiscreteMeasure(atoms, ens.weights), 0.0)


def _action_p(path, p):
    """The p-action of a piecewise-affine path: sum_k dt_k |slope_k|^p, exact."""
    if path.grid.shape[0] < 2:
        return 0.0
    dts = np.diff(path.grid)
    speeds = np.linalg.norm(path.slopes(), axis=1)
    return float(np.sum(dts * speeds**p))


def _per_path_action(ens, p):
    return float(sum(w * _action_p(pp, p) for pp, w in zip(ens.paths, ens.weights)))


def _random_ensemble(rng, n, K, d):
    grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.5, size=K))])
    nodes = rng.normal(size=(n, K + 1, d))
    nodes[: n // 3] = nodes[0]  # repeated paths make evaluate merge atoms
    w = rng.uniform(0.5, 1.5, size=n)
    paths = tuple(PiecewisePath(grid, nodes[i]) for i in range(n))
    return PathEnsemble.from_paths(paths, w / w.sum(), Provenance("monte-carlo"))


def _mixed_grid_copy(ens):
    """The same paths through JSON, the last grid time of one path moved by 1e-13."""
    d = ens.to_json_dict()
    d["paths"][0]["grid"][-1] += 1e-13
    return ensemble_from_json(json.dumps(d))


def _refined_copy(ens, t):
    """The same paths through JSON, path 0 with one more node, at time ``t`` on its polyline."""
    d = ens.to_json_dict()
    first = d["paths"][0]
    k = int(np.searchsorted(first["grid"], t))
    first["grid"].insert(k, t)
    first["nodes"].insert(k, ens.paths[0](t).tolist())
    return ensemble_from_json(json.dumps(d))


def _times(ens, rng):
    grid = ens.paths[0].grid
    T = ens.horizon
    return [*grid, 0.0, T, -0.5 * HORIZON_TOL, T + 0.5 * HORIZON_TOL, *rng.uniform(0, T, 20)]


def _assert_same_measure(a, b):
    assert a.atoms.tobytes() == b.atoms.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()


def _ensembles():
    rng = np.random.default_rng(11)
    tree = build_path_ensemble(run_explicit_euler(SDF, MU0, 0.25, 0.9, 4.0))
    mc = sample_paths_monte_carlo(SDF, MU0, 0.3, 1.0, 50, seed=2)
    rand = [
        _random_ensemble(rng, int(rng.integers(1, 40)), int(rng.integers(0, 9)), d)
        for d in (1, 2, 3)
    ]
    return [tree, mc, *rand]


def test_common_grid_ensembles_share_one_node_array():
    for ens in _ensembles():
        assert ens.nodes.shape == (ens.n_paths, ens.grid.shape[0], ens.dim)
        assert ens.nodes is ens.nodes
        assert not ens.nodes.flags.writeable


def test_evaluate_matches_per_path_interpolation_bitwise():
    rng = np.random.default_rng(5)
    for ens in _ensembles():
        for t in _times(ens, rng):
            _assert_same_measure(ens.evaluate(t), _per_path_evaluate(ens, t))
        for t in (-1e-9, ens.horizon + 1e-9, float("nan")):
            with pytest.raises(InputError):
                ens.evaluate(t)


def test_mixed_grid_ensemble_loads_onto_union_grid():
    rng = np.random.default_rng(6)
    for ens in _ensembles():
        mixed = _mixed_grid_copy(ens)
        assert mixed.grid.tolist() == sorted({*ens.grid.tolist(), ens.horizon + 1e-13})
        for t in _times(mixed, rng):
            _assert_same_measure(mixed.evaluate(t), _per_path_evaluate(mixed, t))
    a = PiecewisePath(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
    b = PiecewisePath(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
    mixed = PathEnsemble.from_paths((a, b), np.array([0.25, 0.75]), Provenance("monte-carlo"))
    assert mixed.grid.tolist() == [0.0, 0.5, 1.0]
    assert mixed.nodes[1].ravel().tolist() == [2.0, 2.5, 3.0]
    out = mixed.evaluate(0.75)
    assert out.atoms.ravel().tolist() == [0.5, 2.75]


def test_ensemble_action_matches_per_path_sum_bitwise():
    for ens in _ensembles():
        for e in (ens, _mixed_grid_copy(ens)):
            for p in (1.0, 2.0, 3.5):
                assert ensemble_action(e, p) == _per_path_action(e, p)
            with pytest.raises(InputError):
                ensemble_action(e, 0.5)


def test_joint_law_on_node_array_and_union_grid():
    run = run_explicit_euler(SDF, MU0, 0.25, 1.0, 4.0)
    tree = build_path_ensemble(run)
    mixed, refined = _mixed_grid_copy(tree), _refined_copy(tree, 0.1)
    assert mixed.grid.shape[0] == refined.grid.shape[0] == tree.grid.shape[0] + 1
    for ens in (tree, mixed, refined):  # refined: union-grid columns are no step indices
        for n in range(run.n_steps):
            assert verify_joint_law(ens, run, n).passed
        d = ens.to_json_dict()
        d["paths"][3]["nodes"][d["paths"][3]["grid"].index(0.25)][0] += 1e-3
        bad = ensemble_from_json(json.dumps(d))
        assert bad.grid.tobytes() == ens.grid.tobytes()
        assert not verify_joint_law(bad, run, 0).passed
        assert not verify_joint_law(bad, run, 1).passed
        assert verify_joint_law(bad, run, 2).passed


# ---------------------------------------------------------------------------
# ensemble.json / ensemble.csv writers against the encoders
# ---------------------------------------------------------------------------


def _oracle_csv(ens):
    """The per-row csv.writer loop that rendered ensemble.csv before the block writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["path_id", "time", *[f"x{k}" for k in range(ens.dim)], "weight"])
    for i, (p, w) in enumerate(zip(ens.paths, ens.weights)):
        for t, node in zip(p.grid, p.nodes):
            writer.writerow([i, repr(float(t)), *[repr(float(c)) for c in node], repr(float(w))])
    return buf.getvalue()


def _assert_writers_match_oracles(ens):
    json_out, csv_out = io.StringIO(), io.StringIO()
    ens.write_artifacts(json_out, csv_out)
    assert json_out.getvalue() == json.dumps(ens.to_json_dict(), sort_keys=True, indent=1) + "\n"
    assert csv_out.getvalue() == _oracle_csv(ens)
    assert csv_out.getvalue() == ens.to_csv()


_SPECIAL = (-0.0, 0.0, 5e-324, 1e16, 1e-7, -1e16, 1.0 / 3.0)
_COORD = st.one_of(
    st.sampled_from(_SPECIAL), st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
)


@st.composite
def _drawn_ensembles(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    mixed = draw(st.booleans())
    K = draw(st.integers(2 if mixed else 0, 4))
    times = st.sampled_from((5e-324, 1e-7, 0.25, 1.0 / 3.0, 1.0, 1e16))
    grid = np.array([0.0, *sorted(draw(st.lists(times, min_size=K, max_size=K, unique=True)))])
    nodes = np.array(draw(st.lists(_COORD, min_size=n * (K + 1) * d, max_size=n * (K + 1) * d)))
    raw = np.array(draw(st.lists(st.sampled_from((1e-7, 0.3, 1.0, 2.5)), min_size=n, max_size=n)))
    prov = Provenance(
        draw(st.sampled_from(("exact-tree", "monte-carlo", "limit-flow"))),
        draw(st.none() | st.integers(0, 2**40)),
        draw(st.none() | st.integers(1, 10**6)),
    )
    nodes = nodes.reshape(n, K + 1, d)
    ens = PathEnsemble.from_paths(
        tuple(PiecewisePath(grid, nodes[i]) for i in range(n)), raw / raw.sum(), prov
    )
    if not mixed:
        return ens
    doc = ens.to_json_dict()  # path 0 keeps only its end points
    first = doc["paths"][0]
    first["grid"] = [first["grid"][0], first["grid"][-1]]
    first["nodes"] = [first["nodes"][0], first["nodes"][-1]]
    return ensemble_from_json(json.dumps(doc))


@settings(max_examples=150, deadline=None)
@given(ens=_drawn_ensembles())
def test_writers_match_encoders_on_drawn_ensembles(ens):
    _assert_writers_match_oracles(ens)


def test_writers_match_encoders_on_every_producer():
    gs = scenario("gradient-sum").spec
    mu2 = mixture([[0.5, -0.2], [-0.3, 0.8]], [0.4, 0.6])
    producers = [
        build_path_ensemble(run_explicit_euler(SDF, MU0, 0.25, 0.9, 4.0)),
        build_path_ensemble(run_explicit_euler(gs, mu2, 0.25, 0.5, 10.0)),
        sample_paths_monte_carlo(gs, mu2, 0.3, 1.0, 600, seed=2),  # 600 paths: three blocks
        sticky_flow(gs, mu2, 0.5, StickyFlowConfig(dt=0.01)).ensemble,
        _random_ensemble(np.random.default_rng(3), 7, 3, 3),
    ]
    for ens in producers:
        for e in (ens, _mixed_grid_copy(ens)):
            _assert_writers_match_oracles(e)
    mc = producers[2]
    assert _mixed_grid_copy(mc).nodes.shape == (mc.n_paths, mc.grid.shape[0] + 1, mc.dim)


# ---------------------------------------------------------------------------
# the array-backed ensemble against its per-path views
# ---------------------------------------------------------------------------


def test_restricted_matches_per_path_restriction_bitwise():
    rng = np.random.default_rng(7)
    for ens in _ensembles():
        T = ens.horizon
        for t in (*ens.grid, 0.0, 0.5 * T, T - 0.5 * HORIZON_TOL, *rng.uniform(0, T, 5)):
            got = ens.restricted(t)
            want = [p.restricted(t) for p in ens.paths]
            assert got.grid.tobytes() == want[0].grid.tobytes()
            assert got.nodes.tobytes() == np.stack([p.nodes for p in want]).tobytes()
            assert got.weights.tobytes() == ens.weights.tobytes()
            assert got.provenance is ens.provenance
        with pytest.raises(InputError):
            ens.restricted(T + 1e-9)


@st.composite
def _mixed_grid_paths(draw):
    """1-5 paths on [0, 1] with their own grids, nodes scaled by 10^k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-3, 3))
    paths = []
    for _ in range(draw(st.integers(1, 5))):
        grid = np.unique(np.concatenate([[0.0, 1.0], rng.random(draw(st.integers(0, 6)))]))
        paths.append(PiecewisePath(grid, rng.normal(size=(grid.size, d)) * scale))
    return paths


@settings(max_examples=150, deadline=None)
@given(paths=_mixed_grid_paths(), data=st.data())
def test_from_paths_on_mixed_grids_evaluates_as_the_paths(paths, data):
    raw = np.arange(1.0, len(paths) + 1.0)
    ens = PathEnsemble.from_paths(paths, raw / raw.sum(), Provenance("monte-carlo"))
    assert ens.grid.tobytes() == functools.reduce(np.union1d, [p.grid for p in paths]).tobytes()
    scale = max(float(np.max(np.abs(p.nodes))) for p in paths)
    ts = [0.0, 1.0, *ens.grid, *data.draw(st.lists(st.floats(0.0, 1.0), max_size=8))]
    for t in ts:
        want = np.stack([p(t) for p in paths])
        got = np.stack([q(t) for q in ens.paths])
        assert np.max(np.abs(got - want)) <= 1e-15 * scale
        _assert_same_measure(ens.evaluate(t), coalesce(DiscreteMeasure(got, ens.weights), 0.0))


def _refusals():
    g, n3 = np.array([0.0, 0.5, 1.0]), np.zeros((2, 3, 1))
    w, prov = np.array([0.5, 0.5]), Provenance("monte-carlo")
    yield lambda: PathEnsemble(g, np.zeros((0, 3, 1)), np.zeros(0), prov)  # no path
    yield lambda: PathEnsemble(g, np.zeros((2, 2, 1)), w, prov)  # grid and nodes disagree
    yield lambda: PathEnsemble(g, np.zeros((2, 3)), w, prov)  # nodes not (n, K+1, d)
    yield lambda: PathEnsemble(g, np.zeros((2, 3, 0)), w, prov)  # no coordinate
    yield lambda: PathEnsemble(g[None], n3, w, prov)  # grid not 1-d
    yield lambda: PathEnsemble(g, n3, np.array([1.0]), prov)  # one weight for two paths
    yield lambda: PathEnsemble(np.array([0.0, 0.5, 0.5]), n3, w, prov)  # repeated time
    yield lambda: PathEnsemble(np.array([0.0, 1.0, 0.5]), n3, w, prov)  # decreasing time
    yield lambda: PathEnsemble(np.array([0.0, 0.5, np.inf]), n3, w, prov)
    yield lambda: PathEnsemble(g, np.where(n3 == 0, np.nan, n3), w, prov)
    yield lambda: PathEnsemble(g, n3, np.array([1.0, 0.0]), prov)  # a zero weight
    yield lambda: PathEnsemble(g, n3, np.array([1.5, -0.5]), prov)  # a negative weight
    yield lambda: PathEnsemble(g, n3, np.array([0.5, 0.5 + 2e-12]), prov)  # sum off 1
    a = PiecewisePath(g, np.zeros(3))
    yield lambda: PathEnsemble.from_paths((), np.zeros(0), prov)
    yield lambda: PathEnsemble.from_paths((a, PiecewisePath(g * 2, np.zeros(3))), w, prov)
    yield lambda: PathEnsemble.from_paths((a, PiecewisePath(g, np.zeros((3, 2)))), w, prov)
    yield lambda: PathEnsemble.from_paths((a, a), np.array([0.7, 0.7]), prov)


def test_ragged_ensemble_json_names_the_path():
    d = build_path_ensemble(run_explicit_euler(SDF, MU0, 0.25, 0.5, 4.0)).to_json_dict()
    d["paths"][1]["nodes"][0] = [0.0, 1.0]  # one node of two coordinates, the rest of one
    with pytest.raises(InputError, match="path 1"):
        ensemble_from_json(json.dumps(d))


def test_every_refusal_raises_input_error():
    for make in _refusals():
        with pytest.raises(InputError):
            make()
