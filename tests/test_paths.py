"""Path ensembles: the shared node array against per-path evaluation, and the writers."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measureflow.analysis import action_p, ensemble_action
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


def _per_path_action(ens, p):
    return float(sum(w * action_p(pp, p) for pp, w in zip(ens.paths, ens.weights)))


def _random_ensemble(rng, n, K, d):
    grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.5, size=K))])
    nodes = rng.normal(size=(n, K + 1, d))
    nodes[: n // 3] = nodes[0]  # repeated paths make evaluate merge atoms
    w = rng.uniform(0.5, 1.5, size=n)
    paths = tuple(PiecewisePath(grid, nodes[i]) for i in range(n))
    return PathEnsemble(paths, w / w.sum(), Provenance("monte-carlo"))


def _mixed_grid_copy(ens):
    """The same paths through JSON, the last grid time of one path moved by 1e-13."""
    d = ens.to_json_dict()
    d["paths"][0]["grid"][-1] += 1e-13
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
        grid = ens.common_grid()
        assert grid is not None and grid is ens.common_grid()
        assert ens._nodes.shape == (ens.n_paths, grid.shape[0], ens.dim)
        assert ens._nodes is ens._nodes
        assert not ens._nodes.flags.writeable


def test_evaluate_matches_per_path_interpolation_bitwise():
    rng = np.random.default_rng(5)
    for ens in _ensembles():
        for t in _times(ens, rng):
            _assert_same_measure(ens.evaluate(t), _per_path_evaluate(ens, t))
        for t in (-1e-9, ens.horizon + 1e-9, float("nan")):
            with pytest.raises(InputError):
                ens.evaluate(t)


def test_mixed_grid_ensemble_falls_back_to_per_path_evaluation():
    rng = np.random.default_rng(6)
    for ens in _ensembles():
        mixed = _mixed_grid_copy(ens)
        assert mixed.common_grid() is None and mixed._nodes is None
        for t in _times(mixed, rng):
            _assert_same_measure(mixed.evaluate(t), _per_path_evaluate(mixed, t))
    a = PiecewisePath(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
    b = PiecewisePath(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
    mixed = PathEnsemble((a, b), np.array([0.25, 0.75]), Provenance("monte-carlo"))
    out = mixed.evaluate(0.75)
    assert out.atoms.ravel().tolist() == [0.5, 2.75]


def test_ensemble_action_matches_per_path_sum_bitwise():
    for ens in _ensembles():
        for e in (ens, _mixed_grid_copy(ens)):
            for p in (1.0, 2.0, 3.5):
                assert ensemble_action(e, p) == _per_path_action(e, p)
            with pytest.raises(InputError):
                ensemble_action(e, 0.5)


def test_joint_law_on_node_array_and_per_path_fallback():
    run = run_explicit_euler(SDF, MU0, 0.25, 1.0, 4.0)
    tree = build_path_ensemble(run)
    mixed = _mixed_grid_copy(tree)
    assert tree._nodes is not None and mixed._nodes is None
    for ens in (tree, mixed):
        for n in range(run.n_steps - 1):
            assert verify_joint_law(ens, run, n).passed
        d = ens.to_json_dict()
        d["paths"][3]["nodes"][1][0] += 1e-3
        bad = ensemble_from_json(json.dumps(d))
        assert (bad._nodes is None) == (ens._nodes is None)
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
    ens = PathEnsemble(
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
    assert producers[2]._nodes is not None and _mixed_grid_copy(producers[2])._nodes is None
