"""Command-line front end: artifacts, determinism, exit codes."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from measureflow.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_STABILITY,
    main,
)


def _write_cfg(tmp_path: Path, name: str, payload: dict) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_run_exact_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "run.json",
        {
            "scenario": "sdf-linear",
            "tau": 0.5,
            "T": 1.0,
            "L": 2.0,
            "mode": "exact",
            "seed": 0,
            "out": str(out),
        },
    )
    assert main(["run", "--config", cfg]) == EXIT_OK
    ens = json.loads((out / "ensemble.json").read_text())
    assert len(ens["paths"]) == 4  # the two-step binary tree
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert "config_hash" in manifest and "tolerances" in manifest
    rows = list(csv.reader((out / "ensemble.csv").read_text().splitlines()))
    assert rows[0] == ["path_id", "time", "x0", "weight"]
    assert len(rows) == 1 + 4 * 3


def test_run_determinism_byte_identical(tmp_path):
    base = {
        "scenario": "sdf-linear",
        "tau": 0.25,
        "T": 1.0,
        "L": 2.0,
        "mode": "monte-carlo",
        "M": 200,
        "seed": 42,
    }
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = _write_cfg(tmp_path, f"{tag}.json", {**base, "out": str(out)})
        assert main(["run", "--config", cfg]) == EXIT_OK
        outs.append(out)
    for name in ("ensemble.csv", "ensemble.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_sweep_artifacts_and_determinism(tmp_path):
    base = {
        "scenario": "sdf-linear",
        "taus": [0.25, 0.125, 0.0625, 0.03125],
        "steps": 5,
        "L": 3.0,
        "mode": "exact",
        "reference": {"dt": 0.001},
        "seed": 1,
    }
    tables = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = _write_cfg(tmp_path, f"{tag}.json", {**base, "out": str(out)})
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        rows = list(csv.reader((out / "sweep.csv").read_text().splitlines()))
        assert rows[0] == ["tau", "w2sup", "rate_running", "wall_ms"]
        # wall_ms varies between runs; everything else must be byte-identical
        tables.append([r[:3] for r in rows])
    assert tables[0] == tables[1]


def test_verify_passes_on_builtin(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "verify.json",
        {"scenario": "sdf-linear", "tau": 0.25, "T": 1.0, "L": 2.0, "out": str(out)},
    )
    assert main(["verify", "--config", cfg]) == EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"] is True
    assert report["checks"]["marginals"] and report["checks"]["joint_law"]


@pytest.mark.parametrize(
    "name,tau,T",
    [
        ("gradient-sum", 0.25, 1.0),
        ("nonlocal-cylinder", 0.25, 1.0),
        ("idf-attract", 0.25, 1.0),
        ("stochastic-idf", 0.5, 1.0),
    ],
)
def test_verify_other_scenarios(tmp_path, name, tau, T):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "verify.json",
        {"scenario": name, "tau": tau, "T": T, "L": 20.0, "out": str(out)},
    )
    assert main(["verify", "--config", cfg]) == EXIT_OK


def test_bounds_example_values(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "bounds.json",
        {
            "scenario": "sdf-linear",
            "bounds": {"R": 1.0, "a": 0.0, "T": 1.0, "rho_linear": 1.0},
            "out": str(out),
        },
    )
    assert main(["bounds", "--config", cfg]) == EXIT_OK
    report = json.loads((out / "bounds.json").read_text())["bounds"]
    assert np.isclose(report["R_prime"], np.sqrt(2.0) + 1.0)
    assert np.isclose(report["tau_bar"], (np.sqrt(2.0) + 1.0) ** -2)


def test_invalid_tau_exits_2(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "bad.json",
        {"scenario": "sdf-linear", "tau": 0.0, "T": 1.0, "out": str(tmp_path / "o")},
    )
    assert main(["run", "--config", cfg]) == EXIT_CONFIG


def test_unknown_scenario_exits_2(tmp_path):
    cfg = _write_cfg(
        tmp_path, "bad2.json", {"scenario": "no-such", "tau": 0.5, "T": 1.0}
    )
    assert main(["run", "--config", cfg]) == EXIT_CONFIG


def test_stability_violation_exits_3(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "stab.json",
        {
            "scenario": "sdf-linear",
            "tau": 0.5,
            "T": 1.0,
            "L": 0.5,
            "out": str(tmp_path / "o"),
        },
    )
    assert main(["run", "--config", cfg]) == EXIT_STABILITY


def test_resource_cap_exits_4(tmp_path):
    # interaction tree from five atoms: support squares every step
    cfg = _write_cfg(
        tmp_path,
        "cap.json",
        {
            "scenario": "idf-attract",
            "initial": {
                "atoms": [[-1.0], [0.0], [0.5], [1.0], [2.0]],
                "weights": [0.2, 0.2, 0.2, 0.2, 0.2],
            },
            "tau": 0.1,
            "T": 1.0,
            "L": 50.0,
            "caps": {"atoms": 20000},
            "out": str(tmp_path / "o"),
        },
    )
    assert main(["run", "--config", cfg]) == EXIT_RESOURCE


def test_custom_dsl_field_runs(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "custom.json",
        {
            "scenario": {
                "kind": "sampled",
                "g": "-x + u",
                "noise": {"labels": [1, -1], "weights": [0.5, 0.5]},
            },
            "dim": 1,
            "initial": {"atoms": [[0.0]], "weights": [1.0]},
            "tau": 0.5,
            "T": 1.0,
            "L": 2.0,
            "out": str(out),
        },
    )
    assert main(["run", "--config", cfg]) == EXIT_OK
    ens = json.loads((out / "ensemble.json").read_text())
    assert len(ens["paths"]) == 4


def test_auto_L_with_declared_growth_data(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "auto.json",
        {"scenario": "sdf-linear", "tau": 0.25, "T": 1.0, "L": "auto", "out": str(out)},
    )
    assert main(["run", "--config", cfg]) == EXIT_OK


def test_auto_L_refused_without_growth_data(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "auto_bad.json",
        {"scenario": "idf-attract", "tau": 0.25, "T": 1.0, "L": "auto"},
    )
    assert main(["run", "--config", cfg]) == EXIT_CONFIG


def test_seed_override(tmp_path):
    base = {
        "scenario": "sdf-linear",
        "tau": 0.25,
        "T": 0.5,
        "L": 2.0,
        "mode": "monte-carlo",
        "M": 50,
        "seed": 1,
    }
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = _write_cfg(tmp_path, "a.json", {**base, "out": str(out_a)})
    cfg_b = _write_cfg(tmp_path, "b.json", {**base, "out": str(out_b)})
    assert main(["run", "--config", cfg_a]) == EXIT_OK
    assert main(["run", "--config", cfg_b, "--seed", "2"]) == EXIT_OK
    assert (out_a / "ensemble.csv").read_bytes() != (out_b / "ensemble.csv").read_bytes()


@pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
def test_non_finite_velocity_exits_5(tmp_path, capsys, mode):
    cfg = _write_cfg(
        tmp_path,
        "blowup.json",
        {
            "scenario": {
                "kind": "sampled",
                "g": "exp(1000 * x) + u",
                "noise": {"labels": [0, 1], "weights": [0.5, 0.5]},
            },
            "dim": 1,
            "initial": {"atoms": [[1.0]], "weights": [1.0]},
            "tau": 0.1,
            "T": 1.0,
            "L": 10.0,
            "mode": mode,
            "M": 8,
            "out": str(tmp_path / "o"),
        },
    )
    with np.errstate(over="ignore"):
        assert main(["run", "--config", cfg]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err


def test_monte_carlo_position_overflow_exits_5(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        "overflow.json",
        {
            "scenario": {
                "kind": "sampled",
                "g": "1e308 + 0 * x + 0 * u",
                "noise": {"labels": [0], "weights": [1.0]},
            },
            "dim": 1,
            "initial": {"atoms": [[0.0]], "weights": [1.0]},
            "tau": 1.0,
            "T": 2.0,
            "L": 10.0,
            "mode": "monte-carlo",
            "M": 4,
            "out": str(tmp_path / "o"),
        },
    )
    assert main(["run", "--config", cfg]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "non-finite position at step 1" in err and "Traceback" not in err
