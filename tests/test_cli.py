"""Command-line front end: artifacts, determinism, exit codes."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import measureflow
from measureflow.cli import (
    _KEYS,
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_STABILITY,
    main,
)
from measureflow.euler import verify_joint_law


def _write_cfg(tmp_path: Path, name: str, payload: dict) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _refuse_work(monkeypatch) -> None:
    """Makes every scheme, flow and sweep call of the CLI fail the test."""
    from measureflow import cli

    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the config was checked")

    names = ("run_explicit_euler", "sample_paths_monte_carlo", "sticky_flow", "convergence_sweep")
    for name in names:
        monkeypatch.setattr(cli, name, refuse)


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
    # provenance is the package source, not the state of a git checkout
    digest = hashlib.sha256()
    for path in sorted(Path(measureflow.__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    assert manifest["source_sha256"] == digest.hexdigest() and "git_describe" not in manifest
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
        "reference": {"dt": 0.001},
        "seed": 1,
    }
    # the exact tree, then the Monte-Carlo rows of analysis._sweep_row
    for mode in ({"mode": "exact"}, {"mode": "monte-carlo", "M": 50, "reference": {"dt": 0.01}}):
        tables = []
        for tag in ("a", "b"):
            out = tmp_path / mode["mode"] / tag
            cfg = _write_cfg(tmp_path, f"{tag}.json", {**base, **mode, "out": str(out)})
            assert main(["sweep", "--config", cfg]) == EXIT_OK
            rows = list(csv.reader((out / "sweep.csv").read_text().splitlines()))
            assert rows[0] == ["tau", "w2sup", "rate_running", "wall_ms"] and len(rows) == 5
            # wall_ms varies between runs; everything else must be byte-identical
            tables.append([r[:3] for r in rows])
        assert tables[0] == tables[1]


# the checks verify runs on every config, in stdout order; the rest depend on the scenario
_FIRST_CHECKS = ["marginals", "joint_law", "action_bound", "sticky_properties"]


def _printed_checks(capsys) -> list:
    """The check names of verify's PASS/FAIL lines, in stdout order."""
    return [line.split()[1] for line in capsys.readouterr().out.splitlines()]


def test_verify_passes_on_builtin(tmp_path, capsys):
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
    assert _printed_checks(capsys) == _FIRST_CHECKS + ["one_sided_lipschitz", "growth"]


_OTHER_SCENARIOS = [
    ("gradient-sum", 0.25, 1.0, ["one_sided_lipschitz", "growth"]),
    ("nonlocal-cylinder", 0.25, 1.0, ["growth"]),  # declares no lambda
    ("idf-attract", 0.25, 1.0, ["one_sided_lipschitz", "pair_dissipativity"]),
    # an interaction with noise is no InteractionField, so it gets no pair check
    ("stochastic-idf", 0.5, 1.0, ["one_sided_lipschitz"]),
]


@pytest.mark.parametrize(
    "name,tau,T,declared",
    _OTHER_SCENARIOS,
    ids=[f"{name}-{tau}-{T}" for name, tau, T, _ in _OTHER_SCENARIOS],
)
def test_verify_other_scenarios(tmp_path, capsys, name, tau, T, declared):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "verify.json",
        {"scenario": name, "tau": tau, "T": T, "L": 20.0, "out": str(out)},
    )
    assert main(["verify", "--config", cfg]) == EXIT_OK
    assert _printed_checks(capsys) == _FIRST_CHECKS + declared


def test_verify_fails_an_inline_interaction_at_lambda_0(tmp_path, capsys):
    # f = x - y pushes the two atoms apart: <f(x) - f(y), x - y> = 2 |x - y|^2 > 0, so the
    # pair check, run at lambda = 0 for an inline interaction field, fails
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "verify.json",
        {
            "scenario": {"kind": "interaction", "f": "x - y"},
            "dim": 1,
            "initial": {"atoms": [[-0.5], [0.5]], "weights": [0.5, 0.5]},
            "tau": 0.25,
            "T": 0.5,
            "L": 5.0,
            "out": str(out),
        },
    )
    assert main(["verify", "--config", cfg]) == EXIT_FAIL
    report = json.loads((out / "verify_report.json").read_text())
    assert report["checks"] == {**dict.fromkeys(_FIRST_CHECKS, True), "pair_dissipativity": False}
    assert report["passed"] is False
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL  pair_dissipativity"


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize(
    "field,atoms,weights,step",
    [
        # the label weights 1e-200 multiply to 1e-400 on the path that draws the light label twice
        ({"kind": "sampled", "g": "u", "noise": {"labels": [1, -1], "weights": [1e-200, 1.0]}},
         [[0.0]], [1.0], 1),
        # the pair of two light atoms has weight 1e-400 at the first step
        ({"kind": "interaction", "f": "y - x"}, [[0.0], [1.0]], [1e-200, 1.0], 0),
    ],
    ids=["sampled", "interaction"],
)
def test_an_underflowed_section_weight_exits_5_naming_the_step(
    tmp_path, capsys, command, field, atoms, weights, step
):
    cfg = _write_cfg(
        tmp_path,
        "underflow.json",
        {
            "scenario": field,
            "dim": 1,
            "initial": {"atoms": atoms, "weights": weights},
            "tau": 0.25,
            "T": 1.0,
            "L": 2.0,
            "out": str(tmp_path / "o"),
        },
    )
    assert main([command, "--config", cfg]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert f"a section weight underflows to 0 at step {step}" in err and "Traceback" not in err


def test_bounds_example_values(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "bounds.json",
        {
            "scenario": "sdf-linear",
            "T": 1.0,
            "bounds": {"R": 1.0, "a": 0.0, "rho_linear": 1.0},
            "out": str(out),
        },
    )
    assert main(["bounds", "--config", cfg]) == EXIT_OK
    report = json.loads((out / "bounds.json").read_text())["bounds"]
    assert np.isclose(report["R_prime"], np.sqrt(2.0) + 1.0)
    assert np.isclose(report["tau_bar"], (np.sqrt(2.0) + 1.0) ** -2)
    assert sorted(report) == ["L", "R_prime", "final_radius", "steps", "tau", "tau_bar"]


def test_bounds_at_a_long_horizon_writes_a_small_report(tmp_path):
    # 2,130,556 steps: the report carries the final radius, not every radius
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "bounds.json",
        {"scenario": "sdf-linear", "T": 1000.0, "bounds": {"R": 1.0, "a": 0.0, "rho_linear": 1.0}},
    )
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "bounds.json").stat().st_size < 1_000_000
    assert json.loads((out / "bounds.json").read_text())["bounds"]["steps"] == 2_130_555


_REPORTS = {  # command -> (config, the report it writes)
    "run": ({"scenario": "sdf-linear", "tau": 0.25, "T": 1.0, "L": 2.0}, "manifest.json"),
    "sweep": (
        {"scenario": "sdf-linear", "taus": [0.5, 0.25], "steps": 2, "L": 2.0},
        "manifest.json",
    ),
    "verify": ({"scenario": "sdf-linear", "tau": 0.25, "T": 1.0}, "verify_report.json"),
    "bounds": ({"scenario": "sdf-linear", "T": 1.0, "bounds": {"R": 1.0}}, "bounds.json"),
}


@pytest.mark.parametrize("command", sorted(_REPORTS))
def test_reports_do_not_depend_on_the_output_directory(tmp_path, command):
    payload, report = _REPORTS[command]
    short, long = tmp_path / "o1", tmp_path / "o22" / "x"
    cfg = _write_cfg(tmp_path, "cfg.json", {**payload, "out": str(short)})
    assert main([command, "--config", cfg]) == EXIT_OK
    assert main([command, "--config", cfg, "--out", str(long)]) == EXIT_OK
    assert (short / report).read_bytes() == (long / report).read_bytes()
    assert "out" not in json.loads((short / report).read_text())["config"]


def test_invalid_tau_exits_2(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "bad.json",
        {"scenario": "sdf-linear", "tau": 0.0, "T": 1.0, "out": str(tmp_path / "o")},
    )
    assert main(["run", "--config", cfg]) == EXIT_CONFIG


def test_unknown_scenario_exits_2(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "bad2.json",
        {"scenario": "no-such", "tau": 0.5, "T": 1.0, "out": str(tmp_path / "o")},
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


def test_resource_cap_exits_4(tmp_path, capsys):
    # interaction tree from five atoms: support squares every step
    atoms = {
        "scenario": "idf-attract",
        "initial": {
            "atoms": [[-1.0], [0.0], [0.5], [1.0], [2.0]],
            "weights": [0.2, 0.2, 0.2, 0.2, 0.2],
        },
        "L": 50.0,
        "caps": {"atoms": 20000},
    }
    # x + tau u with u = +-1 recombines: at most 11 atoms, but 2**n tuples
    tuples = {
        "scenario": {
            "kind": "sampled",
            "g": "u",
            "noise": {"labels": [1, -1], "weights": [0.5, 0.5]},
        },
        "dim": 1,
        "initial": {"atoms": [[0.0]], "weights": [1.0]},
        "L": 2.0,
        "caps": {"tuples": 100},
    }
    for payload, message in ((atoms, "atoms"), (tuples, "128 tuples at step 7 (cap 100)")):
        payload = {**payload, "tau": 0.1, "T": 1.0, "out": str(tmp_path / "o")}
        assert main(["run", "--config", _write_cfg(tmp_path, "cap.json", payload)]) == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert "resource cap" in err and message in err and "Traceback" not in err


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


def test_auto_L_with_declared_growth_data(tmp_path, monkeypatch):
    # "auto" is L = rho(R') of the bounds report, read off R' without the radii
    from measureflow import cli
    from measureflow.scenarios import scenario

    sc = scenario("sdf-linear")
    L = cli.solvability_bounds(1.0, sc.growth_a, 1.0, sc.rho).L

    def refuse(*args, **kwargs):
        raise AssertionError("run built the solvability radii")

    monkeypatch.setattr(cli, "solvability_bounds", refuse)
    base = {"scenario": "sdf-linear", "tau": 0.25, "T": 1.0}
    for tag, value in (("auto", "auto"), ("given", L)):
        cfg = _write_cfg(tmp_path, f"{tag}.json", {**base, "L": value, "out": str(tmp_path / tag)})
        assert main(["run", "--config", cfg]) == EXIT_OK
    measures = [(tmp_path / tag / "measures.json").read_bytes() for tag in ("auto", "given")]
    assert measures[0] == measures[1]


def test_auto_L_refused_without_growth_data(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "auto_bad.json",
        {
            "scenario": "idf-attract",
            "tau": 0.25,
            "T": 1.0,
            "L": "auto",
            "out": str(tmp_path / "o"),
        },
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


def test_run_ignores_a_coalesce_tol_key(tmp_path):
    # the scheme has no coalescing: the last measure has the 4 atoms the
    # paths end at, though a tolerance of 0.01 would merge them into 2
    out = tmp_path / "o"
    payload = {
        "scenario": "sdf-linear",
        "initial": {"atoms": [[0.0], [1e-4]], "weights": [0.5, 0.5]},
        "tau": 0.25,
        "T": 0.25,
        "L": 4.0,
        "coalesce_tol": 0.01,
        "out": str(out),
    }
    assert main(["run", "--config", _write_cfg(tmp_path, "c.json", payload)]) == EXIT_OK
    measures = json.loads((out / "measures.json").read_text())
    assert "coalesce_tol" not in measures
    last = sorted(x for [x] in measures["measures"][-1]["atoms"])
    ends = sorted(p["nodes"][-1][0] for p in json.loads((out / "ensemble.json").read_text())["paths"])
    assert last == ends and len(ends) == 4


@pytest.mark.parametrize("command", ["run", "sweep", "verify", "bounds"])
def test_an_out_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch, command):
    from measureflow import cli

    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the out directory was made")

    for name in ("run_explicit_euler", "sticky_flow", "convergence_sweep"):
        monkeypatch.setattr(cli, name, refuse)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    payload = {"scenario": "sdf-linear", "tau": 0.5, "T": 0.5, "L": 2.0, "taus": [0.5, 0.25]}
    cfg = _write_cfg(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--out", str(blocker)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot write artifacts" in err and str(blocker) in err and "Traceback" not in err


def test_a_non_string_out_is_a_config_error(tmp_path, capsys):
    payload = {"scenario": "sdf-linear", "tau": 0.5, "T": 0.5, "L": 2.0, "out": 5}
    assert main(["run", "--config", _write_cfg(tmp_path, "c.json", payload)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "'out'" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("mode", "bogus"), ("M", "x"), ("taus", [0.25, 0.5])])
def test_sweep_refuses_mode_and_M_before_the_reference_flow(
    tmp_path, capsys, monkeypatch, key, value
):
    from measureflow import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the reference flow ran before the config was checked")

    monkeypatch.setattr(cli, "sticky_flow", refuse)
    payload = {
        "scenario": "sdf-linear",
        "taus": [0.5, 0.25],
        "steps": 2,
        "L": 2.0,
        "out": str(tmp_path / "o"),
        key: value,
    }
    assert main(["sweep", "--config", _write_cfg(tmp_path, "c.json", payload)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_sweep_passes_the_atom_cap_on(tmp_path, capsys):
    # three atoms of a three-label field have 9 successors after one step
    payload = {
        "scenario": "gradient-sum",
        "initial": {"atoms": [[0.5, -0.5], [-0.5, 0.5], [0.0, 0.25]], "weights": [0.4, 0.3, 0.3]},
        "taus": [0.5, 0.25],
        "steps": 2,
        "L": 10.0,
        "reference": {"dt": 0.01},
        "caps": {"atoms": 5},
        "out": str(tmp_path / "o"),
    }
    assert main(["sweep", "--config", _write_cfg(tmp_path, "cap.json", payload)]) == EXIT_RESOURCE
    assert "Traceback" not in capsys.readouterr().err


def test_sweep_auto_L_covers_the_sweep_horizon(tmp_path, monkeypatch):
    from measureflow import cli
    from measureflow.analysis import solvability_bounds
    from measureflow.scenarios import scenario

    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs["L"])
        return sweep(*args, **kwargs)

    sweep = cli.convergence_sweep
    monkeypatch.setattr(cli, "convergence_sweep", recording)
    payload = {
        "scenario": "gradient-sum",
        "taus": [0.5, 0.25, 0.125],
        "steps": 4,
        "L": "auto",
        "reference": {"dt": 0.01},
        "out": str(tmp_path / "o"),
    }
    assert main(["sweep", "--config", _write_cfg(tmp_path, "auto.json", payload)]) == EXIT_OK
    sc = scenario("gradient-sum")
    assert seen == [solvability_bounds(1.0, sc.growth_a, 4 * 0.5, sc.rho).L]


@pytest.mark.parametrize(
    "taus", [[0.25, 0.125, 0.0625, 0.03125], [0.25, 0.2, 0.16, 0.128]], ids=["wide", "narrow"]
)
def test_last_running_rate_is_the_fitted_rate(tmp_path, taus):
    out = tmp_path / "o"
    payload = {
        "scenario": "sdf-linear",
        "taus": taus,
        "steps": 4,
        "L": 3.0,
        "reference": {"dt": 0.001},
        "out": str(out),
    }
    assert main(["sweep", "--config", _write_cfg(tmp_path, "s.json", payload)]) == EXIT_OK
    rate = json.loads((out / "sweep.json").read_text())["fitted_rate"]
    last = (out / "sweep.csv").read_text().splitlines()[-1].split(",")[2]
    assert last == ("" if rate is None else repr(rate))
    assert (rate is None) == (taus[0] / taus[-1] < 4.0)


@pytest.mark.parametrize("T, n_steps", [(0.25, 1), (0.9, 4)])
def test_verify_checks_the_joint_law_of_every_section(tmp_path, monkeypatch, T, n_steps):
    from measureflow import cli

    checked = []

    def recording(ensemble, run, n):
        checked.append(n)
        return verify_joint_law(ensemble, run, n)

    monkeypatch.setattr(cli, "verify_joint_law", recording)
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "verify.json",
        {"scenario": "sdf-linear", "tau": 0.25, "T": T, "L": 2.0, "out": str(out)},
    )
    assert main(["verify", "--config", cfg]) == EXIT_OK
    assert checked == list(range(n_steps))
    assert json.loads((out / "verify_report.json").read_text())["checks"]["joint_law"] is True


def test_signed_zero_end_points_run_and_verify(tmp_path):
    # x * u sends -0.0 to -0.0 and 0.0, and 0.25 to 0.0: tuples end at 0.0
    # while M^1 holds -0.0, the same atom
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "zeros.json",
        {
            "scenario": {
                "kind": "sampled",
                "g": "x * u",
                "noise": {"labels": [1.0, -4.0], "weights": [0.5, 0.5]},
            },
            "dim": 1,
            "initial": {"atoms": [[-0.0], [0.25]], "weights": [0.5, 0.5]},
            "tau": 0.25,
            "T": 0.5,
            "L": 4.0,
            "out": str(out),
        },
    )
    assert main(["run", "--config", cfg]) == EXIT_OK
    assert len(json.loads((out / "ensemble.json").read_text())["paths"]) == 4
    assert main(["verify", "--config", cfg]) == EXIT_OK
    checks = json.loads((out / "verify_report.json").read_text())["checks"]
    assert checks == dict.fromkeys(
        ["marginals", "joint_law", "action_bound", "sticky_properties"], True
    )


_NUMERIC_BASES = {
    "run": {
        "scenario": "sdf-linear",
        "tau": 0.5,
        "T": 1.0,
        "L": 2.0,
        "mode": "monte-carlo",
        "M": 8,
    },
    "sweep": {
        "scenario": "sdf-linear",
        "taus": [0.25, 0.125],
        "steps": 2,
        "L": 3.0,
        "reference": {"dt": 0.01},
    },
    "verify": {"scenario": "sdf-linear", "tau": 0.5, "T": 0.5, "L": 2.0},
    "bounds": {"scenario": "sdf-linear", "T": 1.0, "bounds": {"R": 1.0}},
}


def _with(cfg: dict, key: str, value) -> dict:
    cfg = json.loads(json.dumps(cfg))
    *tables, last = key.split(".")
    table = cfg
    for name in tables:
        table = table.setdefault(name, {})
    table[last] = value
    return cfg


@pytest.mark.parametrize("command", sorted(_NUMERIC_BASES))
def test_numeric_config_bases_run(tmp_path, command):
    cfg = _write_cfg(tmp_path, "ok.json", {**_NUMERIC_BASES[command], "out": str(tmp_path / "o")})
    assert main([command, "--config", cfg]) == EXIT_OK


# the kinds of _KEYS whose values are numbers; "positive or auto" also takes the text "auto"
_NUMERIC_KINDS = ("number", "positive", "count", "positive count", "positive or auto")
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _malformed(kind: str):
    """Values that a key of ``kind`` refuses, as JSON that json.loads reads back.

    Booleans, text, NaN, Infinity and integers beyond the float range for every
    numeric kind; fractions and negative values for counts; values <= 0 for the
    positive kinds.
    """
    values = (
        st.booleans()
        | st.text().filter(lambda t: t != "auto")
        | st.sampled_from([math.nan, math.inf, -math.inf])
        | st.integers(min_value=2**1024)
        | st.integers(max_value=-(2**1024))
    )
    if "count" in kind:
        values |= st.integers(max_value=-1) | _FINITE.filter(lambda x: x != int(x))
    if "positive" in kind:
        values |= st.integers(max_value=0) | _FINITE.filter(lambda x: x <= 0)
    return values


@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
@pytest.mark.parametrize("value", [True, "lots"])
@pytest.mark.parametrize(
    "command, key",
    [
        (command, key)
        for command in sorted(_KEYS)
        for key, (kind, _) in _KEYS[command].items()
        if kind in _NUMERIC_KINDS
    ],
)
def test_malformed_numeric_config_values_exit_2(
    tmp_path, capsys, monkeypatch, command, key, value, data
):
    # the fixed value, then one that hypothesis draws for the key's kind
    _refuse_work(monkeypatch)
    out = tmp_path / "o"
    for bad in (value, data.draw(_malformed(_KEYS[command][key][0]), label=key)):
        payload = _with({**_NUMERIC_BASES[command], "out": str(out)}, key, bad)
        assert main([command, "--config", _write_cfg(tmp_path, "bad.json", payload)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"'{key}' must be" in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("run", "out", 5),
        ("run", "schema_version", True),
        ("run", "schema_version", 1.0),
        ("run", "scenario", "no-such"),
        ("verify", "scenario", "no-such"),
        ("run", "caps", 3),
        ("bounds", "bounds", 3),
        ("run", "initial", [[0.0]]),
        ("run", "initial", {"atoms": [[0.0]]}),
        ("sweep", "T", 5.0),
        ("bounds", "bounds", {"R": 1.0, "tau": 5.0}),
        ("bounds", "bounds", {"R": 1.0, "a": -1.0}),
        ("bounds", "bounds", {"R": 1.0, "a": 1000.0}),  # R' = e^{aT} ... overflows
        ("run", ("L", "T"), ("auto", 2000.0)),  # so does the R' behind "auto"
    ],
)
def test_config_errors_exit_2_before_the_out_directory_and_any_work(
    tmp_path, capsys, monkeypatch, command, key, value
):
    _refuse_work(monkeypatch)
    out = tmp_path / "o"
    changes = dict(zip(key, value)) if isinstance(key, tuple) else {key: value}
    payload = {**_NUMERIC_BASES[command], "out": str(out), **changes}
    assert main([command, "--config", _write_cfg(tmp_path, "bad.json", payload)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


_CUSTOM = {
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
}


_UNREAD_BASE = {
    "scenario": "sdf-linear",
    "initial": {"atoms": [[0.0], [0.5]], "weights": [0.5, 0.5]},
    "T": 0.5,
    "L": 20.0,
}


@pytest.mark.parametrize(
    "base, stray",
    [
        pytest.param(_UNREAD_BASE, {"tua": 0.01}, id="tua-0.01"),
        pytest.param(_UNREAD_BASE, {"caps.atom": 3}, id="caps.atom-3"),
        pytest.param(_UNREAD_BASE, {"dim": 3}, id="dim-3"),
        pytest.param(_UNREAD_BASE, {"initial.weight": [2]}, id="initial.weight-value3"),
        pytest.param(
            {**_UNREAD_BASE, "scenario": _CUSTOM["scenario"], "dim": 1},
            {"scenario.gg": "x", "scenario.noise.w": 1},
            id="scenario.gg-scenario.noise.w",
        ),
    ],
)
def test_unread_keys_are_reported_and_warned(tmp_path, capsys, base, stray):
    # the command runs as it would without the keys, and its report names them
    typo = base
    for key, value in stray.items():
        typo = _with(typo, key, value)
    codes, reports, errs = [], [], []
    for tag, payload in (("clean", base), ("typo", typo)):
        out = tmp_path / tag
        cfg = _write_cfg(tmp_path, f"{tag}.json", {**payload, "out": str(out)})
        codes.append(main(["verify", "--config", cfg]))
        reports.append(json.loads((out / "verify_report.json").read_text()))
        errs.append(capsys.readouterr().err)
    assert codes == [EXIT_OK, EXIT_OK]
    assert "unread_keys" not in reports[0] and "warning" not in errs[0]
    assert reports[1]["unread_keys"] == sorted(stray)
    assert errs[1].count("warning:") == 1 and all(key in errs[1] for key in stray)


def test_nan_noise_weight_exits_2(tmp_path, capsys):
    payload = {**_CUSTOM, "mode": "monte-carlo", "M": 8, "out": str(tmp_path / "o")}
    cfg = _write_cfg(tmp_path, "bad.json", _with(payload, "scenario.noise.weights", [np.nan, 1.0]))
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [("dim", True), ("initial.atoms", [["a"]]), ("scenario.noise.labels", ["a", "b"])],
)
def test_malformed_field_and_initial_values_exit_2(tmp_path, capsys, key, value):
    payload = _with({**_CUSTOM, "out": str(tmp_path / "o")}, key, value)
    cfg = _write_cfg(tmp_path, "bad.json", payload)
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


def _child_env(**overrides) -> dict:
    """This environment with this checkout's ``src`` first on ``PYTHONPATH``.

    Each override sets a variable, or removes it when given None.
    """
    src = str(Path(measureflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for key, value in overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def _child_output(code: str, env: dict) -> str:
    """The stripped stdout of ``python -c code`` under ``env``."""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout.strip()


_IMPORT_GUARD = """
import json, sys
from measureflow.cli import main
out, verify, sweep = sys.argv[1:]
codes = [main(["verify", "--config", verify, "--out", out + "/v"]),
         main(["sweep", "--config", sweep, "--out", out + "/s"])]
absent = ("scipy", "numpy.ma", "subprocess")
print(json.dumps([codes, sorted(m for m in absent if m in sys.modules)]))
"""


def test_verify_and_sweep_import_neither_scipy_nor_numpy_ma(tmp_path):
    # import scipy.optimize alone costs about half a second and 49 MB at start-up;
    # no command starts a child process
    verify = _write_cfg(tmp_path, "verify.json", {"scenario": "sdf-linear", "tau": 0.5, "T": 1.0})
    sweep = _write_cfg(
        tmp_path,
        "sweep.json",
        {
            "scenario": "gradient-sum",
            "initial": {"atoms": [[0.5, -0.5], [-0.5, 0.5]], "weights": [0.5, 0.5]},
            "taus": [0.5, 0.25],
            "steps": 2,
            "L": 10.0,
            "reference": {"dt": 0.01},
        },
    )
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, str(tmp_path), verify, sweep],
        capture_output=True,
        text=True,
        env=_child_env(),
        check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == [[EXIT_OK, EXIT_OK], []]


def test_cli_import_loads_neither_the_renderer_nor_orjson():
    # only run renders an ensemble; the other commands' start-up must not pay for it
    code = (
        "import measureflow.cli, sys; "
        "print([m for m in ('orjson', 'measureflow._render') if m in sys.modules])"
    )
    assert _child_output(code, _child_env()) == "[]"


_THREADS = (
    "import os, measureflow.cli; "
    "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
)
_NEEDS_TASKS = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task to count threads"
)


@_NEEDS_TASKS
def test_cli_import_leaves_one_thread():
    # OpenBLAS would start a worker per further CPU, spinning through every command;
    # the variable stays set, so child processes inherit it
    assert _child_output(_THREADS, _child_env(OPENBLAS_NUM_THREADS=None)) == "1 1"


@_NEEDS_TASKS
def test_a_preset_openblas_thread_count_wins():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        pytest.skip("OpenBLAS starts no second thread on one CPU")
    assert _child_output(_THREADS, _child_env(OPENBLAS_NUM_THREADS="2")) == "2 2"


def test_a_process_that_loaded_numpy_first_keeps_its_environment():
    code = "import os, numpy, measureflow; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _child_output(code, _child_env(OPENBLAS_NUM_THREADS=None)) == "None"


def _without_wall_ms(path: Path) -> str:
    """The artifact's text with its ``wall_ms`` values, which vary by run, left out."""
    text = path.read_text()
    if path.suffix == ".csv":
        assert text.startswith("tau,w2sup,rate_running,wall_ms\n")
        return re.sub(r",[^,\n]*$", "", text, flags=re.M)
    return re.sub(r'"wall_ms": [^,\n]*', '"wall_ms"', text)


def test_blas_thread_count_never_reaches_the_artifacts(tmp_path):
    verify = _write_cfg(tmp_path, "verify.json", {"scenario": "sdf-linear", "tau": 0.25, "T": 1.0})
    sweep = _write_cfg(
        tmp_path,
        "sweep.json",
        {"scenario": "sdf-linear", "taus": [0.25, 0.125, 0.0625], "steps": 4, "L": 3.0},
    )
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        for command, cfg in (("verify", verify), ("sweep", sweep)):
            args = [command, "--config", cfg, "--out", str(out / command)]
            subprocess.run(
                [sys.executable, "-m", "measureflow.cli", *args],
                env=_child_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                check=True,
            )
        files = sorted(p for p in out.rglob("*") if p.is_file())
        artifacts.append({p.relative_to(out).as_posix(): _without_wall_ms(p) for p in files})
    assert sorted(artifacts[0]) == [
        "sweep/manifest.json",
        "sweep/sweep.csv",
        "sweep/sweep.json",
        "verify/verify_report.json",
    ]
    assert artifacts[0] == artifacts[1]
