"""Batch front-end: config loading, experiment commands, report emission.

Commands: run | sweep | verify | bounds.  One self-contained JSON config per
invocation; --out and --seed override the config, and the output directory
is created before the command does any work.  Identical config and seed
produce byte-identical CSV/JSON artifacts except for ``wall_ms``, the only
timing field (a column of sweep.csv and a key of each sweep.json row);
manifests carry no timing.

Exit codes: 0 success, 1 verification failures, 2 config error or an output
directory that cannot be written, 3 stability violation, 4 resource cap
exceeded, 5 non-finite numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import convergence_sweep, ensemble_action, solvability_bounds, sweep_rate_fit
from .dsl import field_from_config
from .errors import InputError, NumericDomainError, ResourceCapError, StabilityError
from .euler import (
    DEFAULT_ATOM_CAP,
    DEFAULT_TUPLE_CAP,
    _JOINT_LAW_ATOM_TOL,
    _MARGINAL_ATOM_TOL,
    _STAB_SLACK,
    build_path_ensemble,
    run_explicit_euler,
    sample_paths_monte_carlo,
    verify_joint_law,
    verify_marginals,
)
from .fields import (
    InteractionField,
    barycenter_field,
    check_growth,
    check_one_sided_lipschitz,
    check_pair_dissipativity,
)
from .limit import StickyFlowConfig, sticky_flow, sticky_property_check
from .measure import DiscreteMeasure, WEIGHT_TOL, velocity_moment
from .scenarios import Scenario, scenario

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_RESOURCE = 4
EXIT_NUMERIC = 5

# exit code and stderr prefix of each error the commands report; the first match wins
_EXITS = {
    InputError: (EXIT_CONFIG, "config error"),
    StabilityError: (EXIT_STABILITY, "stability violation"),
    ResourceCapError: (EXIT_RESOURCE, "resource cap"),
    NumericDomainError: (EXIT_NUMERIC, "non-finite numbers"),
    OSError: (EXIT_CONFIG, "cannot write artifacts"),
}

_TOLERANCES = {
    "weight_tol": WEIGHT_TOL,
    "marginal_atom_tol": _MARGINAL_ATOM_TOL,
    "joint_law_atom_tol": _JOINT_LAW_ATOM_TOL,
    "stability_slack": _STAB_SLACK,
}


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except Exception:
        pass
    return "unknown"


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _load_config(path: str, overrides: argparse.Namespace) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    if cfg.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise InputError(f"unsupported schema_version {cfg.get('schema_version')}")
    cfg.setdefault("schema_version", SCHEMA_VERSION)
    if overrides.seed is not None:
        cfg["seed"] = overrides.seed
    if overrides.out is not None:
        cfg["out"] = overrides.out
    return cfg


def _resolve_scenario(cfg: dict) -> tuple[object, DiscreteMeasure, Scenario | None]:
    sc = cfg.get("scenario")
    if sc is None:
        raise InputError("config needs a 'scenario' (name or inline field table)")
    if isinstance(sc, str):
        meta = scenario(sc)
        spec, dim = meta.spec, meta.dim
    elif isinstance(sc, dict):
        dim = _number(cfg.get("dim"), "dim", integer=True, positive=True)
        try:
            spec = field_from_config(sc, dim)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad custom field: {exc}") from exc
        meta = None
    else:
        raise InputError("'scenario' must be a name or an object")
    init = cfg.get("initial")
    if init is None:
        if meta is None:
            raise InputError("custom fields need an explicit 'initial' measure")
        mu0 = meta.default_initial
    else:
        try:
            mu0 = DiscreteMeasure(
                np.asarray(init["atoms"], dtype=float),
                np.asarray(init["weights"], dtype=float),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad initial measure: {exc}") from exc
        if mu0.dim != dim:
            raise InputError(f"initial measure dim {mu0.dim} != field dim {dim}")
    return spec, mu0, meta


def _resolve_L(cfg: dict, meta: Scenario | None, T: float) -> float:
    """The config's L; ``"auto"`` is the solvability bound on the horizon ``T``."""
    L = cfg.get("L", 10.0)
    if L == "auto":
        if meta is None or not meta.has_bounds_data:
            raise InputError(
                "'auto' L needs a scenario with declared growth constants a and rho_R"
            )
        R = _number(_table(cfg, "bounds").get("R", 1.0), "bounds.R")
        return solvability_bounds(R, meta.growth_a, T, meta.rho).L
    return _number(L, "L", positive=True)


def _number(value, name: str, *, integer: bool = False, positive: bool = False):
    """A config value as a finite float, or as an int >= 0 when ``integer``.

    ``None`` (a missing key without default), booleans, strings, non-finite
    and fractional values (for integers) are refused with InputError.
    """
    if value is None:
        raise InputError(f"config needs '{name}'")
    bad = (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not math.isfinite(value))
        or (integer and (value < 0 or value != int(value)))
        or (positive and value <= 0)
    )
    if bad:
        sign = "positive" if positive else "nonnegative" if integer else "finite"
        raise InputError(f"'{name}' must be a {sign} {'integer' if integer else 'number'}")
    return int(value) if integer else float(value)


def _table(cfg: dict, key: str) -> dict:
    table = cfg.get(key, {})
    if not isinstance(table, dict):
        raise InputError(f"'{key}' must be an object")
    return table


def _caps(cfg: dict) -> tuple[int, int]:
    caps = _table(cfg, "caps")
    return (
        _number(caps.get("atoms", DEFAULT_ATOM_CAP), "caps.atoms", integer=True),
        _number(caps.get("tuples", DEFAULT_TUPLE_CAP), "caps.tuples", integer=True),
    )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", newline="\n")


def _write_report(out: Path, name: str, cfg: dict, extra: dict) -> None:
    """Writes ``out/name``: the config and its provenance, plus the command's ``extra``."""
    _write_json(
        out / name,
        {
            "schema_version": SCHEMA_VERSION,
            "config_hash": _config_hash(cfg),
            "config": cfg,
            "tolerances": _TOLERANCES,
            "version": __version__,
            "git_describe": _git_describe(),
            **extra,
        },
    )


def cmd_run(cfg: dict, out: Path) -> int:
    spec, mu0, meta = _resolve_scenario(cfg)
    tau = _number(cfg.get("tau"), "tau", positive=True)
    T = _number(cfg.get("T"), "T", positive=True)
    L = _resolve_L(cfg, meta, T)
    atom_cap, tuple_cap = _caps(cfg)
    mode = cfg.get("mode", "exact")
    seed = _number(cfg.get("seed", 0), "seed", integer=True)
    if mode == "exact":
        run = run_explicit_euler(spec, mu0, tau, T, L, atom_cap)
        ensemble = build_path_ensemble(run, tuple_cap)
        _write_json(out / "measures.json", run.to_json_dict())
    elif mode == "monte-carlo":
        M = _number(cfg.get("M", 1000), "M", integer=True)
        ensemble = sample_paths_monte_carlo(spec, mu0, tau, T, M, seed)
    else:
        raise InputError(f"unknown mode {mode!r}")
    with open(out / "ensemble.json", "wb") as json_out, open(out / "ensemble.csv", "wb") as csv_out:
        ensemble.write_artifacts(json_out, csv_out)
    _write_report(out, "manifest.json", cfg, {"command": "run", "n_paths": ensemble.n_paths})
    print(f"run: {ensemble.n_paths} paths written to {out}")
    return EXIT_OK


def cmd_sweep(cfg: dict, out: Path) -> int:
    spec, mu0, meta = _resolve_scenario(cfg)
    taus = cfg.get("taus")
    if not isinstance(taus, list) or len(taus) < 2:
        raise InputError("sweep needs 'taus': a decreasing list of step sizes")
    taus = [_number(t, "taus", positive=True) for t in taus]
    steps = cfg.get("steps")
    if steps is None:
        horizon = _number(cfg.get("T"), "T", positive=True)
    else:
        steps = _number(steps, "steps", integer=True, positive=True)
        horizon = steps * max(taus)
    L = _resolve_L(cfg, meta, horizon)
    caps = _caps(cfg)
    mode = cfg.get("mode", "exact")
    if mode not in ("exact", "monte-carlo"):
        raise InputError(f"unknown sweep mode {mode!r}")
    M = _number(cfg.get("M", 1000), "M", integer=True)
    seed = _number(cfg.get("seed", 0), "seed", integer=True)
    dt = _number(_table(cfg, "reference").get("dt", 1e-4), "reference.dt", positive=True)
    result = convergence_sweep(
        spec,
        mu0,
        taus,
        sticky_flow(spec, mu0, horizon, StickyFlowConfig(dt=dt)).ensemble,
        mode=mode,
        L=L,
        steps=steps,
        sample_count=M,
        seed=seed,
        caps=caps,
    )
    lines = ["tau,w2sup,rate_running,wall_ms"]
    for k, (tau, err, ms) in enumerate(result.rows):
        fit = sweep_rate_fit(result.rows[: k + 1])
        running = "" if fit is None else repr(fit[0])
        lines.append(f"{tau!r},{err!r},{running},{ms!r}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", newline="\n")
    _write_json(out / "sweep.json", result.to_json_dict())
    _write_report(
        out, "manifest.json", cfg, {"command": "sweep", "fitted_rate": result.fitted_rate}
    )
    rate = "n/a" if result.fitted_rate is None else f"{result.fitted_rate:.3f}"
    print(f"sweep: {len(result.rows)} rows, fitted rate {rate}, artifacts in {out}")
    return EXIT_OK


def cmd_verify(cfg: dict, out: Path) -> int:
    spec, mu0, meta = _resolve_scenario(cfg)
    tau = _number(cfg.get("tau", 0.25), "tau", positive=True)
    T = _number(cfg.get("T", 1.0), "T", positive=True)
    L = _resolve_L(cfg, meta, T)
    atom_cap, tuple_cap = _caps(cfg)
    run = run_explicit_euler(spec, mu0, tau, T, L, atom_cap)
    ensemble = build_path_ensemble(run, tuple_cap)
    checks: dict[str, bool] = {}

    grid = [n * tau for n in range(run.n_steps)] + [T]
    mids = [min((n + 0.5) * tau, T) for n in range(min(3, run.n_steps))]
    checks["marginals"] = verify_marginals(ensemble, run, grid + mids).passed
    checks["joint_law"] = all(
        verify_joint_law(ensemble, run, n).passed for n in range(run.n_steps)
    )
    L_obs = max(velocity_moment(phi) for phi in run.sections)
    checks["action_bound"] = ensemble_action(ensemble, 2.0) <= L_obs**2 * (T + tau) + 1e-12

    flow = sticky_flow(spec, mu0, T, StickyFlowConfig(dt=min(tau / 20.0, 1e-3)))
    checks["sticky_properties"] = sticky_property_check(flow.ensemble, mu0).passed

    rng = np.random.default_rng(_number(cfg.get("seed", 0), "seed", integer=True))
    if meta is not None and meta.lambda_diss is not None:
        report = check_one_sided_lipschitz(
            lambda x: barycenter_field(spec, x, mu0),
            rng.normal(size=(64, 2, mu0.dim)),
            meta.lambda_diss,
        )
        checks["one_sided_lipschitz"] = report.passed
    if isinstance(spec, InteractionField):
        checks["pair_dissipativity"] = check_pair_dissipativity(
            spec.f, rng.normal(size=(64, 2, 2, mu0.dim)), meta.lambda_diss if meta else 0.0
        ).passed
    if meta is not None and meta.growth_a is not None:
        mus = [mu0] + [
            DiscreteMeasure(rng.normal(size=(3, mu0.dim)), np.full(3, 1 / 3))
            for _ in range(8)
        ]
        checks["growth"] = check_growth(spec, mus, meta.growth_a).passed

    passed = all(checks.values())
    _write_report(
        out, "verify_report.json", cfg, {"command": "verify", "checks": checks, "passed": passed}
    )
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return EXIT_OK if passed else EXIT_FAIL


def cmd_bounds(cfg: dict, out: Path) -> int:
    _, _, meta = _resolve_scenario(cfg)
    bounds_cfg = _table(cfg, "bounds")
    R = _number(bounds_cfg.get("R", 1.0), "bounds.R")
    a = bounds_cfg.get("a")
    T = _number(bounds_cfg.get("T", _number(cfg.get("T", 1.0), "T")), "bounds.T")
    tau = bounds_cfg.get("tau")
    tau = None if tau is None else _number(tau, "bounds.tau")
    rho_linear = bounds_cfg.get("rho_linear")
    if rho_linear is not None:
        slope = _number(rho_linear, "bounds.rho_linear")
        rho = lambda r: slope * r  # noqa: E731
        a = _number(a if a is not None else 0.0, "bounds.a")
    elif meta is not None and meta.has_bounds_data:
        rho = meta.rho
        a = meta.growth_a if a is None else _number(a, "bounds.a")
    else:
        raise InputError(
            "bounds needs a scenario with declared growth data or an explicit rho_linear"
        )
    report = solvability_bounds(R, a, T, rho, tau)
    _write_report(out, "bounds.json", cfg, {"command": "bounds", "bounds": report.to_json_dict()})
    print(
        f"bounds: R' = {report.R_prime:.6g}, L = {report.L:.6g}, "
        f"tau_bar = {report.tau_bar:.6g}, final radius {report.radii[-1]:.6g}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="measureflow",
        description="Stochastic Euler schemes on discrete measures: run, sweep, verify, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "verify", "bounds"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    # looked up at call time, so a rebinding of cli.cmd_run and the like takes effect
    handler = {"run": cmd_run, "sweep": cmd_sweep, "verify": cmd_verify, "bounds": cmd_bounds}
    try:
        cfg = _load_config(args.config, args)
        out = cfg.get("out", "out")
        if not isinstance(out, str):
            raise InputError(f"'out' must be a directory path string; got {out!r}")
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        return handler[args.command](cfg, out)
    except tuple(_EXITS) as exc:
        code, prefix = next(row for kind, row in _EXITS.items() if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
