"""Batch front-end: config loading, experiment commands, report emission.

Commands: run | sweep | verify | bounds.  One self-contained JSON config per
invocation; --out and --seed override the config.  Identical config and seed
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
from .analysis import convergence_sweep, ensemble_action, rate_fit, solvability_bounds
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
from .scenarios import Scenario, scenario, scenario_names

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_RESOURCE = 4
EXIT_NUMERIC = 5

_TOLERANCES = {
    "weight_tol": WEIGHT_TOL,
    "marginal_atom_tol": _MARGINAL_ATOM_TOL,
    "joint_law_atom_tol": _JOINT_LAW_ATOM_TOL,
    "stability_slack": _STAB_SLACK,
}


class ConfigError(Exception):
    pass


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
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {cfg.get('schema_version')}")
    cfg.setdefault("schema_version", SCHEMA_VERSION)
    if overrides.seed is not None:
        cfg["seed"] = overrides.seed
    if overrides.out is not None:
        cfg["out"] = overrides.out
    return cfg


def _resolve_scenario(cfg: dict) -> tuple[object, DiscreteMeasure, Scenario | None]:
    sc = cfg.get("scenario")
    if sc is None:
        raise ConfigError("config needs a 'scenario' (name or inline field table)")
    if isinstance(sc, str):
        if sc not in scenario_names():
            raise ConfigError(
                f"unknown scenario {sc!r}; available: {', '.join(scenario_names())}"
            )
        built = scenario(sc)
        spec = built.spec
        dim = built.dim
        meta = built
    elif isinstance(sc, dict):
        dim = _number(cfg.get("dim"), "dim", integer=True, positive=True)
        try:
            spec = field_from_config(sc, dim)
        except (InputError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad custom field: {exc}") from exc
        meta = None
    else:
        raise ConfigError("'scenario' must be a name or an object")
    init = cfg.get("initial")
    if init is None:
        if meta is None:
            raise ConfigError("custom fields need an explicit 'initial' measure")
        mu0 = meta.default_initial
    else:
        try:
            mu0 = DiscreteMeasure(
                np.asarray(init["atoms"], dtype=float),
                np.asarray(init["weights"], dtype=float),
            )
        except (InputError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad initial measure: {exc}") from exc
        if mu0.dim != dim:
            raise ConfigError(f"initial measure dim {mu0.dim} != field dim {dim}")
    return spec, mu0, meta


def _resolve_L(cfg: dict, meta: Scenario | None) -> float:
    L = cfg.get("L", 10.0)
    if L == "auto":
        if meta is None or not meta.has_bounds_data:
            raise ConfigError(
                "'auto' L needs a scenario with declared growth constants a and rho_R"
            )
        R = _number(_table(cfg, "bounds").get("R", 1.0), "bounds.R")
        T = _number(cfg.get("T", 1.0), "T")
        report = solvability_bounds(R, meta.growth_a, T, meta.rho)
        return report.L
    return _number(L, "L", positive=True)


def _number(value, name: str, *, integer: bool = False, positive: bool = False):
    """A config value as a finite float, or as an int >= 0 when ``integer``.

    ``None`` (a missing key without default), booleans, strings, non-finite
    and fractional values (for integers) are refused with ConfigError.
    """
    if value is None:
        raise ConfigError(f"config needs '{name}'")
    bad = (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not math.isfinite(value))
        or (integer and (value < 0 or value != int(value)))
        or (positive and value <= 0)
    )
    if bad:
        sign = "positive" if positive else "nonnegative" if integer else "finite"
        raise ConfigError(f"'{name}' must be a {sign} {'integer' if integer else 'number'}")
    return int(value) if integer else float(value)


def _table(cfg: dict, key: str) -> dict:
    table = cfg.get(key, {})
    if not isinstance(table, dict):
        raise ConfigError(f"'{key}' must be an object")
    return table


def _caps(cfg: dict) -> tuple[int, int]:
    caps = _table(cfg, "caps")
    return (
        _number(caps.get("atoms", DEFAULT_ATOM_CAP), "caps.atoms", integer=True),
        _number(caps.get("tuples", DEFAULT_TUPLE_CAP), "caps.tuples", integer=True),
    )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", newline="\n")


def _manifest(cfg: dict, extra: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config_hash": _config_hash(cfg),
        "config": cfg,
        "tolerances": _TOLERANCES,
        "version": __version__,
        "git_describe": _git_describe(),
        **extra,
    }


def cmd_run(cfg: dict) -> int:
    spec, mu0, meta = _resolve_scenario(cfg)
    tau = _number(cfg.get("tau"), "tau", positive=True)
    T = _number(cfg.get("T"), "T", positive=True)
    L = _resolve_L(cfg, meta)
    atom_cap, tuple_cap = _caps(cfg)
    mode = cfg.get("mode", "exact")
    out = Path(cfg.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    seed = _number(cfg.get("seed", 0), "seed", integer=True)
    if mode == "exact":
        run = run_explicit_euler(spec, mu0, tau, T, L, atom_cap)
        ensemble = build_path_ensemble(run, tuple_cap)
        _write_json(out / "measures.json", run.to_json_dict())
    elif mode == "monte-carlo":
        M = _number(cfg.get("M", 1000), "M", integer=True)
        ensemble = sample_paths_monte_carlo(spec, mu0, tau, T, M, seed)
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    with open(out / "ensemble.json", "wb") as json_out, open(out / "ensemble.csv", "wb") as csv_out:
        ensemble.write_artifacts(json_out, csv_out)
    _write_json(
        out / "manifest.json",
        _manifest(cfg, {"command": "run", "n_paths": ensemble.n_paths}),
    )
    print(f"run: {ensemble.n_paths} paths written to {out}")
    return EXIT_OK


def _sticky_reference(spec, mu0, horizon: float, cfg: dict):
    dt = _number(_table(cfg, "reference").get("dt", 1e-4), "reference.dt", positive=True)
    flow = sticky_flow(spec, mu0, horizon, StickyFlowConfig(dt=dt))
    return flow.ensemble


def cmd_sweep(cfg: dict) -> int:
    spec, mu0, meta = _resolve_scenario(cfg)
    taus = cfg.get("taus")
    if not isinstance(taus, list) or len(taus) < 2:
        raise ConfigError("sweep needs 'taus': a decreasing list of step sizes")
    taus = [_number(t, "taus", positive=True) for t in taus]
    steps = cfg.get("steps")
    if steps is None:
        horizon = _number(cfg.get("T"), "T", positive=True)
    else:
        steps = _number(steps, "steps", integer=True, positive=True)
        horizon = steps * max(taus)
    L = _resolve_L(cfg, meta)
    _, tuple_cap = _caps(cfg)
    mode = cfg.get("mode", "exact")
    seed = _number(cfg.get("seed", 0), "seed", integer=True)
    reference = _sticky_reference(spec, mu0, horizon, cfg)
    result = convergence_sweep(
        spec,
        mu0,
        taus,
        reference,
        mode=mode,
        L=L,
        steps=steps,
        sample_count=_number(cfg.get("M", 1000), "M", integer=True),
        seed=seed,
        tuple_cap=tuple_cap,
    )
    out = Path(cfg.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    lines = ["tau,w2sup,rate_running,wall_ms"]
    for k in range(len(result.rows)):
        tau, err, ms = result.rows[k]
        # every prefix row has err > 0, so three rows always fit
        prefix = [(t, e) for t, e, _ in result.rows[: k + 1] if e > 1e-12]
        running = repr(rate_fit(prefix, min_rows=3)[0]) if len(prefix) >= 3 else ""
        lines.append(f"{tau!r},{err!r},{running},{ms!r}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", newline="\n")
    _write_json(out / "sweep.json", result.to_json_dict())
    _write_json(
        out / "manifest.json",
        _manifest(cfg, {"command": "sweep", "fitted_rate": result.fitted_rate}),
    )
    rate = "n/a" if result.fitted_rate is None else f"{result.fitted_rate:.3f}"
    print(f"sweep: {len(result.rows)} rows, fitted rate {rate}, artifacts in {out}")
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    spec, mu0, meta = _resolve_scenario(cfg)
    tau = _number(cfg.get("tau", 0.25), "tau", positive=True)
    T = _number(cfg.get("T", 1.0), "T", positive=True)
    L = _resolve_L(cfg, meta)
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

    out = Path(cfg.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    passed = all(checks.values())
    _write_json(
        out / "verify_report.json",
        _manifest(cfg, {"command": "verify", "checks": checks, "passed": passed}),
    )
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return EXIT_OK if passed else EXIT_FAIL


def cmd_bounds(cfg: dict) -> int:
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
        raise ConfigError(
            "bounds needs a scenario with declared growth data or an explicit rho_linear"
        )
    report = solvability_bounds(R, a, T, rho, tau)
    out = Path(cfg.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "bounds.json",
        _manifest(cfg, {"command": "bounds", "bounds": report.to_json_dict()}),
    )
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
    try:
        cfg = _load_config(args.config, args)
        handler = {
            "run": cmd_run,
            "sweep": cmd_sweep,
            "verify": cmd_verify,
            "bounds": cmd_bounds,
        }[args.command]
        return handler(cfg)
    except (ConfigError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityError as exc:
        print(f"stability violation: {exc}", file=sys.stderr)
        return EXIT_STABILITY
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except NumericDomainError as exc:
        print(f"non-finite numbers: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
