"""Batch front-end: config loading, experiment commands, report emission.

Commands: run | sweep | verify | bounds.  One self-contained JSON config per
invocation; --out and --seed override the config.  ``_KEYS`` lists the keys
each command reads, one per quantity; ``_settings`` checks the whole config
against it and settles every input before ``main`` makes the output
directory, so every config error exits 2 before any work, and reports the
keys the command does not read (``unread_keys``).  Identical config, seed and
package source (``source_sha256`` in each report) give byte-identical
CSV/JSON artifacts except for ``wall_ms``, the only timing field (a column of
sweep.csv and a key of each sweep.json row); manifests carry no timing.

Exit codes: 0 success, 1 verification failures, 2 config error or an output
directory that cannot be written, 3 stability violation, 4 resource cap
exceeded, 5 non-finite numbers.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import convergence_sweep, ensemble_action, solvability_bounds
from .analysis import sweep_rate_fit, velocity_bound
from .dsl import field_from_config, unread_keys
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
    Check,
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


def _source_sha256() -> str:
    """sha256 over the name, length and bytes of each of the package's ``*.py`` files, by name."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def _load_config(path: str, overrides: argparse.Namespace) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    cfg.setdefault("schema_version", SCHEMA_VERSION)
    cfg.update((k, v) for k, v in vars(overrides).items() if k in ("seed", "out") and v is not None)
    return cfg


_NEEDED = object()  # the default of a key that the command cannot do without

# the keys each command reads, name -> (kind, default); "caps.atoms" is key "atoms" of table "caps"
_SHARED = {
    "schema_version": ("schema", SCHEMA_VERSION),
    "out": ("path", Path("out")),
    "scenario": ("given", _NEEDED),
    "dim": ("positive count", None),
    "initial.atoms": ("given", None),
    "initial.weights": ("given", None),
}
_SCHEME = {  # run, sweep and verify
    **_SHARED,
    "L": ("positive or auto", 10.0),
    "bounds.R": ("positive", 1.0),
    "caps.atoms": ("count", DEFAULT_ATOM_CAP),
    "caps.tuples": ("count", DEFAULT_TUPLE_CAP),
    "seed": ("count", 0),
}
_SAMPLING = {"mode": ("mode", "exact"), "M": ("positive count", 1000)}  # run and sweep
_KEYS = {
    "run": {**_SCHEME, **_SAMPLING, "tau": ("positive", _NEEDED), "T": ("positive", _NEEDED)},
    "sweep": {
        **_SCHEME,
        **_SAMPLING,
        "taus": ("taus", _NEEDED),
        "steps": ("positive count", None),
        "T": ("positive", None),
        "reference.dt": ("positive", 1e-4),
    },
    "verify": {**_SCHEME, "tau": ("positive", 0.25), "T": ("positive", 1.0)},
    "bounds": {
        **_SHARED,
        "T": ("positive", 1.0),
        "bounds.R": ("positive", 1.0),
        "bounds.a": ("number", None),
        "bounds.tau": ("positive", None),
        "bounds.rho_linear": ("number", None),
    },
}
# the kinds that are not numbers: the test a value must pass, and what it asks for
_SHAPES = {
    "mode": (lambda v: v in ("exact", "monte-carlo"), "'exact' or 'monte-carlo'"),
    "path": (lambda v: isinstance(v, str), "a directory path string"),
    "schema": (lambda v: type(v) is int and v == SCHEMA_VERSION, f"the integer {SCHEMA_VERSION}"),
}


def _checked(kind: str, value, name: str):
    """The value of key ``name`` read as ``kind``, or InputError.

    Numbers refuse booleans, strings, NaN, infinities and values beyond the
    float range; counts also refuse fractions and negatives, and the positive
    kinds values <= 0.
    """
    if kind == "given":  # scenario and initial.*: _resolve_scenario checks them
        return value
    if kind == "taus":
        taus = [_checked("positive", t, name) for t in value] if isinstance(value, list) else []
        if len(taus) < 2 or any(b >= a for a, b in zip(taus, taus[1:])):
            raise InputError("'taus' must be a strictly decreasing list of two or more step sizes")
        return taus
    if kind in _SHAPES:
        ok, wanted = _SHAPES[kind]
        if not ok(value):
            raise InputError(f"'{name}' must be {wanted}; got {value!r}")
        return Path(value) if kind == "path" else value
    if kind == "positive or auto" and value == "auto":
        return value
    integer, positive = "count" in kind, "positive" in kind
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
        or (integer and (value < 0 or value != int(value)))
        or (positive and value <= 0)
    ):
        sign = "positive" if positive else "nonnegative" if integer else "finite"
        raise InputError(f"'{name}' must be a {sign} {'integer' if integer else 'number'}")
    return int(value) if integer else float(value)


def _settings(command: str, cfg: dict) -> dict:
    """``cfg`` checked whole against ``_KEYS[command]``, before any work.

    Every key of the table with its value or default (``L`` resolved, ``T``
    the horizon), the scenario's ``spec``, ``mu0`` and ``meta``, ``bounds``'
    ``report``, the ``config`` as given and ``unread_keys``, the keys the
    command does not read (with ``dim`` next to a built-in scenario and
    ``scenario.<key>`` inside an inline field).
    """
    keys = _KEYS[command]
    tables = {name.split(".")[0] for name in keys if "." in name}
    given = {}
    for key, value in cfg.items():
        if key in tables and not isinstance(value, dict):
            raise InputError(f"'{key}' must be an object")
        given.update({f"{key}.{k}": v for k, v in value.items()} if key in tables else {key: value})
    s = {"config": cfg}
    for name, (kind, default) in keys.items():
        if name not in given and default is _NEEDED:
            raise InputError(f"config needs '{name}'")
        s[name] = _checked(kind, given[name], name) if name in given else default
    s["spec"], s["mu0"], s["meta"] = _resolve_scenario(s)
    meta = s["meta"]
    unread = given.keys() - keys.keys()
    if meta is None:
        unread |= {f"scenario.{k}" for k in unread_keys(s["scenario"])}
    else:
        unread |= given.keys() & {"dim"}
    s["unread_keys"] = sorted(unread)
    if command == "sweep" and (s["steps"] is None) == (s["T"] is None):
        raise InputError("sweep needs either 'T' (a fixed horizon) or 'steps' (a fixed depth)")
    if s.get("steps") is not None:
        s["T"] = s["steps"] * max(s["taus"])
    growth = meta is not None and meta.has_bounds_data
    if s.get("L") == "auto":
        if not growth:
            raise InputError("'L': 'auto' needs a scenario with declared growth data")
        s["L"] = velocity_bound(s["bounds.R"], meta.growth_a, s["T"], meta.rho)[1]
    if command == "bounds":
        slope = s["bounds.rho_linear"]
        if slope is None and not growth:
            raise InputError("bounds needs 'bounds.rho_linear' or a scenario's growth data")
        rho, a = (meta.rho, meta.growth_a) if slope is None else ((lambda r: slope * r), 0.0)
        a = a if s["bounds.a"] is None else s["bounds.a"]
        s["report"] = solvability_bounds(s["bounds.R"], a, s["T"], rho, s["bounds.tau"])
    return s


def _resolve_scenario(s: dict) -> tuple[object, DiscreteMeasure, Scenario | None]:
    sc, dim, atoms, weights = s["scenario"], s["dim"], s["initial.atoms"], s["initial.weights"]
    if isinstance(sc, str):
        meta = scenario(sc)
        spec, dim = meta.spec, meta.dim
    elif isinstance(sc, dict):
        if dim is None:
            raise InputError("config needs 'dim' next to an inline field")
        try:
            spec = field_from_config(sc, dim)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad custom field: {exc}") from exc
        meta = None
    else:
        raise InputError("'scenario' must be a name or an object")
    if atoms is None and weights is None:
        if meta is None:
            raise InputError("custom fields need an explicit 'initial' measure")
        return spec, meta.default_initial, meta
    if atoms is None or weights is None:
        raise InputError("'initial' needs both 'atoms' and 'weights'")
    try:
        mu0 = DiscreteMeasure(atoms, weights)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad initial measure: {exc}") from exc
    if mu0.dim != dim:
        raise InputError(f"initial measure dim {mu0.dim} != field dim {dim}")
    return spec, mu0, meta


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", newline="\n")


def _write_report(s: dict, name: str, extra: dict) -> None:
    """Writes ``out/name``: the config, its provenance and unread keys, and ``extra``.

    The config is echoed and hashed without ``out``, so a report does not
    depend on where it is written.
    """
    config = {k: v for k, v in s["config"].items() if k != "out"}
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    unread = {"unread_keys": s["unread_keys"]} if s["unread_keys"] else {}
    _write_json(
        s["out"] / name,
        {
            "schema_version": SCHEMA_VERSION,
            "config_hash": hashlib.sha256(canonical).hexdigest(),
            "config": config,
            "tolerances": _TOLERANCES,
            "version": __version__,
            "source_sha256": _source_sha256(),
            **unread,
            **extra,
        },
    )


def cmd_run(s: dict) -> int:
    out = s["out"]
    if s["mode"] == "exact":
        run = run_explicit_euler(s["spec"], s["mu0"], s["tau"], s["T"], s["L"], s["caps.atoms"])
        ensemble = build_path_ensemble(run, s["caps.tuples"])
        _write_json(out / "measures.json", run.to_json_dict())
    else:
        ensemble = sample_paths_monte_carlo(s["spec"], s["mu0"], s["tau"], s["T"], s["M"], s["seed"])
    with open(out / "ensemble.json", "wb") as json_out, open(out / "ensemble.csv", "wb") as csv_out:
        ensemble.write_artifacts(json_out, csv_out)
    _write_report(s, "manifest.json", {"command": "run", "n_paths": ensemble.n_paths})
    print(f"run: {ensemble.n_paths} paths written to {out}")
    return EXIT_OK


def cmd_sweep(s: dict) -> int:
    spec, mu0, out, caps = s["spec"], s["mu0"], s["out"], (s["caps.atoms"], s["caps.tuples"])
    reference = sticky_flow(spec, mu0, s["T"], StickyFlowConfig(dt=s["reference.dt"])).ensemble
    per_row = dict(mode=s["mode"], L=s["L"], steps=s["steps"], sample_count=s["M"], seed=s["seed"])
    result = convergence_sweep(spec, mu0, s["taus"], reference, caps=caps, **per_row)
    lines = ["tau,w2sup,rate_running,wall_ms"]
    for k, (tau, err, ms) in enumerate(result.rows):
        fit = sweep_rate_fit(result.rows[: k + 1])
        running = "" if fit is None else repr(fit[0])
        lines.append(f"{tau!r},{err!r},{running},{ms!r}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", newline="\n")
    _write_json(out / "sweep.json", result.to_json_dict())
    _write_report(s, "manifest.json", {"command": "sweep", "fitted_rate": result.fitted_rate})
    rate = "n/a" if result.fitted_rate is None else f"{result.fitted_rate:.3f}"
    print(f"sweep: {len(result.rows)} rows, fitted rate {rate}, artifacts in {out}")
    return EXIT_OK


def _joint_law(ensemble, run) -> Check:
    """verify_joint_law at each step up to the first that fails: that one's Check, else the last."""
    for n in range(run.n_steps):
        check = verify_joint_law(ensemble, run, n)
        if not check.passed:
            break
    return check


def _action_bound(ensemble, run) -> Check:
    """The ensemble's action against L_obs^2 (T + tau), L_obs the largest velocity moment."""
    L_obs = max(velocity_moment(phi) for phi in run.sections)
    action, bound = ensemble_action(ensemble, 2.0), L_obs**2 * (run.T + run.tau)
    return Check(action <= bound + 1e-12, "action against L_obs^2 (T + tau)", action, bound)


def cmd_verify(s: dict) -> int:
    spec, mu0, meta, tau, T = s["spec"], s["mu0"], s["meta"], s["tau"], s["T"]
    run = run_explicit_euler(spec, mu0, tau, T, s["L"], s["caps.atoms"])
    ensemble, N = build_path_ensemble(run, s["caps.tuples"]), run.n_steps
    # made by the first row that samples: a first default_rng imports about 0.7 MiB of
    # modules, which would otherwise add to the peak memory of the rows before it
    rng = functools.cache(lambda: np.random.default_rng(s["seed"]))
    times = [n * tau for n in range(N)] + [T] + [min((n + 0.5) * tau, T) for n in range(min(3, N))]
    lam, a = (None, None) if meta is None else (meta.lambda_diss, meta.growth_a)
    # name -> (whether it runs on these settings, its Check), in report order.  The rows that
    # sample draw from rng() in this order.  Each row looks its certifiers up in this module as it
    # runs, so a rebinding of cli.verify_joint_law and the like reaches it.
    table = {
        "marginals": (True, lambda: verify_marginals(ensemble, run, times)),
        "joint_law": (True, lambda: _joint_law(ensemble, run)),
        "action_bound": (True, lambda: _action_bound(ensemble, run)),
        "sticky_properties": (True, lambda: sticky_property_check(
            sticky_flow(spec, mu0, T, StickyFlowConfig(dt=min(tau / 20.0, 1e-3))).ensemble, mu0
        )),
        "one_sided_lipschitz": (lam is not None, lambda: check_one_sided_lipschitz(
            lambda x: barycenter_field(spec, x, mu0), rng().normal(size=(64, 2, mu0.dim)), lam
        )),
        "pair_dissipativity": (isinstance(spec, InteractionField), lambda: check_pair_dissipativity(
            spec.f, rng().normal(size=(64, 2, 2, mu0.dim)), 0.0 if meta is None else lam
        )),
        "growth": (a is not None, lambda: check_growth(spec, [mu0] + [
            DiscreteMeasure(rng().normal(size=(3, mu0.dim)), np.full(3, 1 / 3)) for _ in range(8)
        ], a)),
    }
    checks = {name: check().passed for name, (runs, check) in table.items() if runs}
    passed = all(checks.values())
    extra = {"command": "verify", "checks": checks, "passed": passed}
    _write_report(s, "verify_report.json", extra)
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return EXIT_OK if passed else EXIT_FAIL


def cmd_bounds(s: dict) -> int:
    report = s["report"]
    _write_report(s, "bounds.json", {"command": "bounds", "bounds": report.to_json_dict()})
    print(
        f"bounds: R' = {report.R_prime:.6g}, L = {report.L:.6g}, tau_bar = {report.tau_bar:.6g}, "
        f"{report.steps} steps, final radius {report.final_radius:.6g}"
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
        s = _settings(args.command, _load_config(args.config, args))
        if s["unread_keys"]:
            unread = ", ".join(s["unread_keys"])
            print(f"warning: {args.command} does not read {unread}", file=sys.stderr)
        s["out"].mkdir(parents=True, exist_ok=True)
        return handler[args.command](s)
    except tuple(_EXITS) as exc:
        code, prefix = next(row for kind, row in _EXITS.items() if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
