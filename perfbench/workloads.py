"""The benchmark's workloads: seeded CLI configs and the checks on their outputs.

Each workload is one ``measureflow`` CLI command.  ``config`` turns a workload
seed into the JSON config the program sees; ``check`` decides from the exit
code and the artifacts whether a pass produced a correct result.  No check
pins output bytes or floats, so a change that legitimately alters numerics is
not reported as a failure.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

COMMANDS = {"tree-verify": "verify", "tree-sweep": "sweep", "mc-run": "run"}

VERIFY_CHECKS = {
    "marginals",
    "joint_law",
    "action_bound",
    "sticky_properties",
    "one_sided_lipschitz",
    "growth",
}
SWEEP_TAUS = [2.0**-k for k in range(2, 7)]  # 1/4 ... 1/64
SWEEP_MIN_RATE = 0.25
MC_PARTICLES = 6000
MC_TAU = 1.0 / 32.0
MC_T = 1.0
MC_STEPS = 32
MC_MAX_SE = 5.0


def _measure(rng: random.Random, n: int, dim: int) -> dict:
    atoms = [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(n)]
    raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
    total = sum(raw)
    return {"atoms": atoms, "weights": [w / total for w in raw]}


def config(workload: str, seed: int) -> dict:
    """The CLI config of ``workload``; every numeric input comes from ``seed``."""
    rng = random.Random(seed)
    if workload == "tree-verify":
        # 10 steps of a two-label field: 4 * 2**10 = 4,096 exact paths.
        return {
            "scenario": "sdf-linear",
            "initial": _measure(rng, 4, 1),
            "tau": 1.0 / 16.0,
            "T": 0.625,
            "L": 4.0,
            "seed": seed,
        }
    if workload == "tree-sweep":
        # 4 steps of a three-label field: 3 * 3**4 = 243 exact paths per row,
        # against a 3-path sticky reference at the default dt = 1e-4.
        return {
            "scenario": "gradient-sum",
            "initial": _measure(rng, 3, 2),
            "taus": SWEEP_TAUS,
            "steps": 4,
            "L": 10.0,
            "mode": "exact",
            "seed": seed,
        }
    if workload == "mc-run":
        return {
            "scenario": {
                "kind": "stochastic-interaction",
                "h": "u * (y - x) - 0.5 * x",
                "noise": {"labels": [0.5, 1.5], "weights": [0.5, 0.5]},
            },
            "dim": 2,
            "initial": _measure(rng, 8, 2),
            "tau": MC_TAU,
            "T": MC_T,
            "mode": "monte-carlo",
            "M": MC_PARTICLES,
            "seed": seed,
        }
    raise ValueError(f"unknown workload {workload!r}")


def check(workload: str, rc: int, out: Path) -> str | None:
    """None when the pass is correct, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        if workload == "tree-verify":
            return _check_verify(out)
        if workload == "tree-sweep":
            return _check_sweep(out)
        return _check_mc(out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable artifacts: {exc!r}"


def _check_verify(out: Path) -> str | None:
    report = json.loads((out / "verify_report.json").read_text())
    checks = report["checks"]
    if set(checks) != VERIFY_CHECKS:
        return f"verify ran checks {sorted(checks)}"
    failed = sorted(name for name, ok in checks.items() if ok is not True)
    return f"verify checks failed: {failed}" if failed else None


def _check_sweep(out: Path) -> str | None:
    result = json.loads((out / "sweep.json").read_text())
    rows = result["rows"]
    if [r["tau"] for r in rows] != SWEEP_TAUS:
        return f"sweep rows cover taus {[r['tau'] for r in rows]}"
    errs = [r["w2sup"] for r in rows]
    if not all(isinstance(e, float) and math.isfinite(e) and e > 0 for e in errs):
        return f"w2sup not finite and positive: {errs}"
    if any(b >= a for a, b in zip(errs, errs[1:])):
        return f"w2sup not strictly decreasing as tau halves: {errs}"
    rate = result["fitted_rate"]
    if rate is None or not rate >= SWEEP_MIN_RATE:
        return f"fitted rate {rate} below {SWEEP_MIN_RATE}"
    return None


def _check_mc(out: Path) -> str | None:
    ens = json.loads((out / "ensemble.json").read_text())
    paths = ens["paths"]
    if len(paths) != MC_PARTICLES:
        return f"{len(paths)} paths, expected {MC_PARTICLES}"
    if any(len(p["grid"]) != MC_STEPS + 1 for p in paths):
        return f"a path does not have {MC_STEPS + 1} nodes"
    if any(w != 1.0 / MC_PARTICLES for w in ens["weights"]):
        return "weights are not all 1/M"
    # Partners are drawn uniformly from the current population and E[u] = 1,
    # so E[mean(x_T)] = (1 - tau/2)**32 * mean(x_0) exactly.
    decay = (1.0 - MC_TAU / 2.0) ** MC_STEPS
    for k in range(len(paths[0]["nodes"][0])):
        start = [p["nodes"][0][k] for p in paths]
        end = [p["nodes"][-1][k] for p in paths]
        mean_end = sum(end) / len(end)
        var_end = sum((v - mean_end) ** 2 for v in end) / (len(end) - 1)
        se = math.sqrt(var_end / len(end))
        dev = abs(mean_end - decay * sum(start) / len(start))
        if not dev <= MC_MAX_SE * se:
            return f"particle mean at T off by {dev / se:.2f} standard errors in x{k}"
    return None
