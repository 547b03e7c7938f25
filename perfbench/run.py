"""Benchmark of the measureflow CLI: end-to-end passes and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the checkout's ``src/``.  The
workloads are in ``workloads.py`` and ``README.md`` says why each was chosen.

One pass is one CLI command in a fresh interpreter (``child.py``), one client
in a closed loop.  The run makes passes for S seconds, and at least
``MIN_PASSES``, and reports the median of each end-to-end metric.  Before each
pass it starts ``SETUP_PER_PASS`` interpreters that only import the CLI and
reports their median as ``setup_s``.  Spread over the run like the passes,
they keep one slow moment of the host from setting it.  With ``--trace 1`` the
S seconds start with one traced pass and a timing of ``optimal_coupling`` on
three shapes, and the run reports the per-layer metrics instead.  Every
pass's outputs are checked; ``attempted`` and ``failed`` count passes.

The last line of standard output is the result as JSON.  The line before it
is the run record: machine, versions, code identity and the per-pass values.
The record, the config and the traced spans stay in ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

CHILD = Path(__file__).resolve().parent / "child.py"
WORK_DIR = ".perfbench_run"
SETUP_PER_PASS = 2
MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # every child is stopped before a run reaches this age


class Run:
    """One benchmark run in ``root``: spawns children and keeps their results."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.started = time.monotonic()
        self.spawned = 0

    def spawn(self, mode: str, *args) -> tuple[dict | None, str]:
        """Run ``child.py`` in a fresh interpreter; (result, "") or (None, why)."""
        self.spawned += 1
        result_path = self.work / f"child{self.spawned}.json"
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        if timeout <= 0:
            return None, "run time limit reached"
        launched = time.monotonic()
        argv = [sys.executable, str(CHILD), str(self.root), repr(launched), str(result_path)]
        try:
            proc = subprocess.run(
                argv + [mode, *map(str, args)],
                cwd=self.root,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, f"{mode} process killed after {timeout:.0f} s"
        if proc.returncode != 0 or not result_path.is_file():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return None, f"{mode} process exited {proc.returncode}: {tail[0]}"
        result = json.loads(result_path.read_text())
        result_path.unlink()
        return result, ""

    def cli_pass(self, workload: str, config: Path, spans: Path | None = None):
        """One checked CLI pass; (measurements or None, problem or None)."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        extra = [spans] if spans is not None else []
        res, why = self.spawn("pass", workloads.COMMANDS[workload], config, out, *extra)
        if res is None:
            return None, why
        problem = workloads.check(workload, res["rc"], out)
        res["artifact_bytes"] = artifact_bytes(out)
        shutil.rmtree(out, ignore_errors=True)
        return res, problem


def artifact_bytes(out: Path) -> int:
    """Bytes of the files a pass wrote, without the wall-time field's digits.

    ``wall_ms`` is the only field the determinism contract lets vary between
    runs; it is written to both sweep.json and sweep.csv.
    """
    if not out.is_dir():
        return 0
    total = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    sweep = out / "sweep.json"
    if sweep.is_file():
        walls = [row["wall_ms"] for row in json.loads(sweep.read_text())["rows"]]
        total -= 2 * sum(len(json.dumps(ms)) for ms in walls)
    return total


def machine_record(root: Path) -> dict:
    src = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown: not a git checkout"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown: git failed"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "absent"
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        **versions,
    }


def traced_pass(run: Run, workload: str, config: Path, names: list[str]):
    """One traced pass: (value of each per-layer metric in ``names``, problem).

    Layers the workload does not reach read 0, as do the metrics that the
    pass does not measure (the transport probe and the tracing overhead).
    """
    res, problem = run.cli_pass(workload, config, run.work / "spans.json")
    if res is None:
        return None, problem
    tracer = res["tracer"]
    values = {"cli.artifact_bytes": res["artifact_bytes"], "trace.wall_s": res["wall_s"]}
    for name in names:
        if name in values:
            continue
        if name.endswith(".calls"):
            values[name] = tracer["calls"].get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = tracer["self_s"].get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = tracer["counts"].get(name, 0)
    return values, problem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "measureflow" / "cli.py").is_file():
        print("perfbench: run from the root of a measureflow checkout", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    work = root / WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(workloads.config(args.workload, args.seed), indent=1))
    run = Run(root, work)

    outcomes: list[str | None] = []  # per pass: None, or why it failed
    problems: list[str] = []
    # The first import after a checkout compiles bytecode; users pay that once.
    run.spawn("setup")
    window_start = time.monotonic()
    layers = probe = None
    if args.trace:
        layers, problem = traced_pass(run, args.workload, config, [m["name"] for m in wanted])
        outcomes.append(problem)
        if layers is None:
            print(f"perfbench: traced pass failed: {problem}", file=sys.stderr)
            return 1
        probe, why = run.spawn("probe", args.seed)
        if probe is None:
            print(f"perfbench: transport probe failed: {why}", file=sys.stderr)
            return 1
        probe.pop("setup_s")

    # Untraced passes fill the rest of the window; a trace run needs only one,
    # to measure the tracing overhead against.
    min_passes = 1 if args.trace else MIN_PASSES
    setup: list[float] = []
    passes: list[dict] = []
    durations: list[float] = []
    while True:
        elapsed = time.monotonic() - window_start
        if len(durations) >= min_passes and elapsed + statistics.mean(durations) > args.seconds:
            break
        if time.monotonic() - run.started > RUN_LIMIT_S / 2:
            break
        started = time.monotonic()
        for _ in range(SETUP_PER_PASS):
            res, why = run.spawn("setup")
            if res is None:
                problems.append(why)
            else:
                setup.append(res["setup_s"])
        res, problem = run.cli_pass(args.workload, config)
        durations.append(time.monotonic() - started)
        outcomes.append(problem)
        if res is not None:
            passes.append(res)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    record.update(machine_record(root))
    record.update(
        passes=len(durations),
        pass_wall_s=[p["wall_s"] for p in passes],
        pass_cpu_s=[p["cpu_s"] for p in passes],
        pass_peak_rss_mb=[p["peak_rss_mb"] for p in passes],
        setup_samples_s=setup,
    )
    if not passes or not setup:
        print(f"perfbench: no pass completed: {problems}", file=sys.stderr)
        return 1
    wall = statistics.median(record["pass_wall_s"])
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(record["pass_cpu_s"]),
        "peak_rss_mb": statistics.median(record["pass_peak_rss_mb"]),
        "setup_s": statistics.median(setup),
    }
    if args.trace:
        for shape, p in probe.items():
            prefix = f"transport.optimal_coupling.{shape}"
            layers[f"{prefix}.s"] = p["s"]
            layers[f"{prefix}.degenerate"] = int(bool(p["degenerate"]))
            layers[f"{prefix}.method_flow"] = int(p["method"] == "flow")
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        record["probe"] = probe
        values = layers

    failed = sum(o is not None for o in outcomes)
    record["problems"] = problems + [o for o in outcomes if o is not None]
    (work / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
