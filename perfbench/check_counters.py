"""Counter check: traced passes repeat their counts exactly.

    python3 perfbench/check_counters.py --workload NAME --seeds A B

Run it from the root of a checkout.  It makes two traced passes at seed A
and one at seed B.  Every count (a per-layer metric whose unit is not
seconds) must be equal in the two passes at A.  The size counts (tuples,
paths, particle steps and micro-steps) must also be equal at A and at B: the
seed changes the data but not the amount of work, so a claim checked on a
fresh seed compares like with like.  Exits 0 when both hold.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import workloads
from run import WORK_DIR, Run, traced_pass

SIZE_COUNTS = (".tuples", ".paths", ".particle_steps", ".micro_steps")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    parser.add_argument("--seeds", type=int, nargs=2, required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    names = [
        m["name"]
        for m in bench["per_layer"]
        if m["unit"] != "s" and not m["name"].startswith("transport.optimal_coupling.")
    ]
    work = root / WORK_DIR / f"{args.workload}-counters"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    counts = []
    for i, seed in enumerate([args.seeds[0], args.seeds[0], args.seeds[1]]):
        config = work / f"config{i}.json"
        config.write_text(json.dumps(workloads.config(args.workload, seed)))
        values, problem = traced_pass(Run(root, work), args.workload, config, names)
        if values is None or problem is not None:
            print(f"traced pass at seed {seed} failed: {problem}", file=sys.stderr)
            return 1
        counts.append({n: values[n] for n in names})

    ok = True
    a, b = args.seeds
    print(f"{'count':48s} {f'seed {a}':>12s} {f'seed {a}':>12s} {f'seed {b}':>12s}")
    for name in names:
        first, again, other = (c[name] for c in counts)
        bad = first != again or (name.endswith(SIZE_COUNTS) and first != other)
        ok = ok and not bad
        flag = "  MISMATCH" if bad else ""
        print(f"{name:48s} {first:12d} {again:12d} {other:12d}{flag}")
    print("counts repeat" if ok else "counts differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
