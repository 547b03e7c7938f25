"""One benchmark process: a fresh interpreter, as a CLI user starts one.

    python3 child.py ROOT LAUNCHED RESULT setup
    python3 child.py ROOT LAUNCHED RESULT pass COMMAND CONFIG OUT [SPANS]
    python3 child.py ROOT LAUNCHED RESULT probe SEED

ROOT is the checkout whose ``src/`` is imported.  LAUNCHED is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start plus ``import measureflow.cli``.  The measurements
go to RESULT as JSON.  ``pass`` runs one CLI command, traced when SPANS is
given; ``probe`` times ``optimal_coupling`` on three seeded shapes.
"""

import os
import sys
import time

ROOT, LAUNCHED, RESULT, MODE = sys.argv[1:5]
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import measureflow.cli  # noqa: E402

setup_s = time.monotonic() - float(LAUNCHED)

import json  # noqa: E402
import resource  # noqa: E402

if not os.path.abspath(measureflow.__file__).startswith(os.path.abspath(SRC) + os.sep):
    sys.exit(f"measureflow imported from {measureflow.__file__}, not from {SRC}")

result = {"setup_s": setup_s}

if MODE == "pass":
    command, config, out = sys.argv[5:8]
    spans = sys.argv[8] if len(sys.argv) > 8 else None
    if spans is not None:
        import tracer

        tr = tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    rc = measureflow.cli.main([command, "--config", config, "--out", out])
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        rc=rc,
        wall_s=wall,
        cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        peak_rss_mb=after.ru_maxrss / 1024.0,
    )
    if spans is not None:
        tr.write_spans(spans)
        result["tracer"] = {
            "self_s": dict(tr.self_s),
            "calls": dict(tr.calls),
            "counts": dict(tr.counts),
        }
elif MODE == "probe":
    import numpy as np

    from measureflow.measure import DiscreteMeasure
    from measureflow.transport import optimal_coupling

    rng = np.random.default_rng(int(sys.argv[5]))

    def measure(n, uniform):
        w = np.full(n, 1.0 / n) if uniform else rng.uniform(0.5, 1.5, size=n)
        return DiscreteMeasure(rng.normal(size=(n, 2)), w / w.sum())

    for shape, m, n, uniform in (
        ("128x128u", 128, 128, True),
        ("128x128", 128, 128, False),
        ("256x8", 256, 8, False),
    ):
        mu, nu = measure(m, uniform), measure(n, uniform)
        start = time.perf_counter()
        res = optimal_coupling(mu, nu)
        elapsed = time.perf_counter() - start
        result[shape] = {"s": elapsed, "method": res.method, "degenerate": res.degenerate}
elif MODE != "setup":
    sys.exit(f"unknown mode {MODE!r}")

with open(RESULT, "w") as fh:
    json.dump(result, fh)
