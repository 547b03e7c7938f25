"""Per-layer tracing of one CLI pass, installed from outside the package.

``install`` replaces the package's public functions with wrappers wherever a
module binds them.  Modules import functions by name, so ``euler.coalesce``
and ``measure.coalesce`` are separate bindings of one function, and each must
be replaced.  Each call records a span (id, name, start, end, parent id) in
memory.  A span's self time is its duration minus the time its child spans
cover.

The per-point field closures run hundreds of thousands of times, so they get
a call count and a total time instead of a span each.  Their time counts as
covered by the enclosing span.  To reach them, the specs that ``scenario`` and
``field_from_config`` return are rebuilt around wrapped callables.

Metric names are ``<layer>.<function>.<field>``: ``calls`` and ``self_s``
come from the spans, any other field is a size counter.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0

    def span(self, fn, name, sizes=None):
        """Wrap ``fn`` so that each call records a span named ``name``.

        ``name`` may be a function of (args, kwargs); ``sizes`` adds counters
        from (counts, name, result, args, kwargs).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((span_id, label, start, end, parent))
                self.self_s[label] += end - start - frame[1]
                self.calls[label] += 1
                if self._stack:
                    self._stack[-1][1] += end - start
            if sizes is not None:
                sizes(self.counts, label, result, args, kwargs)
            return result

        return wrapper

    def callback(self, fn, name):
        """Wrap a per-point field closure: a count and a total time, no span."""

        def wrapper(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - start
                self.self_s[name] += elapsed
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += elapsed

        return wrapper

    def wrap_spec(self, spec, name):
        """The same field spec with every closure it holds wrapped."""
        changes = {}
        for attr in ("g", "f", "h"):
            if hasattr(spec, attr):
                changes[attr] = self.callback(getattr(spec, attr), name)
        if hasattr(spec, "gradients"):
            changes["gradients"] = tuple(self.callback(g, name) for g in spec.gradients)
        return dataclasses.replace(spec, **changes)

    def write_spans(self, path) -> None:
        rows = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, n, s, e, p in sorted(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _coalesce_name(args, kwargs):
    tol = _arg(args, kwargs, 1, "tol", 0.0)
    return "measure.coalesce_tol" if tol > 0 else "measure.coalesce_exact"


def _coalesce_sizes(counts, label, result, args, kwargs):
    rows_in = int(args[0].weights.shape[0])
    counts[label + ".rows_in"] += rows_in
    counts[label + ".merges"] += rows_in - int(result.weights.shape[0])


def _size(field, of):
    def sizes(counts, label, result, args, kwargs):
        counts[f"{label}.{field}"] += of(result, args, kwargs)

    return sizes


def _sticky_sizes(counts, label, result, args, kwargs):
    counts[label + ".micro_steps"] += len(result.ensemble.paths[0].grid) - 1
    counts[label + ".merges"] += len(result.merge_events)


def install() -> Tracer:
    """Wrap the public functions in every imported ``measureflow`` module."""
    from measureflow import analysis, cli, dsl, euler, fields, limit, measure, paths
    from measureflow import scenarios, transport

    tr = Tracer()
    plan = {
        measure.coalesce: (_coalesce_name, _coalesce_sizes),
        measure.exp_push: ("measure.exp_push", None),
        euler.run_explicit_euler: (
            "euler.run_explicit_euler",
            _size("atoms", lambda r, a, k: sum(m.n_atoms for m in r.measures)),
        ),
        euler.multi_step_plan: (
            "euler.multi_step_plan",
            _size("tuples", lambda r, a, k: r.n_atoms),
        ),
        euler.build_path_ensemble: (
            "euler.build_path_ensemble",
            _size("paths", lambda r, a, k: r.n_paths),
        ),
        euler.verify_marginals: (
            "euler.verify_marginals",
            _size("times", lambda r, a, k: len(_arg(a, k, 2, "times", ()))),
        ),
        euler.verify_joint_law: ("euler.verify_joint_law", None),
        euler.sample_paths_monte_carlo: (
            "euler.sample_paths_monte_carlo",
            _size("particle_steps", lambda r, a, k: r.n_paths * (len(r.paths[0].grid) - 1)),
        ),
        fields.evaluate_pvf: (
            "fields.evaluate_pvf",
            _size("atoms_out", lambda r, a, k: r.n_atoms),
        ),
        fields.barycenter_field: ("fields.barycenter_field", None),
        fields.check_one_sided_lipschitz: ("fields.certifiers", None),
        fields.check_pair_dissipativity: ("fields.certifiers", None),
        fields.check_total_dissipativity: ("fields.certifiers", None),
        fields.check_growth: ("fields.certifiers", None),
        transport.wasserstein2_sup: (
            "transport.wasserstein2_sup",
            _size("pairs", lambda r, a, k: a[0].n_paths * a[1].n_paths),
        ),
        transport.path_sup_distance: ("transport.path_sup_distance", None),
        limit.sticky_flow: ("limit.sticky_flow", _sticky_sizes),
        limit.sticky_property_check: ("limit.sticky_property_check", None),
        analysis.convergence_sweep: (
            "analysis.convergence_sweep",
            _size("rows", lambda r, a, k: len(r.rows)),
        ),
        analysis.ensemble_action: ("analysis.ensemble_action", None),
        cli.cmd_run: ("cli.command", None),
        cli.cmd_sweep: ("cli.command", None),
        cli.cmd_verify: ("cli.command", None),
    }
    wrappers = {fn: tr.span(fn, name, sizes) for fn, (name, sizes) in plan.items()}

    field_from_config = tr.span(dsl.field_from_config, "dsl.field_from_config")
    build_scenario = scenarios.scenario

    def traced_field_from_config(cfg, dim):
        return tr.wrap_spec(field_from_config(cfg, dim), "dsl.callback")

    def traced_scenario(name):
        sc = build_scenario(name)
        return dataclasses.replace(sc, spec=tr.wrap_spec(sc.spec, "scenarios.callback"))

    wrappers[dsl.field_from_config] = traced_field_from_config
    wrappers[scenarios.scenario] = traced_scenario

    for modname, module in list(sys.modules.items()):
        if module is None or modname.split(".")[0] != "measureflow":
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])

    ens = paths.PathEnsemble
    ens.evaluate = tr.span(ens.evaluate, "paths.evaluate")
    ens.restricted = tr.span(ens.restricted, "paths.restricted")
    ens.to_json_dict = tr.span(ens.to_json_dict, "paths.to_json_dict")
    ens.to_csv = tr.span(
        ens.to_csv, "paths.to_csv", _size("bytes", lambda r, a, k: len(r.encode()))
    )
    post_init = paths.PiecewisePath.__post_init__

    def counted_post_init(self):
        tr.counts["paths.path_objects"] += 1
        post_init(self)

    paths.PiecewisePath.__post_init__ = counted_post_init
    return tr
