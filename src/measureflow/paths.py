"""Piecewise-affine paths on a time grid and weighted path ensembles."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .measure import DiscreteMeasure, coalesce, _freeze

HORIZON_TOL = 1e-12


@dataclass(frozen=True)
class PiecewisePath:
    """A continuous path on [0, T], affine between strictly increasing grid times."""

    grid: np.ndarray  # (K+1,)
    nodes: np.ndarray  # (K+1, d)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float).ravel()
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim == 1:
            nodes = nodes[:, None]
        if grid.shape[0] != nodes.shape[0] or grid.shape[0] < 1:
            raise InputError("grid and nodes must have matching nonzero length")
        if grid.shape[0] > 1 and np.any(np.diff(grid) <= 0):
            raise InputError("grid times must be strictly increasing")
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(nodes)):
            raise InputError("grid and nodes must be finite")
        object.__setattr__(self, "grid", _freeze(grid))
        object.__setattr__(self, "nodes", _freeze(nodes))

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def __call__(self, t) -> np.ndarray:
        """Evaluate the path at time(s) ``t`` (clamped to the grid range)."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((ts.shape[0], self.dim))
        for k in range(self.dim):
            out[:, k] = np.interp(ts, self.grid, self.nodes[:, k])
        return out[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else out

    def slopes(self) -> np.ndarray:
        """Per-segment velocity vectors, shape (K, d)."""
        if self.grid.shape[0] < 2:
            return np.zeros((0, self.dim))
        dt = np.diff(self.grid)[:, None]
        return np.diff(self.nodes, axis=0) / dt

    def restricted(self, T: float) -> "PiecewisePath":
        """The path restricted to [0, T], T within the horizon."""
        if T > self.horizon + HORIZON_TOL:
            raise InputError(f"cannot restrict to T={T} beyond horizon {self.horizon}")
        if abs(T - self.horizon) <= HORIZON_TOL:
            return self
        keep = self.grid < T - HORIZON_TOL
        grid = np.concatenate([self.grid[keep], [T]])
        nodes = np.vstack([self.nodes[keep], self(T)[None, :]])
        return PiecewisePath(grid, nodes)

    def to_json_dict(self) -> dict:
        return {"grid": self.grid.tolist(), "nodes": self.nodes.tolist()}


def _interp_nodes(grid: np.ndarray, nodes: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Paths sharing ``grid``, nodes ``(n, K+1, d)``, at sorted times ``ts``: ``(len(ts), d, n)``.

    Uses np.interp's own arithmetic -- the node value at or outside a grid
    node, else ``slope * (t - g[j]) + f[j]`` -- so every value matches
    :meth:`PiecewisePath.__call__` bitwise.  Time leads and paths come last,
    so each gather copies one contiguous row and the arithmetic runs along
    the paths.
    """
    last = grid.shape[0] - 1
    j = np.searchsorted(grid, ts, side="right") - 1
    if last == 0:
        return np.repeat(nodes.transpose(1, 2, 0), ts.shape[0], axis=0)
    seg = np.clip(j, 0, last - 1)
    lo, hi = seg[0], seg[-1] + 2  # ts is sorted: only these nodes are read
    local = np.ascontiguousarray(nodes[:, lo:hi].transpose(1, 2, 0))  # (hi - lo, d, n)
    out = np.take(local, np.clip(j, 0, last) - lo, axis=0)
    between = (j >= 0) & (j < last) & (grid[seg] != ts)
    slope = np.diff(local, axis=0) / np.diff(grid[lo:hi])[:, None, None]
    value = np.take(slope, seg - lo, axis=0)
    value *= (ts - grid[seg])[:, None, None]
    value += np.take(local, seg - lo, axis=0)
    np.copyto(out, value, where=between[:, None, None])
    return out


def constant_path(x, T: float) -> PiecewisePath:
    """The path identically equal to ``x`` on [0, T]."""
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if T <= 0:
        raise InputError("horizon must be positive")
    return PiecewisePath(np.array([0.0, T]), np.stack([pt, pt]))


@dataclass(frozen=True)
class Provenance:
    """Where an ensemble came from: exact-tree | monte-carlo | limit-flow."""

    kind: str
    seed: int | None = None
    sample_count: int | None = None

    def __post_init__(self):
        if self.kind not in ("exact-tree", "monte-carlo", "limit-flow"):
            raise InputError(f"unknown provenance kind {self.kind!r}")


@dataclass(frozen=True)
class PathEnsemble:
    """A weighted finite set of piecewise-affine paths on a common horizon."""

    paths: tuple
    weights: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        paths = tuple(self.paths)
        if len(paths) < 1:
            raise InputError("an ensemble needs at least one path")
        weights = np.asarray(self.weights, dtype=float).ravel()
        if weights.shape[0] != len(paths):
            raise InputError("paths and weights must have equal length")
        if np.any(weights <= 0) or abs(float(weights.sum()) - 1.0) > 1e-12:
            raise InputError("weights must be positive and sum to 1 within 1e-12")
        T = paths[0].horizon
        d = paths[0].dim
        for p in paths:
            if abs(p.horizon - T) > HORIZON_TOL:
                raise InputError("all paths must share the ensemble horizon")
            if p.dim != d:
                raise InputError("all paths must share the ambient dimension")
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "weights", _freeze(weights))

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def horizon(self) -> float:
        return self.paths[0].horizon

    @property
    def dim(self) -> int:
        return self.paths[0].dim

    @cached_property
    def _grid(self) -> np.ndarray | None:
        g = self.paths[0].grid
        for p in self.paths[1:]:
            if p.grid.shape != g.shape or not np.array_equal(p.grid, g):
                return None
        return g

    @cached_property
    def _nodes(self) -> np.ndarray | None:
        """All nodes as one (n, K+1, d) array when the paths share a grid, else None."""
        if self._grid is None:
            return None
        return _freeze(np.stack([p.nodes for p in self.paths]))

    def evaluate(self, t) -> DiscreteMeasure:
        """Push-forward under the evaluation map e_t, exact duplicates merged."""
        if not -HORIZON_TOL <= t <= self.horizon + HORIZON_TOL:
            raise InputError(f"time {t} outside [0, {self.horizon}]")
        t = float(t)
        if self._nodes is None:
            atoms = np.stack([p(t) for p in self.paths])
        else:
            atoms = _interp_nodes(self._grid, self._nodes, np.array([t]))[0].T
        return coalesce(DiscreteMeasure(atoms, self.weights), 0.0)

    def restricted(self, T: float) -> "PathEnsemble":
        """The ensemble with every path restricted to [0, T]."""
        return PathEnsemble(
            tuple(p.restricted(T) for p in self.paths), self.weights, self.provenance
        )

    def common_grid(self) -> np.ndarray | None:
        """The shared grid if all paths use identical grids, else None."""
        return self._grid

    def _provenance_dict(self) -> dict:
        return {
            "kind": self.provenance.kind,
            "seed": self.provenance.seed,
            "sample_count": self.provenance.sample_count,
        }

    def to_json_dict(self) -> dict:
        return {
            "provenance": self._provenance_dict(),
            "weights": self.weights.tolist(),
            "paths": [p.to_json_dict() for p in self.paths],
        }

    def to_csv(self) -> str:
        """One row per (path id, time, coordinates..., weight)."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["path_id", "time", *[f"x{k}" for k in range(self.dim)], "weight"]
        )
        for i, (p, w) in enumerate(zip(self.paths, self.weights)):
            for t, node in zip(p.grid, p.nodes):
                writer.writerow([i, repr(float(t)), *[repr(float(c)) for c in node], repr(float(w))])
        return buf.getvalue()

    def _node_blocks(self):
        """(first path id, grid, nodes ``(b, K+1, d)``) for consecutive paths on one grid."""
        if self._nodes is None:
            for i, p in enumerate(self.paths):
                yield i, p.grid, p.nodes[None]
        else:
            for start in range(0, self.n_paths, _WRITE_BLOCK):
                yield start, self._grid, self._nodes[start : start + _WRITE_BLOCK]

    def write_artifacts(self, json_out, csv_out) -> None:
        """Write the ensemble's JSON to ``json_out`` and its CSV to ``csv_out``, streamed.

        The bytes equal ``json.dumps(self.to_json_dict(), sort_keys=True,
        indent=1) + "\\n"`` and ``self.to_csv()``.  Paths are written in blocks
        of ``_WRITE_BLOCK``, so neither text is held whole.  Every float is
        rendered once, by ``repr`` as both encoders render it, into both
        files; a common grid is rendered once for all paths.
        """
        d = self.dim
        weights = list(map(repr, self.weights.tolist()))
        csv_out.write(",".join(["path_id", "time", *[f"x{k}" for k in range(d)], "weight"]) + "\n")
        json_out.write('{\n "paths": [\n')
        grid = None
        for start, block_grid, nodes in self._node_blocks():
            if block_grid is not grid:
                grid = block_grid
                json_t, csv_t = _path_templates(list(map(repr, grid.tolist())), d)
            size = nodes[0].size
            flat = list(map(repr, nodes.ravel().tolist()))
            coords = [flat[k : k + size] for k in range(0, len(flat), size)]
            json_out.write((",\n" if start else "") + ",\n".join(json_t.format(*c) for c in coords))
            csv_out.write(
                "".join(
                    csv_t.format(str(start + b), weights[start + b], *c)
                    for b, c in enumerate(coords)
                )
            )
        provenance = json.dumps(self._provenance_dict(), sort_keys=True, indent=1)
        json_out.write(
            '\n ],\n "provenance": ' + provenance.replace("\n", "\n ") + ',\n "weights": [\n'
        )
        json_out.write(",\n".join("  " + w for w in weights) + "\n ]\n}\n")


_WRITE_BLOCK = 256  # paths rendered per write in PathEnsemble.write_artifacts


def _path_templates(grid: list, d: int) -> tuple[str, str]:
    """Format strings for one path on ``grid`` (rendered times) in R^d.

    The first renders the path's object in ``ensemble.json`` from its node
    coordinates in order; the second renders its rows in ``ensemble.csv``
    from the path id (field 0), the weight (field 1) and the coordinates.
    """
    node = "    [\n" + ",\n".join(["     {}"] * d) + "\n    ]"
    json_t = (
        '  {{\n   "grid": [\n'
        + ",\n".join("    " + t for t in grid)
        + '\n   ],\n   "nodes": [\n'
        + ",\n".join([node] * len(grid))
        + "\n   ]\n  }}"
    )
    csv_t = "".join(
        "{0}," + t + "".join(f",{{{2 + k * d + c}}}" for c in range(d)) + ",{1}\n"
        for k, t in enumerate(grid)
    )
    return json_t, csv_t


def ensemble_from_json(s: str) -> PathEnsemble:
    d = json.loads(s)
    prov = d["provenance"]
    return PathEnsemble(
        tuple(
            PiecewisePath(np.asarray(p["grid"]), np.asarray(p["nodes"]))
            for p in d["paths"]
        ),
        np.asarray(d["weights"], dtype=float),
        Provenance(prov["kind"], prov.get("seed"), prov.get("sample_count")),
    )
