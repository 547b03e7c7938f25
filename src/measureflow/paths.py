"""Piecewise-affine paths on a time grid and weighted path ensembles."""

from __future__ import annotations

import functools
import io
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .measure import DiscreteMeasure, _check_finite, _coordinates, _freeze, _set_atoms, coalesce

HORIZON_TOL = 1e-12


def _time_grid(grid, n_times: int) -> np.ndarray:
    """``grid`` as a frozen vector of ``n_times`` finite, strictly increasing times."""
    grid = np.asarray(grid, dtype=float)
    if grid.shape != (n_times,):
        raise InputError(f"the grid needs one time per node ({n_times},); got {grid.shape}")
    _check_finite(grid, "grid times")
    if np.any(np.diff(grid) <= 0):
        raise InputError("grid times must be strictly increasing")
    return _freeze(grid)


@dataclass(frozen=True)
class PiecewisePath:
    """A continuous path on [0, T], affine between strictly increasing grid times."""

    grid: np.ndarray  # (K+1,)
    nodes: np.ndarray  # (K+1, d)

    def __post_init__(self):
        nodes = _coordinates(self.nodes, "nodes")
        object.__setattr__(self, "grid", _time_grid(self.grid, nodes.shape[0]))
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


def _union_grid(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """The sorted times of both grids, each once as a number (``np.union1d``'s values).

    A sort and a ``!=`` mask: in numpy 2.4 ``np.union1d`` goes through
    ``np.unique``, which imports ``numpy.ma``.
    """
    ts = np.sort(np.concatenate([g1, g2]))
    return ts[np.concatenate([[True], ts[1:] != ts[:-1]])]


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
    """A weighted finite set of piecewise-affine paths on one time grid.

    The paths are held as one node array: ``nodes[i, k]`` is path i at
    ``grid[k]``.  Ensembles of separate :class:`PiecewisePath` objects come
    in through :meth:`from_paths`.
    """

    grid: np.ndarray  # (K+1,)
    nodes: np.ndarray  # (n, K+1, d)
    weights: np.ndarray  # (n,)
    provenance: Provenance

    def __post_init__(self):
        _set_atoms(self, "nodes", ndim=3, promote=False)
        object.__setattr__(self, "grid", _time_grid(self.grid, self.nodes.shape[1]))

    @classmethod
    def from_paths(cls, paths, weights, provenance: Provenance) -> "PathEnsemble":
        """The ensemble of ``paths`` (:class:`PiecewisePath` objects).

        Paths on one grid are stacked as they are.  Otherwise every path is
        evaluated on the union of their grids, which keeps each polyline
        up to rounding in its refined nodes.
        """
        paths = tuple(paths)
        if not paths:
            raise InputError("an ensemble needs at least one path")
        grid = paths[0].grid
        if any(abs(p.horizon - grid[-1]) > HORIZON_TOL or p.dim != paths[0].dim for p in paths):
            raise InputError("all paths must share the ensemble horizon and dimension")
        if all(np.array_equal(p.grid, grid) for p in paths):
            nodes = np.stack([p.nodes for p in paths])
        else:
            grid = functools.reduce(_union_grid, [p.grid for p in paths])
            nodes = np.stack([p(grid) for p in paths])
        return cls(grid, nodes, weights, provenance)

    @property
    def n_paths(self) -> int:
        return self.nodes.shape[0]

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    @property
    def dim(self) -> int:
        return self.nodes.shape[2]

    @cached_property
    def paths(self) -> tuple:
        """One :class:`PiecewisePath` view per path, built on first use."""
        return tuple(PiecewisePath(self.grid, nodes) for nodes in self.nodes)

    def evaluate(self, t) -> DiscreteMeasure:
        """Push-forward under the evaluation map e_t, exact duplicates merged."""
        if not -HORIZON_TOL <= t <= self.horizon + HORIZON_TOL:
            raise InputError(f"time {t} outside [0, {self.horizon}]")
        atoms = _interp_nodes(self.grid, self.nodes, np.array([float(t)]))[0].T
        return coalesce(DiscreteMeasure(atoms, self.weights), 0.0)

    def restricted(self, T: float) -> "PathEnsemble":
        """The ensemble with every path restricted to [0, T], as PiecewisePath.restricted."""
        if T > self.horizon + HORIZON_TOL:
            raise InputError(f"cannot restrict to T={T} beyond horizon {self.horizon}")
        if abs(T - self.horizon) <= HORIZON_TOL:
            return self
        keep = self.grid < T - HORIZON_TOL
        end = _interp_nodes(self.grid, self.nodes, np.array([float(T)]))[0].T
        return PathEnsemble(
            np.concatenate([self.grid[keep], [T]]),
            np.concatenate([self.nodes[:, keep], end[:, None, :]], axis=1),
            self.weights,
            self.provenance,
        )

    def _provenance_dict(self) -> dict:
        return {
            "kind": self.provenance.kind,
            "seed": self.provenance.seed,
            "sample_count": self.provenance.sample_count,
        }

    def to_json_dict(self) -> dict:
        grid = self.grid.tolist()
        return {
            "provenance": self._provenance_dict(),
            "weights": self.weights.tolist(),
            "paths": [{"grid": list(grid), "nodes": nodes} for nodes in self.nodes.tolist()],
        }

    def to_csv(self) -> str:
        """One row per (path id, time, coordinates..., weight); renders the JSON and drops it."""
        buf = io.StringIO()
        self.write_artifacts(io.StringIO(), buf)
        return buf.getvalue()

    def write_artifacts(self, json_out, csv_out) -> None:
        """Write the ensemble's JSON to ``json_out`` and its CSV to ``csv_out``, streamed.

        The bytes equal ``json.dumps(self.to_json_dict(), sort_keys=True,
        indent=1) + "\\n"`` and ``self.to_csv()``.  Paths are written in blocks
        of ``_WRITE_BLOCK``, so neither text is held whole.  Every float is
        rendered once, by ``repr`` as both encoders render it, into both
        files; the grid is rendered once for all paths.
        """
        d = self.dim
        weights = list(map(repr, self.weights.tolist()))
        csv_out.write(",".join(["path_id", "time", *[f"x{k}" for k in range(d)], "weight"]) + "\n")
        json_out.write('{\n "paths": [\n')
        json_t, csv_t = _path_templates(list(map(repr, self.grid.tolist())), d)
        size = self.nodes[0].size
        for start in range(0, self.n_paths, _WRITE_BLOCK):
            flat = list(map(repr, self.nodes[start : start + _WRITE_BLOCK].ravel().tolist()))
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
    """The ensemble an ``ensemble.json`` holds; paths on different grids load onto their union."""
    d = json.loads(s)
    prov = d["provenance"]
    paths = []
    for k, p in enumerate(d["paths"]):
        try:  # numpy refuses a ragged node list with a plain ValueError
            paths.append(PiecewisePath(np.asarray(p["grid"]), np.asarray(p["nodes"])))
        except ValueError as exc:
            raise InputError(f"path {k} of the ensemble: {exc}") from None
    return PathEnsemble.from_paths(
        paths,
        np.asarray(d["weights"], dtype=float),
        Provenance(prov["kind"], prov.get("seed"), prov.get("sample_count")),
    )
