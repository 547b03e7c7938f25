"""Piecewise-affine paths on a time grid and weighted path ensembles.

An ensemble's ``ensemble.json`` and ``ensemble.csv`` are rendered in blocks
of paths by ``_render``, in the calling process, with every float printed as
``repr`` prints it.
"""

from __future__ import annotations

import functools
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
    :meth:`PiecewisePath.__call__` bitwise, computed only at the times inside
    a segment.  Time leads and paths come last, so each gather copies one
    contiguous row and the arithmetic runs along the paths.
    """
    last = grid.shape[0] - 1
    j = np.searchsorted(grid, ts, side="right") - 1
    if last == 0:
        return np.repeat(nodes.transpose(1, 2, 0), ts.shape[0], axis=0)
    seg = np.clip(j, 0, last - 1)
    lo, hi = seg[0], seg[-1] + 2  # ts is sorted: only these nodes are read
    local = np.ascontiguousarray(nodes[:, lo:hi].transpose(1, 2, 0))  # (hi - lo, d, n)
    out = np.take(local, np.clip(j, 0, last) - lo, axis=0)
    inside = np.flatnonzero((j >= 0) & (j < last) & (grid[seg] != ts))
    k = seg[inside]
    left = np.take(local, k - lo, axis=0)
    value = np.take(local, k + 1 - lo, axis=0) - left
    value /= (grid[k + 1] - grid[k])[:, None, None]
    value *= (ts[inside] - grid[k])[:, None, None]
    value += left
    out[inside] = value
    return out


def _stack_paths(grids, nodes) -> tuple[np.ndarray, np.ndarray]:
    """One grid and an ``(n, K+1, d)`` node array for paths given by their grids and nodes.

    Paths on one grid are stacked as they are.  Otherwise every path is
    evaluated on the union of their grids, which keeps each polyline up to
    rounding in its refined nodes.
    """
    if not grids:
        raise InputError("an ensemble needs at least one path")
    grid, d = grids[0], nodes[0].shape[1]
    for g, x in zip(grids, nodes):
        if abs(g[-1] - grid[-1]) > HORIZON_TOL or x.shape != (len(g), d):
            raise InputError("all paths need the ensemble's horizon and dimension, a node per time")
    if all(g is grid or np.array_equal(g, grid) for g in grids):
        return grid, np.stack(nodes)
    grid = functools.reduce(_union_grid, grids)
    return grid, np.stack([_interp_nodes(g, x[None], grid)[:, :, 0] for g, x in zip(grids, nodes)])


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
        """The ensemble of :class:`PiecewisePath` objects, joined by ``_stack_paths``."""
        paths = tuple(paths)
        grid, nodes = _stack_paths([p.grid for p in paths], [p.nodes for p in paths])
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
        """The ensemble with every path restricted to [0, T], T within the horizon.

        The grid keeps the times before T and ends at T, where each path
        takes its value at T; a T within ``HORIZON_TOL`` of the horizon
        returns the ensemble itself.
        """
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
        """One row per (path id, time, coordinates..., weight), as ``ensemble.csv`` holds them."""
        from . import _render  # on first use: verify and sweep render no ensemble

        grid, weights = _render._reprs(self.grid), _render._reprs(self.weights)
        rendered = _render.render_blocks(grid, weights, self.nodes)
        return _render.csv_header(self.dim) + b"".join(c for _, c in rendered).decode()

    def write_artifacts(self, json_out, csv_out) -> None:
        """Write the ensemble's JSON to ``json_out`` and its CSV to ``csv_out``, binary handles.

        The bytes equal ``json.dumps(self.to_json_dict(), sort_keys=True,
        indent=1) + "\\n"`` and ``self.to_csv()``, encoded: every float as
        ``repr`` prints it.  The paths are written by ``_render.write_ensemble``
        in blocks, in this process, so neither text is held whole.
        """
        from . import _render  # on first use: verify and sweep render no ensemble

        provenance = json.dumps(self._provenance_dict(), sort_keys=True, indent=1)
        _render.write_ensemble(json_out, csv_out, self.grid, self.weights, self.nodes, provenance)


def ensemble_from_json(s: str) -> PathEnsemble:
    """The ensemble an ``ensemble.json`` holds; paths on different grids load onto their union."""
    d = json.loads(s)
    prov = d["provenance"]
    grids, nodes, last = [], [], None
    for k, p in enumerate(d["paths"]):
        try:  # numpy refuses a ragged node list with a plain ValueError
            nodes.append(_coordinates(p["nodes"], "nodes"))
            if p["grid"] != last:  # a run of paths on one grid shares one array
                last, grid = p["grid"], _time_grid(p["grid"], nodes[-1].shape[0])
            grids.append(grid)
        except ValueError as exc:
            raise InputError(f"path {k} of the ensemble: {exc}") from None
    grid, nodes = _stack_paths(grids, nodes)
    return PathEnsemble(
        grid,
        nodes,
        np.asarray(d["weights"], dtype=float),
        Provenance(prov["kind"], prov.get("seed"), prov.get("sample_count")),
    )
