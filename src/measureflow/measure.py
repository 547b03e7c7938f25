"""Finitely supported probability measures on R^d and on its tangent bundle.

The three workhorse containers are :class:`DiscreteMeasure` (atoms + weights),
:class:`TangentMeasure` (position-velocity atoms) and the product-space
containers :class:`Coupling` / :class:`TuplePlan`.  All values are immutable
after construction and every operation is a pure function, so instances can be
shared freely across threads.

Atom coordinates are double precision; weights are positive and sum to one
within ``WEIGHT_TOL``.  Merging of atoms is always explicit via
:func:`coalesce` (exact-duplicate merging uses ``tol=0``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import InputError, NumericDomainError

WEIGHT_TOL = 1e-12

Array = np.ndarray


def _freeze(a: Array) -> Array:
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    out.flags.writeable = False
    return out


def _check_finite(a: Array, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise InputError(f"{what} must be finite (no NaN/Inf)")


def _check_weights(w: Array) -> None:
    if w.ndim != 1 or w.size < 1:
        raise InputError("weights must be a non-empty 1-d vector")
    _check_finite(w, "weights")
    if np.any(w <= 0.0):
        raise InputError("weights must all be positive")
    total = float(np.sum(w))
    if abs(total - 1.0) > WEIGHT_TOL:
        raise InputError(f"weights must sum to 1 within {WEIGHT_TOL}; got {total!r}")


def as_point(x, dim: int | None = None) -> Array:
    """Coerce ``x`` to a finite 1-d float vector, optionally of dimension ``dim``."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise InputError(f"a point must be a 1-d vector, got shape {p.shape}")
    if dim is not None and p.size != dim:
        raise InputError(f"point has dimension {p.size}, expected {dim}")
    _check_finite(p, "point coordinates")
    return p


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on R^d.

    Parameters
    ----------
    atoms : (n, d) array
        Atom locations.  Duplicate rows are allowed; use :func:`coalesce`
        with ``tol=0`` to merge them.
    weights : (n,) array
        Positive masses summing to one within ``WEIGHT_TOL``.
    """

    atoms: Array
    weights: Array

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.shape[0] < 1 or atoms.shape[1] < 1:
            raise InputError(f"atoms must be an (n, d) array, got shape {atoms.shape}")
        _check_finite(atoms, "atom coordinates")
        weights = np.asarray(self.weights, dtype=float).ravel()
        if weights.shape[0] != atoms.shape[0]:
            raise InputError("atoms and weights must have equal length")
        _check_weights(weights)
        object.__setattr__(self, "atoms", _freeze(atoms))
        object.__setattr__(self, "weights", _freeze(weights))

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": self.atoms.tolist(),
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DiscreteMeasure":
        atoms = np.asarray(d["atoms"], dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.shape[1] != d["dim"]:
            raise InputError("serialized dim does not match atom shape")
        return cls(atoms, np.asarray(d["weights"], dtype=float))


def dirac(x) -> DiscreteMeasure:
    """The Dirac measure at ``x``."""
    return DiscreteMeasure(as_point(x)[None, :], np.array([1.0]))


def mixture(atoms: Iterable, weights: Iterable[float]) -> DiscreteMeasure:
    """Build a measure from per-atom points and weights."""
    pts = [as_point(a) for a in atoms]
    return DiscreteMeasure(np.stack(pts), np.asarray(list(weights), dtype=float))


@dataclass(frozen=True)
class TangentMeasure:
    """Finitely supported measure on the tangent bundle R^d x R^d.

    Atoms are position-velocity pairs ``(x_i, v_i)``.  The x-marginal (the
    push-forward under the position projection) is itself a valid
    :class:`DiscreteMeasure`.
    """

    positions: Array
    velocities: Array
    weights: Array

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        vel = np.asarray(self.velocities, dtype=float)
        if pos.ndim == 1:
            pos = pos[:, None]
        if vel.ndim == 1:
            vel = vel[:, None]
        if pos.shape != vel.shape or pos.ndim != 2:
            raise InputError("positions and velocities must share an (n, d) shape")
        _check_finite(pos, "positions")
        _check_finite(vel, "velocities")
        weights = np.asarray(self.weights, dtype=float).ravel()
        if weights.shape[0] != pos.shape[0]:
            raise InputError("atoms and weights must have equal length")
        _check_weights(weights)
        object.__setattr__(self, "positions", _freeze(pos))
        object.__setattr__(self, "velocities", _freeze(vel))
        object.__setattr__(self, "weights", _freeze(weights))

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    def x_marginal(self) -> DiscreteMeasure:
        """Push-forward under the position projection, exact duplicates merged."""
        return coalesce(DiscreteMeasure(self.positions, self.weights), 0.0)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [[x.tolist(), v.tolist()] for x, v in zip(self.positions, self.velocities)],
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TangentMeasure":
        xs = np.asarray([a[0] for a in d["atoms"]], dtype=float)
        vs = np.asarray([a[1] for a in d["atoms"]], dtype=float)
        return cls(xs, vs, np.asarray(d["weights"], dtype=float))


def tangent_atoms(pairs: Iterable, weights: Iterable[float]) -> TangentMeasure:
    """Build a tangent measure from ``(x, v)`` pairs."""
    xs, vs = [], []
    for x, v in pairs:
        xs.append(as_point(x))
        vs.append(as_point(v))
    return TangentMeasure(np.stack(xs), np.stack(vs), np.asarray(list(weights), dtype=float))


@dataclass(frozen=True)
class Coupling:
    """Weighted atoms on a product space R^d x R^d with declared marginals.

    The computed marginals must match the declared ones atom-by-atom after
    exact coalescing, with weight tolerance ``WEIGHT_TOL``.
    """

    first_atoms: Array
    second_atoms: Array
    weights: Array
    mu: DiscreteMeasure
    nu: DiscreteMeasure

    def __post_init__(self):
        fa = np.asarray(self.first_atoms, dtype=float)
        sa = np.asarray(self.second_atoms, dtype=float)
        if fa.ndim == 1:
            fa = fa[:, None]
        if sa.ndim == 1:
            sa = sa[:, None]
        if fa.shape[0] != sa.shape[0]:
            raise InputError("coupling sides must have equal atom counts")
        _check_finite(fa, "coupling atoms")
        _check_finite(sa, "coupling atoms")
        weights = np.asarray(self.weights, dtype=float).ravel()
        _check_weights(weights)
        if weights.shape[0] != fa.shape[0]:
            raise InputError("atoms and weights must have equal length")
        object.__setattr__(self, "first_atoms", _freeze(fa))
        object.__setattr__(self, "second_atoms", _freeze(sa))
        object.__setattr__(self, "weights", _freeze(weights))
        _require_equal_measures(
            coalesce(DiscreteMeasure(self.first_atoms, self.weights), 0.0),
            coalesce(self.mu, 0.0),
            "first marginal",
        )
        _require_equal_measures(
            coalesce(DiscreteMeasure(self.second_atoms, self.weights), 0.0),
            coalesce(self.nu, 0.0),
            "second marginal",
        )

    @property
    def n_atoms(self) -> int:
        return self.weights.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "first_atoms": self.first_atoms.tolist(),
            "second_atoms": self.second_atoms.tolist(),
            "weights": self.weights.tolist(),
        }


@dataclass(frozen=True)
class TangentCoupling:
    """Coupling between two tangent measures: atoms ((x0, v0), (x1, v1))."""

    x0: Array
    v0: Array
    x1: Array
    v1: Array
    weights: Array
    phi0: TangentMeasure
    phi1: TangentMeasure

    def __post_init__(self):
        arrays = {}
        for name in ("x0", "v0", "x1", "v1"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim == 1:
                a = a[:, None]
            _check_finite(a, name)
            arrays[name] = a
        n = arrays["x0"].shape[0]
        if any(a.shape[0] != n for a in arrays.values()):
            raise InputError("all four coordinate blocks must have equal atom counts")
        weights = np.asarray(self.weights, dtype=float).ravel()
        _check_weights(weights)
        if weights.shape[0] != n:
            raise InputError("atoms and weights must have equal length")
        for name, a in arrays.items():
            object.__setattr__(self, name, _freeze(a))
        object.__setattr__(self, "weights", _freeze(weights))
        left = coalesce(TangentMeasure(self.x0, self.v0, self.weights), 0.0)
        right = coalesce(TangentMeasure(self.x1, self.v1, self.weights), 0.0)
        _require_equal_tangent(left, coalesce(self.phi0, 0.0), "first marginal")
        _require_equal_tangent(right, coalesce(self.phi1, 0.0), "second marginal")


@dataclass(frozen=True)
class TuplePlan:
    """Weighted atoms on R^{d x (n+1)}: joint laws of discrete trajectories."""

    points: Array  # (n_atoms, n_steps + 1, d)
    weights: Array

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 2:
            pts = pts[:, :, None]
        if pts.ndim != 3 or pts.shape[1] < 1:
            raise InputError(f"tuple plan points must be (n, k+1, d); got {pts.shape}")
        _check_finite(pts, "tuple coordinates")
        weights = np.asarray(self.weights, dtype=float).ravel()
        _check_weights(weights)
        if weights.shape[0] != pts.shape[0]:
            raise InputError("atoms and weights must have equal length")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "weights", _freeze(weights))

    @property
    def n_steps(self) -> int:
        return self.points.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.points.shape[2]

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    def restrict(self, n: int) -> "TuplePlan":
        """Push-forward under the restriction map to the first ``n + 1`` coordinates."""
        if not 0 <= n <= self.n_steps:
            raise InputError(f"restriction length {n} outside [0, {self.n_steps}]")
        return coalesce(TuplePlan(self.points[:, : n + 1, :], self.weights), 0.0)

    def coordinate_marginal(self, k: int) -> DiscreteMeasure:
        """Law of the k-th coordinate."""
        if not 0 <= k <= self.n_steps:
            raise InputError(f"coordinate {k} outside [0, {self.n_steps}]")
        return coalesce(DiscreteMeasure(self.points[:, k, :], self.weights), 0.0)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "n_steps": self.n_steps,
            "points": self.points.tolist(),
            "weights": self.weights.tolist(),
        }


# ---------------------------------------------------------------------------
# coalescing
# ---------------------------------------------------------------------------


def _rows_of(m) -> Array:
    if isinstance(m, DiscreteMeasure):
        return m.atoms
    if isinstance(m, TangentMeasure):
        return np.hstack([m.positions, m.velocities])
    if isinstance(m, TuplePlan):
        return m.points.reshape(m.n_atoms, -1)
    raise InputError(f"unsupported measure kind {type(m).__name__}")


def _rebuild(m, rows: Array, weights: Array):
    if isinstance(m, DiscreteMeasure):
        return DiscreteMeasure(rows, weights)
    if isinstance(m, TangentMeasure):
        d = m.dim
        return TangentMeasure(rows[:, :d], rows[:, d:], weights)
    if isinstance(m, TuplePlan):
        return TuplePlan(rows.reshape(-1, m.n_steps + 1, m.dim), weights)
    raise InputError(f"unsupported measure kind {type(m).__name__}")


def _merge_exact(rows: Array, weights: Array) -> tuple[Array, Array]:
    order = np.lexsort(rows.T[::-1])
    rows_s = rows[order]
    w_s = weights[order]
    if rows_s.shape[0] == 1:
        return rows_s, w_s
    new_group = np.any(rows_s[1:] != rows_s[:-1], axis=1)
    starts = np.concatenate([[0], np.nonzero(new_group)[0] + 1])
    group_id = np.cumsum(np.concatenate([[0], new_group.astype(int)]))
    merged_w = np.bincount(group_id, weights=w_s)
    return rows_s[starts], merged_w


def _greedy_pass(rows: Array, weights: Array, tol: float) -> tuple[Array, Array, bool]:
    """One greedy merge pass in lexicographic order; returns (rows, weights, merged?).

    Each row joins the first earlier cluster seed within ``tol``, else seeds a
    new cluster.  Seeds are appended in row order, so their first coordinates
    never decrease; a seed whose first coordinate trails the current row by
    more than ``tol`` trails every later row too (IEEE subtraction is
    monotone).  The scan therefore starts at a window index that only moves
    forward, which gives the same clusters as a scan over all seeds at cost
    O(n * w), w the number of seeds within ``tol`` in the first coordinate.

    Singleton clusters keep their row bitwise; only genuine merges move atoms
    (to the weight-weighted mean of their members).
    """
    order = np.lexsort(rows.T[::-1])
    rows_s = rows[order]
    w_s = weights[order]
    seeds: list[Array] = []
    members: list[list] = []  # (row, weight) pairs per cluster
    start = 0  # first seed within tol of the current row in the first coordinate
    merged = False
    for r, w in zip(rows_s, w_s):
        while start < len(seeds) and r[0] - seeds[start][0] > tol:
            start += 1
        target = -1
        for k in range(start, len(seeds)):
            if np.linalg.norm(r - seeds[k]) <= tol:
                target = k
                break
        if target < 0:
            seeds.append(r)
            members.append([(r, w)])
        else:
            merged = True
            members[target].append((r, w))
    out_rows = []
    out_w = []
    for group in members:
        total = sum(w for _, w in group)
        out_w.append(total)
        if len(group) == 1:
            out_rows.append(group[0][0])
        else:
            out_rows.append(sum(r * w for r, w in group) / total)
    return np.stack(out_rows), np.asarray(out_w), merged


def coalesce(m, tol: float = 0.0):
    """Merge atoms within distance ``tol``; mass preserved, weighted-mean positions.

    Greedy passes in lexicographic atom order are iterated to a fixpoint, so the
    result is idempotent at fixed ``tol``.  ``tol=0`` merges exact duplicates only.
    """
    if tol < 0:
        raise InputError("coalesce tolerance must be nonnegative")
    rows = _rows_of(m)
    weights = m.weights
    if tol == 0.0:
        rows, weights = _merge_exact(rows, weights)
        return _rebuild(m, rows, weights)
    while True:
        rows, weights, merged = _greedy_pass(rows, weights, tol)
        if not merged:
            break
    return _rebuild(m, rows, weights)


def _require_equal_measures(a: DiscreteMeasure, b: DiscreteMeasure, what: str) -> None:
    if a.n_atoms != b.n_atoms or not np.array_equal(a.atoms, b.atoms):
        raise InputError(f"{what} does not match the declared measure")
    if np.max(np.abs(a.weights - b.weights)) > WEIGHT_TOL:
        raise InputError(f"{what} weights deviate beyond {WEIGHT_TOL}")


def _require_equal_tangent(a: TangentMeasure, b: TangentMeasure, what: str) -> None:
    if (
        a.n_atoms != b.n_atoms
        or not np.array_equal(a.positions, b.positions)
        or not np.array_equal(a.velocities, b.velocities)
    ):
        raise InputError(f"{what} does not match the declared tangent measure")
    if np.max(np.abs(a.weights - b.weights)) > WEIGHT_TOL:
        raise InputError(f"{what} weights deviate beyond {WEIGHT_TOL}")


# ---------------------------------------------------------------------------
# push-forward, products, moments
# ---------------------------------------------------------------------------


def push_forward(m, fn: Callable):
    """Push-forward of a measure under an atom map.

    For a :class:`DiscreteMeasure`, ``fn`` receives each atom as a 1-d vector and
    must return a 1-d vector.  For a :class:`TangentMeasure`, ``fn`` receives
    ``(x, v)``; returning a pair keeps the result on the tangent bundle while
    returning a single vector projects to a plain measure (e.g. the exponential
    map).  For a :class:`TuplePlan`, ``fn`` receives and returns a
    ``(k+1, d)``-shaped trajectory block.  Weights are carried over and the
    result is coalesced exactly, so identical images merge and total mass is
    preserved to machine precision.
    """
    weights = m.weights
    if isinstance(m, DiscreteMeasure):
        images = [np.atleast_1d(np.asarray(fn(x), dtype=float)) for x in m.atoms]
        out = np.stack(images)
        if not np.all(np.isfinite(out)):
            bad = int(np.nonzero(~np.isfinite(out).all(axis=1))[0][0])
            raise NumericDomainError(
                "map produced non-finite coordinates", witness=m.atoms[bad]
            )
        return coalesce(DiscreteMeasure(out, weights), 0.0)
    if isinstance(m, TangentMeasure):
        first = fn(m.positions[0], m.velocities[0])
        as_pair = isinstance(first, tuple)
        xs, vs, pts = [], [], []
        for x, v in zip(m.positions, m.velocities):
            img = fn(x, v)
            if as_pair:
                xs.append(np.atleast_1d(np.asarray(img[0], dtype=float)))
                vs.append(np.atleast_1d(np.asarray(img[1], dtype=float)))
            else:
                pts.append(np.atleast_1d(np.asarray(img, dtype=float)))
        if as_pair:
            out = TangentMeasure(np.stack(xs), np.stack(vs), weights)
            block = np.hstack([out.positions, out.velocities])
        else:
            arr = np.stack(pts)
            if not np.all(np.isfinite(arr)):
                bad = int(np.nonzero(~np.isfinite(arr).all(axis=1))[0][0])
                raise NumericDomainError(
                    "map produced non-finite coordinates",
                    witness=(m.positions[bad], m.velocities[bad]),
                )
            return coalesce(DiscreteMeasure(arr, weights), 0.0)
        if not np.all(np.isfinite(block)):
            raise NumericDomainError("map produced non-finite coordinates")
        return coalesce(out, 0.0)
    if isinstance(m, TuplePlan):
        images = [np.asarray(fn(row), dtype=float) for row in m.points]
        out = np.stack(images)
        if out.ndim == 2:
            out = out[:, :, None]
        if not np.all(np.isfinite(out)):
            raise NumericDomainError("map produced non-finite coordinates")
        return coalesce(TuplePlan(out, weights), 0.0)
    raise InputError(f"unsupported measure kind {type(m).__name__}")


def exp_push(phi: TangentMeasure, t: float) -> DiscreteMeasure:
    """Push a tangent measure forward under the exponential map at time ``t``."""
    atoms = phi.positions + t * phi.velocities
    if not np.all(np.isfinite(atoms)):
        raise NumericDomainError("exponential map produced non-finite coordinates")
    return coalesce(DiscreteMeasure(atoms, phi.weights), 0.0)


def product(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Coupling:
    """The product coupling mu (x) nu with weights w_i * u_j."""
    m, n = mu.n_atoms, nu.n_atoms
    first = np.repeat(mu.atoms, n, axis=0)
    second = np.tile(nu.atoms, (m, 1))
    weights = np.outer(mu.weights, nu.weights).ravel()
    return Coupling(first, second, weights, mu, nu)


def second_moment(m: DiscreteMeasure) -> float:
    """The 2-moment (sum_i w_i |x_i|^2)^(1/2)."""
    return float(np.sqrt(np.sum(m.weights * np.sum(m.atoms**2, axis=1))))


def velocity_moment(phi: TangentMeasure) -> float:
    """Partial 2-moment (sum_i w_i |v_i|^2)^(1/2); the quantity bounded by L."""
    return float(np.sqrt(np.sum(phi.weights * np.sum(phi.velocities**2, axis=1))))


def barycentric_projection(phi: TangentMeasure) -> TangentMeasure:
    """Replace the velocity distribution at each position by its mean.

    Positions are grouped by exact coordinate equality after an exact-duplicate
    coalesce pass at tolerance 1e-12 in pair space; the x-marginal is preserved.
    """
    phi = coalesce(phi, 1e-12) if phi.n_atoms > 1 else phi
    order = np.lexsort(phi.positions.T[::-1])
    pos = phi.positions[order]
    vel = phi.velocities[order]
    w = phi.weights[order]
    if pos.shape[0] > 1:
        new_group = np.any(pos[1:] != pos[:-1], axis=1)
        group_id = np.cumsum(np.concatenate([[0], new_group.astype(int)]))
    else:
        group_id = np.zeros(1, dtype=int)
    n_groups = int(group_id[-1]) + 1
    gw = np.bincount(group_id, weights=w, minlength=n_groups)
    gv = np.zeros((n_groups, phi.dim))
    for k in range(phi.dim):
        gv[:, k] = np.bincount(group_id, weights=w * vel[:, k], minlength=n_groups) / gw
    # positions are identical within a group; keep the first row of each
    starts = np.searchsorted(group_id, np.arange(n_groups))
    gx = pos[starts]
    return TangentMeasure(gx, gv, gw)


def measures_close(
    a: DiscreteMeasure,
    b: DiscreteMeasure,
    atom_tol: float = 1e-12,
    weight_tol: float = WEIGHT_TOL,
) -> bool:
    """Atom-by-atom comparison after coalescing, up to the given tolerances."""
    ca = coalesce(a, atom_tol)
    cb = coalesce(b, atom_tol)
    if ca.n_atoms != cb.n_atoms or ca.dim != cb.dim:
        return False
    oa = np.lexsort(ca.atoms.T[::-1])
    ob = np.lexsort(cb.atoms.T[::-1])
    if np.max(np.abs(ca.atoms[oa] - cb.atoms[ob])) > max(atom_tol, 4e-16):
        return False
    return float(np.max(np.abs(ca.weights[oa] - cb.weights[ob]))) <= weight_tol


def tangent_measures_close(
    a: TangentMeasure,
    b: TangentMeasure,
    atom_tol: float = 1e-12,
    weight_tol: float = WEIGHT_TOL,
) -> bool:
    """Pair-space analogue of :func:`measures_close`."""
    ca = coalesce(a, atom_tol)
    cb = coalesce(b, atom_tol)
    if ca.n_atoms != cb.n_atoms or ca.dim != cb.dim:
        return False
    ra = np.hstack([ca.positions, ca.velocities])
    rb = np.hstack([cb.positions, cb.velocities])
    oa = np.lexsort(ra.T[::-1])
    ob = np.lexsort(rb.T[::-1])
    if np.max(np.abs(ra[oa] - rb[ob])) > max(atom_tol, 4e-16):
        return False
    return float(np.max(np.abs(ca.weights[oa] - cb.weights[ob]))) <= weight_tol


def dumps(m) -> str:
    """Serialize a measure to JSON; round-trips bit-exactly at double precision."""
    return json.dumps(m.to_json_dict(), sort_keys=True)


def loads_measure(s: str) -> DiscreteMeasure:
    return DiscreteMeasure.from_json_dict(json.loads(s))


def loads_tangent(s: str) -> TangentMeasure:
    return TangentMeasure.from_json_dict(json.loads(s))
