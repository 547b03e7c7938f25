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

from dataclasses import dataclass
from typing import Iterable

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


def _first_non_finite(a: Array) -> int | None:
    """The index of the first row (along axis 0) of ``a`` with a NaN or Inf, or None."""
    finite = np.isfinite(a).reshape(a.shape[0], -1).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


def _check_weights(w: Array) -> None:
    if w.ndim != 1 or w.size < 1:
        raise InputError("weights must be a non-empty 1-d vector")
    _check_finite(w, "weights")
    if np.any(w <= 0.0):
        raise InputError("weights must all be positive")
    total = float(np.sum(w))
    if abs(total - 1.0) > WEIGHT_TOL:
        raise InputError(f"weights must sum to 1 within {WEIGHT_TOL}; got {total!r}")


def _coordinates(a, what: str, ndim: int = 2, promote: bool = True) -> Array:
    """``a`` as a non-empty, finite float array with ``ndim`` axes.

    With ``promote``, an array of one axis fewer gains a trailing axis of
    length 1 (one coordinate per row).
    """
    out = np.asarray(a, dtype=float)
    if promote and out.ndim == ndim - 1:
        out = out[..., None]
    if out.ndim != ndim or 0 in out.shape:
        raise InputError(f"{what} must be a non-empty array with {ndim} axes, got {out.shape}")
    _check_finite(out, what)
    return out


def _set_atoms(obj, *blocks: str, ndim: int = 2, promote: bool = True) -> None:
    """Coerce, check and freeze the coordinate ``blocks`` and the weights of ``obj``.

    The one rule for weighted atoms: each named block goes through
    :func:`_coordinates` and has one row per weight, and the weights pass
    :func:`_check_weights`.
    """
    weights = np.array(obj.weights, dtype=float).ravel()  # a copy: the caller keeps theirs
    _check_weights(weights)
    for name in blocks:
        a = _coordinates(getattr(obj, name), name, ndim, promote)
        if a.shape[0] != weights.shape[0]:
            raise InputError(f"{name} and weights must have equal length")
        object.__setattr__(obj, name, _freeze(a))
    object.__setattr__(obj, "weights", _freeze(weights))


def as_point(x) -> Array:
    """Coerce ``x`` to a finite 1-d float vector."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise InputError(f"a point must be a 1-d vector, got shape {p.shape}")
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
        _set_atoms(self, "atoms")

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
        _set_atoms(self, "positions", "velocities")
        if self.positions.shape != self.velocities.shape:
            raise InputError("positions and velocities must share an (n, d) shape")

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
        _set_atoms(self, "first_atoms", "second_atoms")
        _require_equal(DiscreteMeasure(self.first_atoms, self.weights), self.mu, "first marginal")
        _require_equal(DiscreteMeasure(self.second_atoms, self.weights), self.nu, "second marginal")

    @property
    def n_atoms(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class TuplePlan:
    """Weighted atoms on R^{d x (n+1)}: joint laws of discrete trajectories."""

    points: Array  # (n_atoms, n_steps + 1, d)
    weights: Array

    def __post_init__(self):
        _set_atoms(self, "points", ndim=3)

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


def _group_rows(rows: Array) -> tuple[Array, Array]:
    """The one rule for "the same atom": rows equal as numbers in every coordinate.

    Returns ``(first, group)``.  ``group[i]`` numbers the group of ``rows[i]``,
    groups counted from 0 in lexicographic order; ``first[g]`` is the index of
    the first row of group ``g`` in input order.  The comparison is ``!=`` after
    a stable lexsort, so -0.0 and 0.0 are one coordinate.
    """
    order = np.lexsort(rows.T[::-1])
    rows_s = rows[order]
    new_group = np.any(rows_s[1:] != rows_s[:-1], axis=1)
    group = np.empty(rows.shape[0], dtype=np.intp)
    group[order] = np.concatenate([[0], np.cumsum(new_group)])
    return order[np.concatenate([[0], np.flatnonzero(new_group) + 1])], group


def _disintegrate(phi: TangentMeasure, points: Array) -> tuple[Array, Array, Array, Array]:
    """Where each of ``points`` sits in the disintegration of ``phi`` over positions.

    Returns ``(count, start, order, mass)`` per point: the rows of ``phi`` at
    the point are ``order[start : start + count]`` in row order, and ``mass``
    is their total weight, summed in row order.  A point that is no position
    of ``phi`` has count 0.
    """
    m = phi.n_atoms
    _, group = _group_rows(np.concatenate([phi.positions, points]))
    row_group, point_group = group[:m], group[m:]
    size = np.bincount(row_group, minlength=group.max() + 1)
    mass = np.bincount(row_group, weights=phi.weights, minlength=size.shape[0])
    order = np.argsort(row_group, kind="stable")
    start = np.cumsum(size) - size
    return size[point_group], start[point_group], order, mass[point_group]


def _merge_exact(rows: Array, weights: Array) -> tuple[Array, Array]:
    first, group = _group_rows(rows)
    return rows[first], np.bincount(group, weights=weights)


def _greedy_clusters(rows: Array, tol: float) -> tuple[Array, Array]:
    """The greedy clusters of ``rows`` at ``tol``, in lexicographic row order.

    Returns ``(order, seed_of)``: ``order`` lexsorts the rows, and sorted row
    ``i`` belongs to the cluster seeded by sorted row ``seed_of[i]``
    (``seed_of[i] == i`` for a seed).  In row order, each row joins the first
    seed within ``tol`` (``np.linalg.norm(r - s) <= tol``) among the rows
    before it, else seeds a new cluster.  Only rows before it in its window,
    whose first coordinates it trails by at most ``tol`` (the IEEE
    difference, monotone in the row), can be within ``tol``.

    Array passes settle most rows.  At offset ``k = 1, 2, ...`` each row is
    screened against the row ``k`` places before it while that row is in its
    window; a squared distance, with room for the rounding and underflow of
    either sum of squares, admits neighbours.  A row with no neighbour is a
    seed, and a row whose only neighbour has none and is surely within
    ``tol`` joins it.  A row leaves the passes at its second neighbour; such
    rows and the rest with a neighbour go through the greedy rule in Python,
    against the seeds in their window.  Cost: numpy work O(n * w), w the
    widest window, and Python work per row left to the greedy rule.
    """
    order = np.lexsort(rows.T[::-1])
    rows_s = rows[order]
    n, width = rows_s.shape
    x0 = rows_s[:, 0]
    slack = (width + 1) * 2.0**-1070
    inside, outside = tol * tol * (1 - 1e-6) - slack, tol * tol * (1 + 1e-6) + slack
    first = np.full(n, -1)  # the earliest neighbour the passes found, -1 for none
    sure = np.zeros(n, dtype=bool)  # ... surely within tol
    crowded = np.zeros(n, dtype=bool)  # a second neighbour found
    i, k = np.arange(1, n), 1
    while True:
        i = i[x0[i] - x0[i - k] <= tol]
        if i.size == 0:
            break
        diff = rows_s[i] - rows_s[i - k]
        sq = np.einsum("ij,ij->i", diff, diff)
        near = i[sq <= outside]
        crowded[near[first[near] >= 0]] = True
        first[near] = near - k
        sure[near] = sq[sq <= outside] <= inside
        k += 1
        i = i[(i >= k) & ~crowded[i]]
    seed_of = np.arange(n)
    has = first >= 0
    settled = has & sure & ~crowded & ~has[first]  # first = -1 only where has masks it out
    seed_of[settled] = first[settled]
    rest = np.flatnonzero(has & ~settled)
    start, hi = np.zeros_like(rest), rest.copy()  # bisect the window of each row left
    while np.any(start < hi):
        mid = (start + hi) // 2
        within = x0[rest] - x0[mid] <= tol
        hi, start = np.where(within, mid, hi), np.where(within | (start == hi), start, mid + 1)
    is_seed = seed_of == np.arange(n)
    for r, lo in zip(rest.tolist(), start.tolist()):
        for s in is_seed[lo:r].nonzero()[0].tolist():
            if np.linalg.norm(rows_s[r] - rows_s[lo + s]) <= tol:
                seed_of[r] = lo + s
                is_seed[r] = False
                break
    return order, seed_of


def _greedy_pass(rows: Array, weights: Array, tol: float) -> tuple[Array, Array, bool]:
    """One greedy merge pass over :func:`_greedy_clusters`; returns (rows, weights, merged?).

    Singleton clusters, and clusters whose members all equal their seed, keep
    the seed's row bitwise; only the other merges move atoms (to the
    weight-weighted mean of their members, summed in row order).  Weights are
    summed in row order either way.  Python work is per merged row.
    """
    order, seed_of = _greedy_clusters(rows, tol)
    rows_s = rows[order]
    w_s = weights[order]
    is_seed = seed_of == np.arange(seed_of.shape[0])
    out_rows, out_w = rows_s[is_seed], w_s[is_seed]
    slot = np.cumsum(is_seed) - 1  # a seed's place among the clusters
    members: dict[int, list[int]] = {}
    joined = np.flatnonzero(~is_seed)
    for r, s in zip(joined.tolist(), seed_of[joined].tolist()):
        members.setdefault(s, [s]).append(r)
    for s, group in members.items():
        ws = w_s[group]  # summed one np.float64 at a time, in row order
        out_w[slot[s]] = total = sum(ws)
        rs = rows_s[group]
        if (rs != rs[0]).any():  # the mean of equal rows can miss them by an ulp
            out_rows[slot[s]] = sum(rs * ws[:, None]) / total
    return out_rows, out_w, bool(members)


def coalesce(m, tol: float = 0.0):
    """Merge atoms within distance ``tol``; mass preserved, weighted-mean positions.

    Greedy passes in lexicographic atom order are iterated to a fixpoint, so the
    result is idempotent at fixed ``tol``.  ``tol=0`` merges exact duplicates only.
    A pass costs numpy work O(n * w), w the widest window of rows within ``tol``
    in the first coordinate, and Python work per merged row and per row with
    more than one neighbour within ``tol`` (see :func:`_greedy_clusters`).
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


def _require_equal(computed, declared, what: str) -> None:
    """Refuse ``computed`` unless it equals ``declared`` after exact coalescing."""
    a, b = coalesce(computed, 0.0), coalesce(declared, 0.0)
    if not np.array_equal(_rows_of(a), _rows_of(b)):
        raise InputError(f"{what} does not match the declared measure")
    if np.max(np.abs(a.weights - b.weights)) > WEIGHT_TOL:
        raise InputError(f"{what} weights deviate beyond {WEIGHT_TOL}")


# ---------------------------------------------------------------------------
# exponential push-forward, moments
# ---------------------------------------------------------------------------


def exp_push(phi: TangentMeasure, t: float) -> DiscreteMeasure:
    """Push a tangent measure forward under the exponential map at time ``t``."""
    atoms = phi.positions + t * phi.velocities
    if _first_non_finite(atoms) is not None:
        raise NumericDomainError("exponential map produced non-finite coordinates")
    return coalesce(DiscreteMeasure(atoms, phi.weights), 0.0)


def second_moment(m: DiscreteMeasure) -> float:
    """The 2-moment (sum_i w_i |x_i|^2)^(1/2)."""
    return float(np.sqrt(np.sum(m.weights * np.sum(m.atoms**2, axis=1))))


def velocity_moment(phi: TangentMeasure) -> float:
    """Partial 2-moment (sum_i w_i |v_i|^2)^(1/2); the quantity bounded by L."""
    return float(np.sqrt(np.sum(phi.weights * np.sum(phi.velocities**2, axis=1))))


def barycentric_projection(phi: TangentMeasure) -> TangentMeasure:
    """Replace the velocity distribution at each position by its mean.

    A coalesce pass at tolerance 1e-12 in pair space first merges
    position-velocity rows within 1e-12 of each other to their weighted mean;
    positions are then grouped by exact equality.  The x-marginal is preserved.
    """
    phi = coalesce(phi, 1e-12) if phi.n_atoms > 1 else phi
    first, group = _group_rows(phi.positions)
    gw = np.bincount(group, weights=phi.weights)
    gv = np.stack(
        [np.bincount(group, weights=phi.weights * v) / gw for v in phi.velocities.T], axis=1
    )
    return TangentMeasure(phi.positions[first], gv, gw)


def measures_close(a, b, atom_tol: float = 1e-12, weight_tol: float = WEIGHT_TOL) -> bool:
    """Whether two measures of one kind match atom for atom after coalescing.

    Plain and tangent measures and tuple plans compare through their rows, at
    ``tol = max(atom_tol, 4e-16)`` (Euclidean distance between rows).  Each
    side is coalesced at ``tol``, so no two of its atoms lie within ``tol``;
    the union of both sides is then clustered once by the greedy rule of
    :func:`coalesce`.  The measures are close when every cluster is one atom
    of each side and their weights differ by at most ``weight_tol``.
    """
    tol = max(atom_tol, 4e-16)
    ca = coalesce(a, tol)
    cb = coalesce(b, tol)
    ra, rb = _rows_of(ca), _rows_of(cb)
    if type(ca) is not type(cb) or ca.dim != cb.dim or ra.shape != rb.shape:
        return False
    order, seed_of = _greedy_clusters(np.concatenate([ra, rb]), tol)
    joined = np.flatnonzero(seed_of != np.arange(seed_of.shape[0]))
    partner = seed_of[joined]
    # n rows joined n distinct seeds; a side has no two atoms within tol, so each pair spans both
    if joined.shape[0] != ra.shape[0] or np.bincount(partner).max() > 1:
        return False
    w = np.concatenate([ca.weights, cb.weights])[order]
    return float(np.max(np.abs(w[joined] - w[partner]))) <= weight_tol
