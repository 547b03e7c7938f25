"""Sticky-particle limit flow for finitely supported initial data.

The limit semigroup acts on a finite atom system: each atom follows the
barycentric field of the current weighted empirical measure, and atoms that
come within the collision radius merge (weight-weighted mean position, summed
weight) and evolve as one from then on, so the support cardinality never
increases.  One Lagrangian path is recorded per initial atom; merged atoms
share their tail trajectory through the same representative, which realizes
the path representation of the limit evolution exactly.

The merge rule re-evaluates the barycentric field at the merged configuration.
For the built-in scenario families the minimal selection coincides with the
barycentric field on bounded-support measures, so this is the right surrogate;
for other multivalued fields it is a documented approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, NumericDomainError
from .fields import PvfSpec, _mean_velocity, _section
from .measure import DiscreteMeasure, coalesce, measures_close
from .paths import PathEnsemble, PiecewisePath, Provenance
from .transport import w2_distance, bram_pairing


@dataclass(frozen=True)
class StickyFlowConfig:
    """Integrator controls: micro-step, collision radius, one-step method."""

    dt: float = 1e-3
    merge_tol: float = 1e-9
    integrator: str = "rk4"
    tol_constant: float = 10.0  # declared integrator tolerance is tol_constant * dt

    def __post_init__(self):
        if self.dt <= 0:
            raise InputError("dt must be positive")
        if self.merge_tol < 0:
            raise InputError("merge_tol must be nonnegative")
        if self.integrator not in ("rk4", "explicit-euler-fine"):
            raise InputError(f"unknown integrator {self.integrator!r}")


@dataclass(frozen=True)
class MergeEvent:
    time: float
    survivor: int
    absorbed: tuple
    position: tuple  # surviving atom position right after the merge


@dataclass(frozen=True)
class LimitFlow:
    """A computed limit evolution: Lagrangian paths, merge log, measure curve."""

    ensemble: PathEnsemble
    merge_events: tuple
    config: StickyFlowConfig
    T: float

    def measure_curve(self, t: float) -> DiscreteMeasure:
        """The flow measure at time t: the e_t push-forward of the path ensemble.

        Merged paths share identical floats, so coincident atoms coalesce
        exactly and the support count is non-increasing in t at grid times.
        """
        return self.ensemble.evaluate(t)

    def merge_log(self) -> list[dict]:
        """The merge events as JSON-ready rows (time, ids, surviving position)."""
        return [
            {
                "time": ev.time,
                "survivor": ev.survivor,
                "absorbed": list(ev.absorbed),
                "position": list(ev.position),
            }
            for ev in self.merge_events
        ]

    def to_json_dict(self) -> dict:
        return {
            "T": self.T,
            "ensemble": self.ensemble.to_json_dict(),
            "merge_events": self.merge_log(),
        }


def _velocity_fn(spec: PvfSpec):
    """Batch velocity evaluator for the coupled atom ODE.

    Row i of ``rhs(pos, w)`` equals ``fields.barycenter_field(spec, pos[i],
    mu)`` bitwise, where mu has atoms ``pos`` and weights ``w / w.sum()``
    (fields that read mu get ``w`` itself when its mass is within 1e-15 of
    one).  Each label's kernel is called once per evaluation, on all atoms
    (and all atom pairs for interaction fields), and the section rule is
    built once per flow rather than once per call.
    """
    rule = _section(spec)

    def rhs(pos: np.ndarray, w: np.ndarray) -> np.ndarray:
        total = w.sum()
        mu = None
        if rule.reads_measure:
            mu = DiscreteMeasure(pos, w / total if abs(total - 1.0) > 1e-15 else w)
        return _mean_velocity(rule, pos, pos, w / total, mu)

    return rhs


_triu_cache: dict[int, tuple] = {}


def sticky_flow(
    spec: PvfSpec, mu0: DiscreteMeasure, T: float, config: StickyFlowConfig | None = None
) -> LimitFlow:
    """Integrate the limit flow of ``spec`` from ``mu0`` on [0, T].

    Uses a classical 4-stage one-step method (or fine explicit Euler) at fixed
    dt on the coupled atom system, with merge detection after every micro-step;
    event times are recorded at micro-step resolution.
    """
    if T <= 0:
        raise InputError("T must be positive")
    config = config or StickyFlowConfig()
    mu0 = coalesce(mu0, 0.0)
    k = mu0.n_atoms
    d = mu0.dim
    n_steps = int(math.ceil(T / config.dt - 1e-12))
    dt = T / n_steps  # land exactly on T
    live = list(range(k))  # live group ids; group id = smallest original atom id
    rep = np.arange(k)  # original atom -> its live group id
    pos = mu0.atoms.copy()  # positions indexed by group id (stale for dead groups)
    grp_w = mu0.weights.copy()
    history = np.empty((n_steps + 1, k, d))
    history[0] = mu0.atoms
    merge_events: list[MergeEvent] = []
    field = _velocity_fn(spec)

    for step in range(n_steps):
        p = pos[live]
        w = grp_w[live]
        if config.integrator == "rk4":
            k1 = field(p, w)
            k2 = field(p + 0.5 * dt * k1, w)
            k3 = field(p + 0.5 * dt * k2, w)
            k4 = field(p + dt * k3, w)
            p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            p = p + dt * field(p, w)
        if not np.all(np.isfinite(p)):
            raise NumericDomainError(
                f"non-finite state at t = {(step + 1) * dt:.6g}", witness=p
            )
        pos[live] = p
        # merge pass: groups within merge_tol collapse onto the smallest id
        while len(live) > 1:
            arr = pos[live]
            diff = arr[:, None, :] - arr[None, :, :]
            sq = np.einsum("ijk,ijk->ij", diff, diff)
            iu = _triu_cache.get(len(live))
            if iu is None:
                iu = _triu_cache[len(live)] = np.triu_indices(len(live), k=1)
            hits = np.nonzero(sq[iu] <= config.merge_tol**2)[0]
            if hits.size == 0:
                break
            a_i, b_i = int(iu[0][hits[0]]), int(iu[1][hits[0]])
            ga, gb = live[a_i], live[b_i]
            wa, wb = grp_w[ga], grp_w[gb]
            pos[ga] = (wa * pos[ga] + wb * pos[gb]) / (wa + wb)
            grp_w[ga] = wa + wb
            rep[rep == gb] = ga
            merge_events.append(
                MergeEvent(
                    float((step + 1) * dt), int(ga), (int(gb),), tuple(pos[ga].tolist())
                )
            )
            live.pop(b_i)
        history[step + 1] = pos[rep]

    grid = dt * np.arange(n_steps + 1)
    grid[-1] = T
    paths = tuple(PiecewisePath(grid, history[:, i, :]) for i in range(k))
    ensemble = PathEnsemble(paths, mu0.weights, Provenance("limit-flow"))
    return LimitFlow(ensemble, tuple(merge_events), config, float(T))


@dataclass(frozen=True)
class ContractionReport:
    rows: tuple  # (t, lhs, rhs) per requested time
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(lhs <= rhs for _, lhs, rhs in self.rows)


def contraction_check(
    spec: PvfSpec,
    mu0a: DiscreteMeasure,
    mu0b: DiscreteMeasure,
    lam: float,
    times: Sequence[float],
    config: StickyFlowConfig | None = None,
) -> ContractionReport:
    """Checks W2(S_t mu0a, S_t mu0b) <= e^{lam t} W2(mu0a, mu0b) + c dt.

    The additive slack c*dt is the integrator tolerance declared in the config.
    """
    config = config or StickyFlowConfig()
    horizon = max(times)
    fa = sticky_flow(spec, mu0a, horizon, config)
    fb = sticky_flow(spec, mu0b, horizon, config)
    w0 = w2_distance(mu0a, mu0b)
    tol = config.tol_constant * config.dt
    rows = []
    for t in times:
        lhs = w2_distance(fa.measure_curve(t), fb.measure_curve(t))
        rhs = math.exp(lam * t) * w0 + tol
        rows.append((float(t), lhs, rhs))
    return ContractionReport(tuple(rows), tol)


def evi_residual(
    flow: LimitFlow,
    phi_test,
    times: Sequence[float],
    h: float,
    lam: float,
) -> list[float]:
    """Evolution-variational-inequality residuals of the flow against a test section.

    residual(t) = [W2^2(mu_{t+h}, x#Phi) - W2^2(mu_t, x#Phi)] / (2h)
                  - lam W2^2(mu_t, x#Phi) + [Phi, mu_t]_pairing;
    a genuine EVI solution keeps this below O(h) + O(dt).
    """
    if h <= 0:
        raise InputError("h must be positive")
    nu = phi_test.x_marginal()
    out = []
    for t in times:
        if t + h > flow.T + 1e-12:
            raise InputError(f"t + h = {t + h} beyond the flow horizon {flow.T}")
        mu_t = flow.measure_curve(t)
        mu_th = flow.measure_curve(t + h)
        w_t = w2_distance(mu_t, nu)
        w_th = w2_distance(mu_th, nu)
        res = (w_th**2 - w_t**2) / (2.0 * h) - lam * w_t**2 + bram_pairing(phi_test, mu_t)
        out.append(float(res))
    return out


@dataclass(frozen=True)
class StickyReport:
    passed: bool
    detail: str
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.passed


def sticky_property_check(
    ensemble: PathEnsemble,
    tol: float,
    mu0: DiscreteMeasure | None = None,
) -> StickyReport:
    """Verifies the sticky path properties P1-P3 on an ensemble's grid times.

    P1: paths are pairwise distinct as functions (some grid time separates
    them beyond tol).  P2: initial points match the declared mu0 atoms (skipped
    when mu0 is None).  P3: once two paths come within tol at a grid time they
    stay within tol at every later grid time.  The first violation is reported.
    """
    paths = ensemble.paths
    n = len(paths)
    grid = ensemble.common_grid()
    values = ensemble._nodes  # (n, K+1, d)
    if values is None:
        grid = paths[0].grid
        for p in paths[1:]:
            grid = np.union1d(grid, p.grid)
        values = np.stack([p(grid) for p in paths])
    if mu0 is not None:
        starts = coalesce(DiscreteMeasure(values[:, 0, :], ensemble.weights), 0.0)
        if not measures_close(starts, coalesce(mu0, 0.0), atom_tol=max(tol, 1e-12)):
            return StickyReport(False, "P2: initial points do not match mu0", None)
    for i in range(n):
        for j in range(i + 1, n):
            dist = np.linalg.norm(values[i] - values[j], axis=1)
            if np.all(dist <= tol):
                return StickyReport(
                    False, f"P1: paths {i} and {j} coincide at every grid time", (i, j)
                )
            close = np.nonzero(dist <= tol)[0]
            if close.size:
                first = int(close[0])
                later = dist[first:]
                if np.any(later > tol):
                    bad = first + int(np.argmax(later > tol))
                    return StickyReport(
                        False,
                        f"P3: paths {i} and {j} touch at t = {grid[first]:.6g} "
                        f"but separate at t = {grid[bad]:.6g}",
                        (i, j, float(grid[first]), float(grid[bad])),
                    )
    return StickyReport(True, "P1-P3 hold on the grid")
