"""Sticky-particle limit flow for finitely supported initial data.

The limit semigroup acts on a finite atom system: each atom follows the
barycentric field of the current weighted empirical measure, and atoms that
come within the collision radius merge (weight-weighted mean position, summed
weight) and evolve as one from then on, so the support cardinality never
increases.  One Lagrangian path is recorded per initial atom; merged atoms
share their tail trajectory through the same representative, which realizes
the path representation of the limit evolution exactly.

The atom ODE is integrated by an adaptive Dormand-Prince 5(4) pair held to a
private tolerance of 1e-13.  ``StickyFlowConfig.dt`` is the recording grid and
the smallest internal step; nodes on that grid come from the pair's dense
output, and merges are found at the grid's resolution.

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
from .measure import DiscreteMeasure, _first_non_finite, coalesce, measures_close
from .paths import PathEnsemble, Provenance
from .transport import _SUP_CHUNK_ELEMS, bram_pairing, w2_distance

_CONTRACTION_TOL_CONSTANT = 10.0  # contraction_check's declared integrator tolerance is this * dt


@dataclass(frozen=True)
class StickyFlowConfig:
    """Integrator controls: recording step, collision radius, one-step method.

    ``dt`` is the spacing of the recorded grid (shrunk so the grid lands on T)
    and the smallest internal step; merges are found at grid times.
    ``integrator`` is ``"rk4"``, the adaptive higher-order Runge-Kutta
    integrator (Dormand-Prince 5(4) with a private tolerance of 1e-13), or
    ``"explicit-euler-fine"``, fixed explicit-Euler steps of dt.
    """

    dt: float = 1e-3
    merge_tol: float = 1e-9
    integrator: str = "rk4"

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


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, vol. I, ch. II.4-II.6): the
# stage rows (the last row is the 5th-order solution, so its stage is f(y1),
# first-same-as-last), the weights of the embedded error estimate, and the
# coefficients of the free 4th-order dense output.
_DP_A = tuple(
    np.array(row)
    for row in (
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
)
_DP_E = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40))
_DP_D = np.array(
    (
        -12715105075 / 11282082432,
        0.0,
        87487479700 / 32700410799,
        -10690763975 / 1880347072,
        701980252875 / 199316789632,
        -1453857185 / 822651844,
        69997945 / 29380423,
    )
)
_DP_TOL = 1e-13  # relative and absolute tolerance of the adaptive reference


def _combine(coefs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """``sum_i coefs[i] * ks[i]`` over the first ``len(coefs)`` stages, as one product."""
    m = len(coefs)
    return (coefs @ ks[:m].reshape(m, -1)).reshape(ks.shape[1:])


def _dopri5_step(field, y, w, k1, h):
    """One Dormand-Prince step of size h from y, where k1 = field(y, w).

    Returns (y1, field(y1, w), error norm, dense output).  The error norm is
    Hairer's RMS of the embedded estimate scaled by tol + tol*max(|y|, |y1|);
    the dense output maps an array of step fractions theta in (0, 1] to the
    rows ``(len(theta), *y.shape)`` of the 4th-order interpolant.
    """
    ks = np.empty((len(_DP_E),) + y.shape)
    ks[0] = k1
    for i, row in enumerate(_DP_A, start=1):
        y1 = y + h * _combine(row, ks)
        ks[i] = field(y1, w)
    scale = _DP_TOL + _DP_TOL * np.maximum(np.abs(y), np.abs(y1))
    err = float(np.sqrt(np.mean((h * _combine(_DP_E, ks) / scale) ** 2)))

    def dense(theta):
        ydiff = y1 - y
        bspl = h * k1 - ydiff
        r4 = ydiff - h * ks[-1] - bspl
        r5 = h * _combine(_DP_D, ks)
        th = theta[:, None, None]
        th1 = 1.0 - th
        return y + th * (ydiff + th1 * (bspl + th * (r4 + th1 * r5)))

    return y1, ks[-1], err, dense


def _euler_step(field, y, w, k1, h):
    """One explicit-Euler step: fixed size, no error estimate, linear interpolant.

    The interpolant at theta = 1 is ``y + h*k1`` bitwise, the step itself.
    """

    def dense(theta):
        return y + (theta[:, None, None] * h) * k1

    return y + h * k1, None, None, dense


def _step_factor(err: float) -> float:
    """Step-size factor 0.9 * err^(-1/5), held to [0.2, 10] (0.2 if err is not finite)."""
    if err == 0.0:
        return 10.0
    if not math.isfinite(err):
        return 0.2
    return min(10.0, max(0.2, 0.9 * err**-0.2))


def _close_pairs(rows: np.ndarray, iu: tuple, tol2: float) -> np.ndarray:
    """Per row of ``rows (r, n, d)``, which atom pairs ``iu`` are within the merge radius."""
    diff = rows[:, iu[0]] - rows[:, iu[1]]
    return np.einsum("rpk,rpk->rp", diff, diff) <= tol2


def sticky_flow(
    spec: PvfSpec, mu0: DiscreteMeasure, T: float, config: StickyFlowConfig | None = None
) -> LimitFlow:
    """Integrate the limit flow of ``spec`` from ``mu0`` on [0, T].

    The recording grid is ``dt * arange(n + 1)`` with ``dt = T / n`` (``n =
    ceil(T / config.dt)``) and its last time set to T.  The default integrator
    is an embedded Dormand-Prince 5(4) pair with adaptive steps, held to a
    relative and absolute tolerance of 1e-13 (a private constant, not a
    setting).  Its step never goes below dt; at that floor a step is accepted
    whatever its error estimate, as a fixed step is, and only a last partial
    step that lands on T is shorter.  Every grid time inside an accepted step
    is recorded from the free 4th-order dense output, so the recorded nodes do
    not depend on where the internal steps fall.  A field that defeats error
    control (discontinuous or non-Lipschitz near the atoms) runs at the dt
    floor with 6 field evaluations a step; no built-in scenario is such a field.
    ``integrator="explicit-euler-fine"`` runs the same loop as a one-stage
    method with fixed steps of dt and a linear interpolant.

    Merges are found at recording-time resolution: the recorded rows are
    checked in order, in blocks that keep the pairwise transient near
    ``transport._SUP_CHUNK_ELEMS`` elements, and the first grid time at which
    two live atoms lie within ``merge_tol`` is where they merge (mass-weighted
    position, the smaller id survives).  The integrator then restarts from the
    merged configuration at that grid time.  Every recorded node is checked
    to be finite, and a non-finite state raises ``NumericDomainError`` naming
    the grid time.
    """
    if T <= 0:
        raise InputError("T must be positive")
    config = config or StickyFlowConfig()
    step = _dopri5_step if config.integrator == "rk4" else _euler_step
    mu0 = coalesce(mu0, 0.0)
    k = mu0.n_atoms
    d = mu0.dim
    n_steps = int(math.ceil(T / config.dt - 1e-12))
    dt = T / n_steps  # land exactly on T
    grid = dt * np.arange(n_steps + 1)
    grid[-1] = T
    live = list(range(k))  # live group ids; group id = smallest original atom id
    rep = np.arange(k)  # original atom -> its live group id
    pos = mu0.atoms.copy()  # positions indexed by group id (stale for dead groups)
    grp_w = mu0.weights.copy()
    history = np.empty((n_steps + 1, k, d))
    history[0] = mu0.atoms
    merge_events: list[MergeEvent] = []
    field = _velocity_fn(spec)
    tol2 = config.merge_tol**2

    # Time runs in units of dt: s is where the integrator stands, H its next
    # step, and node the first grid index not yet recorded (node = floor(s)+1).
    s, H, node, restart = 0.0, 1.0, 1, True
    while node <= n_steps:
        if restart:
            y, w, k1 = pos[live], grp_w[live], None
            col = np.searchsorted(live, rep)  # original atom -> row of y
            iu = np.triu_indices(len(live), k=1)
            block = max(1, _SUP_CHUNK_ELEMS // (len(live) ** 2 * d))
            restart = False
        if k1 is None:
            k1 = field(y, w)
        rest = n_steps - s
        H = min(max(H, 1.0), rest)
        y1, k_next, err, dense = step(field, y, w, k1, H * dt)
        H_next = H
        if err is not None:
            fac = _step_factor(err)
            if not err <= 1.0 and H > 1.0:  # rejected; at the floor every step stands
                H *= fac
                continue
            H_next = H * fac
        s1 = float(n_steps) if H == rest else s + H
        last = min(int(s1), n_steps)
        for a in range(node, last + 1, block):
            b = min(a + block, last + 1)
            rows = dense((np.arange(a, b) - s) / H)
            bad = _first_non_finite(rows)
            if bad is not None:
                raise NumericDomainError(
                    f"non-finite state at t = {grid[a + bad]:.6g}", witness=rows[bad]
                )
            hit = _close_pairs(rows, iu, tol2).any(axis=1)
            if not hit.any():
                history[a:b] = rows[:, col]
                continue
            j = a + int(np.argmax(hit))
            history[a:j] = rows[: j - a, col]
            pos[live] = rows[j - a]
            # merge pass: groups within merge_tol collapse onto the smallest id
            while len(live) > 1:
                iu = np.triu_indices(len(live), k=1)
                close = np.nonzero(_close_pairs(pos[live][None], iu, tol2)[0])[0]
                if close.size == 0:
                    break
                a_i, b_i = int(iu[0][close[0]]), int(iu[1][close[0]])
                ga, gb = live[a_i], live[b_i]
                wa, wb = grp_w[ga], grp_w[gb]
                pos[ga] = (wa * pos[ga] + wb * pos[gb]) / (wa + wb)
                grp_w[ga] = wa + wb
                rep[rep == gb] = ga
                merge_events.append(
                    MergeEvent(float(grid[j]), int(ga), (int(gb),), tuple(pos[ga].tolist()))
                )
                live.pop(b_i)
            history[j] = pos[rep]
            s, node, restart = float(j), j + 1, True
            break
        else:
            s, node, y, k1 = s1, last + 1, y1, k_next
        H = H_next

    nodes = history.transpose(1, 0, 2)
    ensemble = PathEnsemble(grid, nodes, mu0.weights, Provenance("limit-flow"))
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

    The additive slack c*dt is the declared integrator tolerance, with
    c = ``_CONTRACTION_TOL_CONSTANT`` and dt the config's recording step.
    """
    config = config or StickyFlowConfig()
    horizon = max(times)
    fa = sticky_flow(spec, mu0a, horizon, config)
    fb = sticky_flow(spec, mu0b, horizon, config)
    w0 = w2_distance(mu0a, mu0b)
    tol = _CONTRACTION_TOL_CONSTANT * config.dt
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
    n = ensemble.n_paths
    grid = ensemble.grid
    values = ensemble.nodes  # (n, K+1, d)
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
