"""The measure-level explicit Euler scheme and its exact lift to path space.

A run propagates M^{n+1} = exp_tau_push(Phi^n) with Phi^n the section selected
at M^n, subject to a velocity-moment stability bound L.  The multi-step plan
expands the Markov disintegration recursion exactly: each discrete trajectory
tuple is extended by every successor of its last coordinate with product
weights.  Pushing tuples through affine interpolation yields the exact path
ensemble, whose time evaluations and one-step joint laws reproduce the
interpolated measures and the selected sections; ``verify_marginals`` and
``verify_joint_law`` check those identities atom-by-atom.

Exact propagation is deterministic and single-threaded.  Atom and tuple caps
make tree blowup an explicit error rather than a silent stall; long-horizon
runs can opt into coalescing, which trades the exact lifting identities for
bounded support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, NumericDomainError, ResourceCapError, StabilityError
from .fields import PvfSpec, _section, evaluate_pvf
from .measure import (
    Coupling,
    DiscreteMeasure,
    TangentMeasure,
    TuplePlan,
    coalesce,
    exp_push,
    measures_close,
    tangent_measures_close,
    velocity_moment,
)
from .paths import PathEnsemble, PiecewisePath, Provenance

__all__ = [
    "DEFAULT_ATOM_CAP",
    "DEFAULT_TUPLE_CAP",
    "EulerRun",
    "PathEnsemble",
    "PiecewisePath",
    "Provenance",
    "VerifyReport",
    "build_path_ensemble",
    "interpolate_measure",
    "multi_step_plan",
    "piecewise_velocity",
    "run_explicit_euler",
    "sample_paths_monte_carlo",
    "single_step_plan",
    "verify_joint_law",
    "verify_marginals",
]

DEFAULT_ATOM_CAP = 200_000
DEFAULT_TUPLE_CAP = 1_000_000
_STAB_SLACK = 1e-10


def _final_step(T: float, tau: float) -> int:
    r = T / tau
    return int(math.ceil(r - 1e-13 * max(1.0, r)))


def _floor_step(t: float, tau: float) -> int:
    r = t / tau
    return int(math.floor(r + 1e-13 * max(1.0, r)))


@dataclass(frozen=True)
class EulerRun:
    """One L-stable solution of the scheme: measures M^0..M^N and sections Phi^0..Phi^{N-1}."""

    spec: PvfSpec
    tau: float
    T: float
    L: float
    measures: tuple
    sections: tuple
    coalesce_tol: float = 0.0

    @property
    def n_steps(self) -> int:
        return len(self.sections)

    @property
    def dim(self) -> int:
        return self.measures[0].dim

    def to_json_dict(self) -> dict:
        return {
            "tau": self.tau,
            "T": self.T,
            "L": self.L,
            "coalesce_tol": self.coalesce_tol,
            "measures": [m.to_json_dict() for m in self.measures],
            "sections": [s.to_json_dict() for s in self.sections],
        }


def _predicted_section_atoms(spec: PvfSpec, n_atoms: int) -> int:
    rule = _section(spec)
    return n_atoms * (n_atoms if rule.pairs else 1) * len(rule.terms)


def run_explicit_euler(
    spec: PvfSpec,
    mu0: DiscreteMeasure,
    tau: float,
    T: float,
    L: float,
    coalesce_tol: float = 0.0,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> EulerRun:
    """Iterate the scheme from mu0 with step tau up to the final step ceil(T/tau).

    Raises :class:`StabilityError` when a section's velocity moment exceeds L
    and :class:`ResourceCapError` when the support outgrows ``atom_cap`` (use
    Monte-Carlo sampling for such regimes).  ``coalesce_tol`` > 0 merges nearby
    atoms after each step; this keeps long exact runs bounded but breaks the
    exact lifting identities, so it is off by default.
    """
    if tau <= 0 or T <= 0 or L <= 0:
        raise InputError("tau, T, L must all be positive")
    if coalesce_tol < 0:
        raise InputError("coalesce_tol must be nonnegative")
    N = _final_step(T, tau)
    measures = [coalesce(mu0, 0.0)]
    sections = []
    for n in range(N):
        current = measures[-1]
        predicted = _predicted_section_atoms(spec, current.n_atoms)
        if predicted > max(atom_cap, 4) * 8:
            raise ResourceCapError(
                f"section at step {n} would hold {predicted} atoms; "
                "rerun in monte-carlo mode or coalesce",
                predicted=predicted,
                cap=atom_cap,
            )
        phi = evaluate_pvf(spec, current)
        moment = velocity_moment(phi)
        if moment > L + _STAB_SLACK:
            raise StabilityError(n, moment, L)
        sections.append(phi)
        nxt = exp_push(phi, tau)
        if coalesce_tol > 0.0:
            nxt = coalesce(nxt, coalesce_tol)
        if nxt.n_atoms > atom_cap:
            raise ResourceCapError(
                f"measure at step {n + 1} holds {nxt.n_atoms} atoms (cap {atom_cap}); "
                "rerun in monte-carlo mode or coalesce",
                predicted=nxt.n_atoms,
                cap=atom_cap,
            )
        measures.append(nxt)
    return EulerRun(spec, float(tau), float(T), float(L), tuple(measures), tuple(sections), coalesce_tol)


def single_step_plan(phi: TangentMeasure, tau: float) -> Coupling:
    """The joint law of (current position, next position) under one step."""
    if tau <= 0:
        raise InputError("tau must be positive")
    second = phi.positions + tau * phi.velocities
    return Coupling(
        phi.positions,
        second,
        phi.weights,
        phi.x_marginal(),
        coalesce(DiscreteMeasure(second, phi.weights), 0.0),
    )


def _successor_table(phi: TangentMeasure, tau: float):
    """Per-position successor rows and conditional weights of the single-step plan."""
    succ_rows: dict[bytes, list] = {}
    succ_w: dict[bytes, list] = {}
    mass: dict[bytes, float] = {}
    nxt = phi.positions + tau * phi.velocities
    for x, y, w in zip(phi.positions, nxt, phi.weights):
        key = x.tobytes()
        succ_rows.setdefault(key, []).append(y)
        succ_w.setdefault(key, []).append(w)
        mass[key] = mass.get(key, 0.0) + w
    return {
        key: (np.stack(rows), np.asarray(succ_w[key]) / mass[key])
        for key, rows in succ_rows.items()
    }


def multi_step_plan(run: EulerRun, cap: int = DEFAULT_TUPLE_CAP) -> TuplePlan:
    """The exact joint law of the whole discrete trajectory (x_0, ..., x_N).

    Built by the disintegration recursion, so restriction to the first n+1
    coordinates reproduces the n-step plan by construction.
    """
    mu0 = run.measures[0]
    pts = mu0.atoms[:, None, :].copy()
    weights = mu0.weights.copy()
    for n in range(run.n_steps):
        table = _successor_table(run.sections[n], run.tau)
        keys = [pts[i, -1, :].tobytes() for i in range(pts.shape[0])]
        counts = np.asarray([table[k][0].shape[0] for k in keys])
        predicted = int(counts.sum())
        if predicted > cap:
            raise ResourceCapError(
                f"multi-step plan would hold {predicted} tuples at step {n + 1} (cap {cap})",
                predicted=predicted,
                cap=cap,
            )
        rep = np.repeat(np.arange(pts.shape[0]), counts)
        new_last = np.concatenate([table[k][0] for k in keys], axis=0)
        cond_w = np.concatenate([table[k][1] for k in keys])
        pts = np.concatenate([pts[rep], new_last[:, None, :]], axis=1)
        weights = weights[rep] * cond_w
    return TuplePlan(pts, weights)


def interpolate_measure(run: EulerRun, t: float) -> DiscreteMeasure:
    """The affine interpolant M_tau(t) = exp^{t - n tau} push of Phi^n."""
    if t < 0 or t > run.T + 1e-12 * max(1.0, run.T):
        raise InputError(f"time {t} outside [0, {run.T}]")
    n = min(_floor_step(t, run.tau), run.n_steps - 1)
    return exp_push(run.sections[n], t - n * run.tau)


def piecewise_velocity(run: EulerRun, t: float) -> TangentMeasure:
    """The piecewise-constant section F_tau(t) = Phi^{floor(t/tau)}."""
    if t < 0 or t >= run.T:
        raise InputError(f"time {t} outside [0, {run.T})")
    n = min(_floor_step(t, run.tau), run.n_steps - 1)
    return run.sections[n]


def _clipped_grid(run: EulerRun) -> tuple[np.ndarray, bool]:
    N = run.n_steps
    grid = run.tau * np.arange(N + 1)
    overshoot = grid[-1] > run.T + 1e-12 * max(1.0, run.T)
    if overshoot:
        grid = grid.copy()
        grid[-1] = run.T
    return grid, overshoot


def build_path_ensemble(run: EulerRun, cap: int = DEFAULT_TUPLE_CAP) -> PathEnsemble:
    """The exact path lift: one piecewise-affine path per trajectory tuple.

    The grid is {0, tau, ..., N tau} clipped to [0, T]: when the final step
    overshoots, the last node is the affine evaluation of the final segment at T.
    """
    plan = multi_step_plan(run, cap)
    grid, overshoot = _clipped_grid(run)
    N = run.n_steps
    pts = plan.points
    if overshoot and N >= 1:
        frac = (run.T - run.tau * (N - 1)) / run.tau
        last = pts[:, N - 1, :] + frac * (pts[:, N, :] - pts[:, N - 1, :])
        pts = np.concatenate([pts[:, :N, :], last[:, None, :]], axis=1)
    paths = tuple(PiecewisePath(grid, pts[i]) for i in range(pts.shape[0]))
    return PathEnsemble(paths, plan.weights, Provenance("exact-tree"))


def _refuse_non_finite(values: np.ndarray, what: str, step: int, X: np.ndarray) -> None:
    """Raise NumericDomainError at the first particle whose row of ``values`` is not finite."""
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NumericDomainError(
            f"field produced a non-finite {what} at step {step} (particle {i})",
            witness=X[i].copy(),
        )


def sample_paths_monte_carlo(
    spec: PvfSpec,
    mu0: DiscreteMeasure,
    tau: float,
    T: float,
    sample_count: int,
    seed: int,
    noise_mode: str = "independent",
) -> PathEnsemble:
    """Monte-Carlo particle sampling of the stochastic flow, deterministic per seed.

    Per step, sampled fields draw one label per particle ("independent", the
    mode that reproduces M^n as the particle law) or one shared label for the
    whole population ("shared"); interaction fields draw a partner uniformly
    with replacement from the current population, independently of the
    particle's own index (self-pairing allowed: the independent-copy law is
    realized at the empirical level).  Each step calls each drawn label's
    kernel once, on all the particles that drew it.  A non-finite velocity, or
    a position that overflows, raises :class:`NumericDomainError` naming the
    step and the particle.
    """
    if sample_count < 1:
        raise InputError("sample_count must be >= 1")
    if tau <= 0 or T <= 0:
        raise InputError("tau and T must be positive")
    if noise_mode not in ("independent", "shared"):
        raise InputError(f"unknown noise mode {noise_mode!r}")
    rng = np.random.default_rng(seed)
    N = _final_step(T, tau)
    M = sample_count
    start_idx = rng.choice(mu0.n_atoms, size=M, p=mu0.weights)
    X = mu0.atoms[start_idx].copy()
    traj = np.empty((N + 1, M, mu0.dim))
    traj[0] = X

    rule = _section(spec)
    fns = [fn for _, _, fn in rule.terms]
    for n in range(N):
        Y = X[rng.integers(0, M, size=M)] if rule.pairs else None
        if rule.noise is None:
            groups = [(fns[0], slice(None))]
        elif noise_mode == "shared":
            groups = [(fns[rng.choice(len(fns), p=rule.noise.weights)], slice(None))]
        else:
            idx = rng.choice(len(fns), size=M, p=rule.noise.weights)
            groups = [(fn, np.flatnonzero(idx == k)) for k, fn in enumerate(fns)]
            groups = [(fn, rows) for fn, rows in groups if rows.size]
        mu_hat = None
        if rule.reads_measure:
            mu_hat = DiscreteMeasure(X.copy(), np.full(M, 1.0 / M))
        V = np.empty_like(X)
        for fn, rows in groups:
            V[rows] = fn(X[rows], None if Y is None else Y[rows], mu_hat)
        _refuse_non_finite(V, "velocity", n, X)
        with np.errstate(over="ignore"):  # reported just below, with its step
            X_next = X + tau * (rule.sign * V)
        _refuse_non_finite(X_next, "position", n, X)
        X = X_next
        traj[n + 1] = X

    grid = tau * np.arange(N + 1)
    if grid[-1] > T + 1e-12 * max(1.0, T):
        frac = (T - tau * (N - 1)) / tau
        traj[N] = traj[N - 1] + frac * (traj[N] - traj[N - 1])
        grid = grid.copy()
        grid[-1] = T
    paths = tuple(PiecewisePath(grid, traj[:, i, :]) for i in range(M))
    return PathEnsemble(
        paths, np.full(M, 1.0 / M), Provenance("monte-carlo", seed=seed, sample_count=M)
    )


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    detail: str

    def __bool__(self) -> bool:  # allows `ok, report = ...; if ok:` or truthiness
        return self.passed


def verify_joint_law(
    ensemble: PathEnsemble,
    run: EulerRun,
    n: int,
    atom_tol: float = 1e-9,
    weight_tol: float = 1e-12,
) -> VerifyReport:
    """Checks (e_{n tau}, (e_{(n+1) tau} - e_{n tau}) / tau) push = Phi^n.

    Only exact-tree ensembles qualify; Monte-Carlo ensembles call for a
    statistical comparison instead and are refused.
    """
    if ensemble.provenance.kind != "exact-tree":
        raise InputError("joint-law verification requires exact-tree provenance")
    if not 0 <= n <= run.n_steps - 2:
        raise InputError(f"step index {n} outside [0, N-2]")
    nodes = ensemble._nodes
    if nodes is None:
        pairs = np.stack([p.nodes[n : n + 2] for p in ensemble.paths])
    else:
        pairs = nodes[:, n : n + 2]
    x0, x1 = pairs[:, 0], pairs[:, 1]
    pushed = coalesce(TangentMeasure(x0, (x1 - x0) / run.tau, ensemble.weights), 0.0)
    ok = tangent_measures_close(pushed, run.sections[n], atom_tol, weight_tol)
    detail = "joint law matches section" if ok else (
        f"joint law at step {n} deviates from the selected section"
    )
    return VerifyReport(ok, detail)


def verify_marginals(
    ensemble: PathEnsemble,
    run: EulerRun,
    times: Sequence[float],
    atom_tol: float = 1e-12,
    weight_tol: float = 1e-12,
) -> VerifyReport:
    """Checks (e_t) push of the ensemble against the affine interpolant at each t."""
    if ensemble.provenance.kind != "exact-tree":
        raise InputError("marginal verification requires exact-tree provenance")
    times = list(times)
    for t in times:
        lhs = ensemble.evaluate(float(t))
        rhs = interpolate_measure(run, float(t))
        if not measures_close(lhs, rhs, atom_tol, weight_tol):
            return VerifyReport(False, f"marginal mismatch at t = {t}")
    return VerifyReport(True, f"marginals match at {len(times)} times")
