"""Quantitative harness: action functionals, explicit bounds, sweeps, rate fits."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, InsufficientDataError
from .euler import (
    DEFAULT_ATOM_CAP,
    DEFAULT_TUPLE_CAP,
    build_path_ensemble,
    run_explicit_euler,
    sample_paths_monte_carlo,
)
from .fields import PvfSpec
from .measure import DiscreteMeasure
from .paths import PathEnsemble
from .transport import wasserstein2_sup


def ensemble_action(e: PathEnsemble, p: float) -> float:
    """Weighted average of per-path p-actions."""
    if p < 1:
        raise InputError("p must be >= 1")
    dts = np.diff(e.grid)
    speeds = np.linalg.norm(np.diff(e.nodes, axis=1) / dts[:, None], axis=2)
    actions = np.sum(dts * speeds**p, axis=1)
    return float(sum(w * a for a, w in zip(actions, e.weights)))


def gronwall_envelope(sigma0: float, lam: float, L: float, T: float, tau: float) -> float:
    """The Gronwall bound sigma0 e^{lam+ T} + 8 L sqrt(T tau)(1 + |lam| sqrt(T tau)) e^{lam+ T}."""
    if sigma0 < 0 or L < 0 or T < 0 or tau < 0:
        raise InputError("sigma0, L, T, tau must be nonnegative")
    lam_plus = max(lam, 0.0)
    boost = math.exp(lam_plus * T)
    root = math.sqrt(T * tau)
    return sigma0 * boost + 8.0 * L * root * (1.0 + abs(lam) * root) * boost


@dataclass(frozen=True)
class BoundsReport:
    """Solvability radii: a-priori support bound, velocity bound, step threshold."""

    R_prime: float
    L: float
    tau_bar: float
    tau: float
    steps: int  # K, the steps to the horizon
    final_radius: float  # R_{K,tau}, the largest of R_{0,tau} .. R_{K,tau}

    def to_json_dict(self) -> dict:
        return {
            "R_prime": self.R_prime,
            "L": self.L,
            "tau_bar": self.tau_bar,
            "tau": self.tau,
            "steps": self.steps,
            "final_radius": self.final_radius,
        }


def velocity_bound(R: float, a: float, T: float, rho: Callable[[float], float]) -> tuple:
    """R' = e^{aT} (R^2 + T(1 + 2a))^{1/2} + 1 and L = rho(R'), or InputError."""
    if R <= 0 or T <= 0 or a < 0:
        raise InputError("need R > 0, T > 0, a >= 0")
    try:
        R_prime = math.exp(a * T) * math.sqrt(R * R + T * (1.0 + 2.0 * a)) + 1.0
        L = float(rho(R_prime))
    except OverflowError:
        R_prime = L = math.inf
    if not (math.isfinite(R_prime) and 0.0 <= L < math.inf):
        raise InputError(f"need a finite R' and a finite L = rho(R') >= 0; got {R_prime}, {L}")
    return R_prime, L


def solvability_bounds(
    R: float,
    a: float,
    T: float,
    rho: Callable[[float], float],
    tau: float | None = None,
) -> BoundsReport:
    """Support radius R', velocity bound L = rho(R'), threshold tau_bar, and final radius.

    R' and L are ``velocity_bound``'s, tau_bar = min(L^{-2}, T), and the
    radii follow R_{n+1}^2 = R_n^2 (1 + 2 a tau) + tau^2 L^2 + 2 a tau over
    the K steps to the horizon for the given tau (default tau_bar / 2).  As
    a >= 0 the recursion is nondecreasing, so R_K is the largest radius; it
    is the closed form R_K^2 = R^2 (1 + g) + (tau L^2 / (2a) + 1) g with
    g = (1 + 2 a tau)^K - 1, and R^2 + K tau^2 L^2 at a = 0.  ``rho`` must be
    monotone in R; this is asserted per scenario, not checked here.
    """
    R_prime, L = velocity_bound(R, a, T, rho)
    try:
        tau_bar = T if L == 0.0 else min(L**-2, T)
    except OverflowError:  # L**-2 is beyond the float range, so above T
        tau_bar = T
    if tau is None:
        tau = tau_bar / 2.0
    if not 0.0 < tau < tau_bar:
        raise InputError(f"tau = {tau} must lie in (0, tau_bar) with tau_bar = {tau_bar}")
    K = int(math.ceil(T / tau - 1e-12))
    if a == 0.0:
        sq = R * R + K * tau * tau * L * L
    else:
        try:
            g = math.expm1(K * math.log1p(2.0 * a * tau))
        except OverflowError:
            g = math.inf
        sq = R * R * (1.0 + g) + (tau * L * L / (2.0 * a) + 1.0) * g
    if not math.isfinite(sq):
        raise InputError(f"R_K^2 is beyond the float range (K = {K} steps of tau = {tau})")
    return BoundsReport(R_prime, L, tau_bar, float(tau), K, math.sqrt(sq))


def rate_fit(rows: Sequence[tuple], min_rows: int = 2) -> tuple[float, float]:
    """Least-squares power-law fit err ~ constant * tau^slope on (tau, err) rows.

    Rows with err <= 0 are dropped; raises :class:`InsufficientDataError` with
    "insufficient data" when fewer than ``min_rows`` usable rows remain.
    """
    usable = [(t, e) for t, e in rows if e > 0.0]
    if len(usable) < max(min_rows, 2):
        raise InsufficientDataError("insufficient data")
    lt = np.log([t for t, _ in usable])
    le = np.log([e for _, e in usable])
    slope, intercept = np.polyfit(lt, le, 1)
    return float(slope), float(math.exp(intercept))


def sweep_rate_fit(rows: Sequence[tuple]) -> tuple[float, float] | None:
    """The rate fit of sweep rows (tau, err, ...), or None when they do not qualify.

    Only rows with err > 1e-12 count, and they qualify when there are at least
    3 of them spanning at least 4x (two octaves) in tau.
    """
    fit_rows = [(t, e) for t, e, *_ in rows if e > 1e-12]
    taus = [t for t, _ in fit_rows]
    if len(fit_rows) < 3 or max(taus) / min(taus) < 4.0:
        return None
    return rate_fit(fit_rows, min_rows=3)


@dataclass(frozen=True)
class SweepResult:
    """Rows of (tau, W2-sup distance to reference, wall ms) plus the fitted law."""

    rows: tuple
    fitted_rate: float | None
    fitted_constant: float | None
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "rows": [
                {"tau": t, "w2sup": e, "wall_ms": ms} for t, e, ms in self.rows
            ],
            "fitted_rate": self.fitted_rate,
            "fitted_constant": self.fitted_constant,
            "note": self.note,
        }


def _sweep_row(
    spec: PvfSpec,
    mu0: DiscreteMeasure,
    tau: float,
    reference: PathEnsemble,
    mode: str,
    L: float,
    steps: int | None,
    sample_count: int,
    seed: int,
    caps: tuple[int, int],
) -> tuple[float, float, float]:
    t0 = time.perf_counter()
    if steps is None:
        T_row = reference.horizon
        ref_row = reference
    else:
        T_row = steps * tau
        if T_row > reference.horizon + 1e-12:
            raise InputError(
                f"row horizon {T_row} exceeds the reference horizon {reference.horizon}"
            )
        ref_row = reference.restricted(T_row)
    if mode == "exact":
        run = run_explicit_euler(spec, mu0, tau, T_row, L, caps[0])
        ens = build_path_ensemble(run, caps[1])
    elif mode == "monte-carlo":
        ens = sample_paths_monte_carlo(spec, mu0, tau, T_row, sample_count, seed)
    else:
        raise InputError(f"unknown sweep mode {mode!r}")
    err = wasserstein2_sup(ens, ref_row)
    return (tau, err, (time.perf_counter() - t0) * 1e3)


def convergence_sweep(
    spec: PvfSpec,
    mu0: DiscreteMeasure,
    taus: Sequence[float],
    reference: PathEnsemble,
    mode: str = "exact",
    L: float = 10.0,
    steps: int | None = None,
    sample_count: int = 1000,
    seed: int = 0,
    caps: tuple[int, int] = (DEFAULT_ATOM_CAP, DEFAULT_TUPLE_CAP),
) -> SweepResult:
    """W2-sup distances of scheme lifts to a reference flow along a tau sweep.

    With ``steps`` None every row runs on the reference horizon [0, T]; with
    ``steps=N`` each row uses the fixed-depth horizon T_row = N * tau and the
    reference is restricted to it (exact trees grow exponentially in the step
    count, so fixed-T exact sweeps are only possible for non-branching fields).
    ``caps`` is the (atoms, tuples) budget of each exact row.  The rate is
    :func:`sweep_rate_fit` of the rows; when they do not qualify the result
    carries a note instead of a rate.
    """
    taus = [float(t) for t in taus]
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise InputError("taus must be strictly decreasing")
    rows = [
        _sweep_row(spec, mu0, tau, reference, mode, L, steps, sample_count, seed + i, caps)
        for i, tau in enumerate(taus)
    ]
    fit = sweep_rate_fit(rows)
    if fit is None:
        note = "insufficient usable rows for a rate fit (all-zero errors or too narrow a span)"
        return SweepResult(tuple(rows), None, None, note)
    return SweepResult(tuple(rows), *fit)
