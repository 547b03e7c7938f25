"""Quantitative harness: action functionals, explicit bounds, sweeps, rate fits."""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, InsufficientDataError
from .euler import (
    DEFAULT_TUPLE_CAP,
    build_path_ensemble,
    run_explicit_euler,
    sample_paths_monte_carlo,
)
from .fields import PvfSpec
from .measure import DiscreteMeasure
from .paths import PathEnsemble, PiecewisePath
from .transport import wasserstein2_sup


def action_p(path: PiecewisePath, p: float) -> float:
    """The p-action of a piecewise-affine path: sum_k dt_k |slope_k|^p, exact."""
    if p < 1:
        raise InputError("p must be >= 1")
    if path.grid.shape[0] < 2:
        return 0.0
    dts = np.diff(path.grid)
    speeds = np.linalg.norm(path.slopes(), axis=1)
    return float(np.sum(dts * speeds**p))


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


def stability_rhs(w2_init: float, tau: float, C: float) -> float:
    """The stability right-hand side C (W2^{1/2} + tau^{1/4})."""
    if w2_init < 0 or tau < 0 or C < 0:
        raise InputError("w2_init, tau, C must be nonnegative")
    if w2_init >= 1 or tau >= 1:
        warnings.warn(
            "stability bound assumes W2 < 1 and tau < 1; inputs are outside its "
            "range of validity",
            stacklevel=2,
        )
    return C * (math.sqrt(w2_init) + tau**0.25)


@dataclass(frozen=True)
class BoundsReport:
    """Solvability radii: a-priori support bound, velocity bound, step threshold."""

    R_prime: float
    L: float
    tau_bar: float
    tau: float
    radii: tuple  # R_{0,tau} .. R_{K,tau}

    def to_json_dict(self) -> dict:
        return {
            "R_prime": self.R_prime,
            "L": self.L,
            "tau_bar": self.tau_bar,
            "tau": self.tau,
            "radii": list(self.radii),
        }


def solvability_bounds(
    R: float,
    a: float,
    T: float,
    rho: Callable[[float], float],
    tau: float | None = None,
) -> BoundsReport:
    """Support radius R', velocity bound L = rho(R'), threshold tau_bar, and radii.

    R' = e^{aT} (R^2 + T(1 + 2a))^{1/2} + 1 and tau_bar = min(L^{-2}, T); the
    radii follow R_{n+1}^2 = R_n^2 (1 + 2 a tau) + tau^2 L^2 + 2 a tau up to
    the final step for the given tau (default tau_bar / 2).  ``rho`` must be
    monotone in R; this is asserted per scenario, not checked here.
    """
    if R <= 0 or T <= 0 or a < 0:
        raise InputError("need R > 0, T > 0, a >= 0")
    R_prime = math.exp(a * T) * math.sqrt(R * R + T * (1.0 + 2.0 * a)) + 1.0
    L = float(rho(R_prime))
    if L < 0:
        raise InputError("rho must be nonnegative")
    tau_bar = T if L == 0.0 else min(L**-2, T)
    if tau is None:
        tau = tau_bar / 2.0
    if not 0.0 < tau < tau_bar:
        raise InputError(f"tau = {tau} must lie in (0, tau_bar) with tau_bar = {tau_bar}")
    K = int(math.ceil(T / tau - 1e-12))
    radii = [R]
    for _ in range(K):
        nxt = radii[-1] ** 2 * (1.0 + 2.0 * a * tau) + tau * tau * L * L + 2.0 * a * tau
        radii.append(math.sqrt(nxt))
    return BoundsReport(R_prime, L, tau_bar, float(tau), tuple(radii))


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
    cap: int,
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
        run = run_explicit_euler(spec, mu0, tau, T_row, L)
        ens = build_path_ensemble(run, cap)
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
    tuple_cap: int | None = None,
) -> SweepResult:
    """W2-sup distances of scheme lifts to a reference flow along a tau sweep.

    With ``steps`` None every row runs on the reference horizon [0, T]; with
    ``steps=N`` each row uses the fixed-depth horizon T_row = N * tau and the
    reference is restricted to it (exact trees grow exponentially in the step
    count, so fixed-T exact sweeps are only possible for non-branching fields).
    Fits require >= 3 usable rows spanning >= 2 octaves; otherwise the result
    carries a note instead of a rate.
    """
    taus = [float(t) for t in taus]
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise InputError("taus must be strictly decreasing")
    cap = tuple_cap if tuple_cap is not None else DEFAULT_TUPLE_CAP
    rows = [
        _sweep_row(spec, mu0, tau, reference, mode, L, steps, sample_count, seed + i, cap)
        for i, tau in enumerate(taus)
    ]
    fit_rows = [(t, e) for t, e, _ in rows if e > 1e-12]
    note = ""
    rate = constant = None
    if len(fit_rows) >= 3 and max(t for t, _ in fit_rows) / min(t for t, _ in fit_rows) >= 4.0:
        rate, constant = rate_fit(fit_rows, min_rows=3)
    else:
        note = "insufficient usable rows for a rate fit (all-zero errors or too narrow a span)"
    return SweepResult(tuple(rows), rate, constant, note)
