"""Probability-vector-field specifications and numerical dissipativity certifiers.

A ``PvfSpec`` describes one section selector: evaluating it at a discrete
measure yields exactly one tangent measure whose x-marginal is the input
measure (the structural condition of the scheme).  Multivalued experiments
supply several specs.  Field closures must be pure and reentrant.

A spec built with ``batched=True`` declares its closure array-native: given
an ``(n, d)`` array of points (and of partners, where the kind has them) it
returns ``(n, d)`` velocities whose row i equals the call on row i alone, bit
for bit.  The built-in scenarios and DSL fields declare it; any other closure
is called once per point.

The ``check_*`` functions are sample-based certifiers, not proofs: the
dissipativity conditions quantify over all measures and couplings, which has
no finite certificate, so reports carry explicit violation witnesses and an
empirically fitted best constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import InputError, NumericDomainError
from .measure import (
    Coupling,
    DiscreteMeasure,
    TangentCoupling,
    TangentMeasure,
    coalesce,
)

_CHECK_SLACK = 1e-10


@dataclass(frozen=True)
class NoiseSpace:
    """A finite label set with a probability vector."""

    labels: tuple
    weights: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        weights = np.asarray(self.weights, dtype=float).ravel()
        if len(labels) != weights.shape[0] or len(labels) < 1:
            raise InputError("labels and weights must have equal nonzero length")
        if np.any(weights <= 0) or abs(float(weights.sum()) - 1.0) > 1e-12:
            raise InputError("noise weights must be positive and sum to 1")
        object.__setattr__(self, "labels", labels)
        w = weights.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def uniform_noise(labels: Sequence) -> NoiseSpace:
    labels = tuple(labels)
    return NoiseSpace(labels, np.full(len(labels), 1.0 / len(labels)))


@dataclass(frozen=True)
class SampledField:
    """v = g(x, u) with u drawn from a finite noise space."""

    g: Callable[[np.ndarray, object], np.ndarray]
    noise: NoiseSpace
    batched: bool = False


@dataclass(frozen=True)
class InteractionField:
    """v = f(x, y) with the partner y drawn from the measure itself."""

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    batched: bool = False


@dataclass(frozen=True)
class StochasticInteractionField:
    """v = h(x, y, u): interaction partner plus an independent noise label."""

    h: Callable[[np.ndarray, np.ndarray, object], np.ndarray]
    noise: NoiseSpace
    batched: bool = False


@dataclass(frozen=True)
class NonlocalSampledField:
    """v = g(x, mu, u): the field may read the whole current measure."""

    g: Callable[[np.ndarray, DiscreteMeasure, object], np.ndarray]
    noise: NoiseSpace
    batched: bool = False


@dataclass(frozen=True)
class GradientSumField:
    """v = -grad H_u(x) for a finite family of potentials, uniform noise."""

    gradients: tuple
    batched: bool = False

    def __post_init__(self):
        grads = tuple(self.gradients)
        if len(grads) < 1:
            raise InputError("need at least one potential gradient")
        object.__setattr__(self, "gradients", grads)


PvfSpec = Union[
    SampledField,
    InteractionField,
    StochasticInteractionField,
    NonlocalSampledField,
    GradientSumField,
]


def _finite_or_raise(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``V`` unchanged, or NumericDomainError witnessed by the point of its first non-finite row."""
    finite = np.isfinite(V).all(axis=-1)
    if not finite.all():
        raise NumericDomainError(
            "field produced a non-finite velocity", witness=X[int(np.argmin(finite))].copy()
        )
    return V


def _per_point(fn: Callable) -> Callable:
    """The batch form of a per-point term: the one loop that calls a field once per point."""

    def batch(X, Y, mu):
        V = np.empty(X.shape)
        for i, x in enumerate(X):
            V[i] = fn(x, None if Y is None else Y[i], mu)
        return V

    return batch


@dataclass(frozen=True)
class _Section:
    """How a field kind expands atoms x into (partner y, label u) velocities.

    ``terms`` holds one ``(label, label_weight, fn)`` per label, with
    ``fn(X, Y, mu)`` bound to its label; interaction fields have the single
    term ``(None, 1.0, f)``.  fn takes a batch: points ``X`` of shape
    ``(n, d)``, partners ``Y`` of the same shape (None when ``pairs`` is
    false) and returns ``(n, d)`` velocities.  ``pairs``: partners are drawn
    from mu.  ``reads_measure``: fn reads mu (else mu is None).  ``sign``
    multiplies every velocity; consumers apply it once per stacked array or
    fold it into a coefficient.  ``noise`` is the label law, None when no
    label is drawn.
    """

    terms: tuple
    pairs: bool
    reads_measure: bool
    sign: float
    noise: NoiseSpace | None


def _section(spec: PvfSpec) -> _Section:
    """The section rule of a field spec: the one dispatch over field kinds."""
    pairs = reads_measure = False
    sign = 1.0
    if isinstance(spec, InteractionField):
        noise = None
        fns = [lambda x, y, mu, f=spec.f: f(x, y)]
        pairs = True
    elif isinstance(spec, GradientSumField):
        noise = uniform_noise(range(len(spec.gradients)))
        fns = [lambda x, y, mu, g=g: g(x) for g in spec.gradients]
        sign = -1.0
    elif isinstance(spec, SampledField):
        noise = spec.noise
        fns = [lambda x, y, mu, g=spec.g, u=u: g(x, u) for u in noise.labels]
    elif isinstance(spec, StochasticInteractionField):
        noise = spec.noise
        fns = [lambda x, y, mu, h=spec.h, u=u: h(x, y, u) for u in noise.labels]
        pairs = True
    elif isinstance(spec, NonlocalSampledField):
        noise = spec.noise
        fns = [lambda x, y, mu, g=spec.g, u=u: g(x, mu, u) for u in noise.labels]
        reads_measure = True
    else:
        raise InputError(f"unknown field spec {type(spec).__name__}")
    if not spec.batched:
        fns = [_per_point(fn) for fn in fns]
    if noise is None:
        terms = ((None, 1.0, fns[0]),)
    else:
        terms = tuple(zip(noise.labels, noise.weights, fns))
    return _Section(terms, pairs, reads_measure, sign, noise)


def evaluate_pvf(spec: PvfSpec, mu: DiscreteMeasure) -> TangentMeasure:
    """The tangent measure F[mu] selected by the spec at ``mu``.

    The x-marginal of the result equals ``mu``: velocities are attached to the
    existing atoms and only exact duplicate (x, v) pairs are merged.  Rows are
    expanded atom by atom, then partner by partner, then label by label, and
    each label's kernel is called once on all (atom, partner) rows.
    """
    rule = _section(spec)
    n, d = mu.atoms.shape
    X, wx = mu.atoms, mu.weights
    Y = None
    if rule.pairs:
        X, Y = np.repeat(mu.atoms, n, axis=0), np.tile(mu.atoms, (n, 1))
        wx = np.repeat(mu.weights, n) * np.tile(mu.weights, n)
    read = mu if rule.reads_measure else None
    V = np.empty((X.shape[0], len(rule.terms), d))
    for k, (_, _, fn) in enumerate(rule.terms):
        V[:, k] = _finite_or_raise(fn(X, Y, read), X)
    uw = np.array([uw for _, uw, _ in rule.terms])
    phi = TangentMeasure(
        np.repeat(X, len(rule.terms), axis=0),
        rule.sign * V.reshape(-1, d),
        (wx[:, None] * uw).ravel(),
    )
    return coalesce(phi, 0.0)


def _mean_velocity(
    rule: _Section, X: np.ndarray, atoms: np.ndarray, weights: np.ndarray, mu
) -> np.ndarray:
    """The barycentric velocity at each row of ``X`` against partners ``atoms``.

    Each label's kernel is called once on every (row, partner) pair.  The
    terms ``sign * wy * uw * v`` are then added partner by partner and label
    by label, starting from zero, as the per-point sum does, so row i equals
    the sum at ``X[i]`` alone bitwise.
    """
    m, d = X.shape
    if rule.pairs:
        k = atoms.shape[0]
        X, Y = np.repeat(X, k, axis=0), np.tile(atoms, (m, 1))
    else:
        k, Y, weights = 1, None, (1.0,)
    vals = [fn(X, Y, mu).reshape(m, k, d) for _, _, fn in rule.terms]
    out = np.zeros((m, d))
    for j, wy in enumerate(weights):
        for (_, uw, _), v in zip(rule.terms, vals):
            out += rule.sign * wy * uw * v[:, j]
    return out


def barycenter_field(spec: PvfSpec, x, mu: DiscreteMeasure) -> np.ndarray:
    """The barycentric velocity b(x, mu): the mean of the selected section at x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    rule = _section(spec)
    read = mu if rule.reads_measure else None
    return _finite_or_raise(_mean_velocity(rule, x, mu.atoms, mu.weights, read), x)[0]


# ---------------------------------------------------------------------------
# dissipativity and growth certifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DissipativityReport:
    """Outcome of a sample-based certifier.

    ``lambda_hat`` is the empirical best constant over the tested samples (the
    largest Rayleigh quotient, or the best growth constant for check_growth).
    ``violations`` holds witness tuples for every failed sample.
    """

    kind: str
    declared: float
    lambda_hat: float
    violations: tuple
    samples_tested: int

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "declared": self.declared,
            "lambda_hat": self.lambda_hat,
            "passed": self.passed,
            "n_violations": len(self.violations),
            "samples_tested": self.samples_tested,
        }


def check_one_sided_lipschitz(
    b: Callable[[np.ndarray], np.ndarray],
    samples: Sequence[tuple],
    lam: float,
) -> DissipativityReport:
    """Tests <b(x1)-b(x0), x1-x0> <= lam |x1-x0|^2 on the given point pairs."""
    violations = []
    lam_hat = -np.inf
    for x0, x1 in samples:
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        x1 = np.atleast_1d(np.asarray(x1, dtype=float))
        dx = x1 - x0
        sq = float(np.dot(dx, dx))
        if sq == 0.0:
            continue
        lhs = float(np.dot(np.asarray(b(x1)) - np.asarray(b(x0)), dx))
        lam_hat = max(lam_hat, lhs / sq)
        if lhs > lam * sq + _CHECK_SLACK:
            violations.append((x0.copy(), x1.copy(), lhs, lam * sq))
    return DissipativityReport(
        "one-sided-lipschitz", lam, lam_hat, tuple(violations), len(samples)
    )


def check_pair_dissipativity(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    samples: Sequence[tuple],
    lam: float,
) -> DissipativityReport:
    """Tests the doubled field (f(x,y), f(y,x)) for dissipativity on X x X.

    Each sample is a pair ((x0, y0), (x1, y1)).
    """
    violations = []
    lam_hat = -np.inf
    for (x0, y0), (x1, y1) in samples:
        x0, y0, x1, y1 = (np.atleast_1d(np.asarray(z, dtype=float)) for z in (x0, y0, x1, y1))
        dx, dy = x1 - x0, y1 - y0
        sq = float(np.dot(dx, dx) + np.dot(dy, dy))
        if sq == 0.0:
            continue
        dv = np.asarray(f(x1, y1)) - np.asarray(f(x0, y0))
        dw = np.asarray(f(y1, x1)) - np.asarray(f(y0, x0))
        lhs = float(np.dot(dv, dx) + np.dot(dw, dy))
        lam_hat = max(lam_hat, lhs / sq)
        if lhs > lam * sq + _CHECK_SLACK:
            violations.append(((x0, y0), (x1, y1), lhs, lam * sq))
    return DissipativityReport(
        "pair-dissipativity", lam, lam_hat, tuple(violations), len(samples)
    )


def product_disintegration_coupling(
    phi: TangentMeasure, psi: TangentMeasure, gamma: Coupling
) -> TangentCoupling:
    """The canonical coupling of two tangent measures along a spatial plan.

    Disintegrates each tangent measure over its positions and takes, above
    every atom of ``gamma``, the product of the two conditional velocity laws.
    """
    def conditionals(tm: TangentMeasure):
        groups: dict[bytes, list] = {}
        mass: dict[bytes, float] = {}
        for x, v, w in zip(tm.positions, tm.velocities, tm.weights):
            key = x.tobytes()
            groups.setdefault(key, []).append((v, w))
            mass[key] = mass.get(key, 0.0) + w
        return groups, mass

    g0, m0 = conditionals(phi)
    g1, m1 = conditionals(psi)
    x0s, v0s, x1s, v1s, ws = [], [], [], [], []
    for x0, x1, w in zip(gamma.first_atoms, gamma.second_atoms, gamma.weights):
        k0, k1 = x0.tobytes(), x1.tobytes()
        if k0 not in g0 or k1 not in g1:
            raise InputError("gamma is not a coupling of the tangent x-marginals")
        for v0, w0 in g0[k0]:
            for v1, w1 in g1[k1]:
                x0s.append(x0)
                v0s.append(v0)
                x1s.append(x1)
                v1s.append(v1)
                ws.append(w * (w0 / m0[k0]) * (w1 / m1[k1]))
    return TangentCoupling(
        np.stack(x0s), np.stack(v0s), np.stack(x1s), np.stack(v1s), np.asarray(ws),
        phi, psi,
    )


def check_total_dissipativity(
    phi0: TangentMeasure,
    phi1: TangentMeasure,
    couplings: Sequence[TangentCoupling],
    lam: float,
    gamma: Coupling | None = None,
) -> DissipativityReport:
    """Tests int <v1-v0, x1-x0> <= lam int |x1-x0|^2 against supplied couplings.

    In addition to the supplied plans, the canonical product-of-disintegrations
    coupling is always tested, built from ``gamma`` when given and from an
    optimal coupling of the x-marginals otherwise.
    """
    plans = list(couplings)
    if gamma is None:
        from .transport import optimal_coupling

        gamma = optimal_coupling(phi0.x_marginal(), phi1.x_marginal()).coupling
    plans.append(product_disintegration_coupling(phi0, phi1, gamma))
    violations = []
    lam_hat = -np.inf
    for idx, theta in enumerate(plans):
        dx = theta.x1 - theta.x0
        lhs = float(np.sum(theta.weights * np.sum((theta.v1 - theta.v0) * dx, axis=1)))
        sq = float(np.sum(theta.weights * np.sum(dx * dx, axis=1)))
        if sq > 0:
            lam_hat = max(lam_hat, lhs / sq)
        if lhs > lam * sq + _CHECK_SLACK:
            violations.append((idx, lhs, lam * sq))
    return DissipativityReport(
        "total-dissipativity", lam, lam_hat, tuple(violations), len(plans)
    )


def check_growth(
    spec: PvfSpec, mus: Sequence[DiscreteMeasure], a: float
) -> DissipativityReport:
    """Tests the support growth bound <v, x> <= a (1 + |x|^2) on evaluated fields."""
    violations = []
    a_hat = -np.inf
    tested = 0
    for mu in mus:
        phi = evaluate_pvf(spec, mu)
        for x, v in zip(phi.positions, phi.velocities):
            tested += 1
            lhs = float(np.dot(v, x))
            bound = 1.0 + float(np.dot(x, x))
            a_hat = max(a_hat, lhs / bound)
            if lhs > a * bound + _CHECK_SLACK:
                violations.append((x.copy(), v.copy(), lhs, a * bound))
    return DissipativityReport("growth", a, a_hat, tuple(violations), tested)


def support_bound(
    spec: PvfSpec, R: float, probes: int, seed: int = 0, *, dim: int
) -> float:
    """Empirical rho_R: the largest |(x, v)| of F[mu] over probed mu in B_R of R^dim.

    Probing is deterministic given the seed and always includes axis-aligned
    boundary Diracs, so suprema attained on the boundary are found.
    """
    if probes < 1:
        raise InputError("probes must be >= 1")
    if R < 0:
        raise InputError("R must be nonnegative")
    if not isinstance(dim, int) or dim < 1:
        raise InputError("dim must be an integer >= 1")
    rng = np.random.default_rng(seed)
    mus = [DiscreteMeasure(np.zeros((1, dim)), np.array([1.0]))]
    if R > 0:
        for k in range(dim):
            for sgn in (1.0, -1.0):
                x = np.zeros(dim)
                x[k] = sgn * R
                mus.append(DiscreteMeasure(x[None, :], np.array([1.0])))
        for _ in range(probes):
            k = int(rng.integers(1, 5))
            pts = rng.normal(size=(k, dim))
            norms = np.linalg.norm(pts, axis=1, keepdims=True)
            pts = pts / np.maximum(norms, 1e-12) * (R * rng.random((k, 1)) ** (1.0 / dim))
            w = rng.random(k)
            mus.append(DiscreteMeasure(pts, w / w.sum()))
    rho = 0.0
    for mu in mus:
        phi = evaluate_pvf(spec, mu)
        norms = np.sqrt(np.sum(phi.positions**2, axis=1) + np.sum(phi.velocities**2, axis=1))
        rho = max(rho, float(norms.max()))
    return rho
