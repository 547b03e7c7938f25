"""Probability-vector-field specifications and numerical dissipativity certifiers.

A ``PvfSpec`` describes one section selector: evaluating it at a discrete
measure yields exactly one tangent measure whose x-marginal is the input
measure (the structural condition of the scheme).  Multivalued experiments
supply several specs.  Field closures must be pure and reentrant.  There are
four kinds, one per way of drawing the velocity; a gradient sum
v = -grad H_u(x), u drawn from a finite law (stochastic gradient descent), is
a ``SampledField``.

Field closures are array-native: given an ``(n, d)`` array of points (and
of partners, where the kind has them) a closure returns ``(n, d)`` velocities
whose row i equals the call on row i alone, bit for bit.  Each label's
closure is called once on a whole batch.

The ``check_*`` functions are sample-based certifiers, not proofs: the
dissipativity conditions quantify over all measures and couplings, which has
no finite certificate, so each ``Check`` carries a witness per failed sample
and the empirically fitted best constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import InputError, NumericDomainError
from .measure import (
    DiscreteMeasure,
    TangentMeasure,
    _check_weights,
    _disintegrate,
    _first_non_finite,
    _freeze,
    barycentric_projection,
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
        _check_weights(weights)
        if len(labels) != weights.shape[0]:
            raise InputError("labels and weights must have equal length")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", _freeze(weights.copy()))


def uniform_noise(labels: Sequence) -> NoiseSpace:
    labels = tuple(labels)
    return NoiseSpace(labels, np.full(len(labels), 1.0 / len(labels)))


@dataclass(frozen=True)
class SampledField:
    """v = g(x, u) with u drawn from a finite noise space."""

    g: Callable[[np.ndarray, object], np.ndarray]
    noise: NoiseSpace


@dataclass(frozen=True)
class InteractionField:
    """v = f(x, y) with the partner y drawn from the measure itself."""

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class StochasticInteractionField:
    """v = h(x, y, u): interaction partner plus an independent noise label."""

    h: Callable[[np.ndarray, np.ndarray, object], np.ndarray]
    noise: NoiseSpace


@dataclass(frozen=True)
class NonlocalSampledField:
    """v = g(x, mu, u): the field may read the whole current measure."""

    g: Callable[[np.ndarray, DiscreteMeasure, object], np.ndarray]
    noise: NoiseSpace


PvfSpec = Union[
    SampledField,
    InteractionField,
    StochasticInteractionField,
    NonlocalSampledField,
]


def _finite_or_raise(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``V`` unchanged, or NumericDomainError witnessed by the point of its first non-finite row."""
    bad = _first_non_finite(V)
    if bad is not None:
        raise NumericDomainError("field produced a non-finite velocity", witness=X[bad].copy())
    return V


@dataclass(frozen=True)
class _Section:
    """How a field kind expands atoms x into (partner y, label u) velocities.

    ``terms`` holds one ``(label, label_weight, fn)`` per label, with
    ``fn(X, Y, mu)`` bound to its label; interaction fields have the single
    term ``(None, 1.0, f)``.  fn takes a batch: points ``X`` of shape
    ``(n, d)``, partners ``Y`` of the same shape (None when ``pairs`` is
    false) and returns ``(n, d)`` velocities.  ``pairs``: partners are drawn
    from mu.  ``reads_measure``: fn reads mu (else mu is None).  ``noise``
    is the label law, None when no label is drawn.
    """

    terms: tuple
    pairs: bool
    reads_measure: bool
    noise: NoiseSpace | None


def _section(spec: PvfSpec) -> _Section:
    """The section rule of a field spec: the one dispatch over field kinds."""
    pairs = reads_measure = False
    if isinstance(spec, InteractionField):
        noise = None
        fns = [lambda x, y, mu, f=spec.f: f(x, y)]
        pairs = True
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
    if noise is None:
        terms = ((None, 1.0, fns[0]),)
    else:
        terms = tuple(zip(noise.labels, noise.weights, fns))
    return _Section(terms, pairs, reads_measure, noise)


def evaluate_pvf(spec: PvfSpec, mu: DiscreteMeasure) -> TangentMeasure:
    """The tangent measure F[mu] selected by the spec at ``mu``.

    The x-marginal of the result equals ``mu``: velocities are attached to the
    existing atoms and only exact duplicate (x, v) pairs are merged.  Rows are
    expanded atom by atom, then partner by partner, then label by label, and
    each label's kernel is called once on all (atom, partner) rows.  A row
    weight (atom weight, times partner weight, times label weight) that
    underflows to 0 raises NumericDomainError, witnessed by its atom.
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
    W = (wx[:, None] * np.array([uw for _, uw, _ in rule.terms])).ravel()
    if not W.all():
        i = int(np.argmin(W)) // len(rule.terms)
        raise NumericDomainError("a section weight underflows to 0", witness=X[i].copy())
    return coalesce(TangentMeasure(np.repeat(X, len(rule.terms), axis=0), V.reshape(-1, d), W), 0.0)


def _mean_velocity(
    rule: _Section, X: np.ndarray, atoms: np.ndarray, weights: np.ndarray, mu
) -> np.ndarray:
    """The barycentric velocity at each row of ``X`` against partners ``atoms``.

    Each label's kernel is called once on every (row, partner) pair.  The
    terms ``wy * uw * v`` are then added partner by partner and label
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
            out += wy * uw * v[:, j]
    return out


def barycenter_field(spec: PvfSpec, x, mu: DiscreteMeasure) -> np.ndarray:
    """The barycentric velocity b(x, mu): the mean of the selected section at x.

    ``x`` is one point ``(d,)``, or a batch ``(n, d)`` whose row i of the
    result equals the call on ``x[i]`` alone, bit for bit.
    """
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    rule = _section(spec)
    read = mu if rule.reads_measure else None
    V = _finite_or_raise(_mean_velocity(rule, X, mu.atoms, mu.weights, read), X)
    return V if x.ndim == 2 else V[0]


# ---------------------------------------------------------------------------
# dissipativity and growth certifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """The outcome of one certifier that ``verify`` runs; unmeasured fields are None.

    ``value`` is the measured quantity and ``bound`` what it is held to: for
    the sample-based certifiers, the best constant over the ``samples``
    tested (the largest Rayleigh quotient, or the best growth constant) and
    the declared one, with one ``witness`` tuple per failed sample.
    """

    passed: bool
    detail: str
    value: float | None = None
    bound: float | None = None
    witness: tuple | None = None
    samples: int | None = None


def _sample_array(samples, shape: tuple) -> np.ndarray:
    """A copy of ``samples`` as an ``(n, *shape, d)`` float array; ``d`` = 0 for no samples."""
    S = np.array(samples, dtype=float)
    return S.reshape(len(S), *shape, S.shape[-1])


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise <a, b>, summed from -0.0: in 1-d the product itself, a signed zero too."""
    return np.sum(a * b, axis=1, initial=-0.0)


def _check(kind, declared, lhs, scale, witness) -> Check:
    """The check of samples whose condition is ``lhs <= declared * scale``.

    ``value`` is the largest ``lhs / scale``, the first of equal ones
    (so -0.0 before 0.0 stays -0.0).  A sample with ``scale`` 0 (two equal
    points) is skipped but counted as tested.  A failed sample i is
    witnessed by ``(*witness[i], lhs[i], declared * scale[i])``.
    """
    keep = scale != 0.0
    bound = declared * scale
    ratio = lhs[keep] / scale[keep]
    lam_hat = float(ratio[np.argmax(ratio)]) if ratio.size else -np.inf
    bad = np.flatnonzero(keep & (lhs > bound + _CHECK_SLACK))
    violations = tuple((*witness[i], float(lhs[i]), float(bound[i])) for i in bad)
    return Check(not violations, kind, lam_hat, declared, violations, len(lhs))


def check_one_sided_lipschitz(b: Callable[[np.ndarray], np.ndarray], samples, lam: float) -> Check:
    """Tests <b(x1)-b(x0), x1-x0> <= lam |x1-x0|^2 on point pairs.

    ``samples`` is an ``(n, 2, d)`` array of pairs (x0, x1), or a list of
    them; ``b`` is array-native and called once on all x0 and once on all x1.
    """
    S = _sample_array(samples, (2,))
    X0, X1 = S.swapaxes(0, 1)
    dx = X1 - X0
    return _check("one-sided-lipschitz", lam, _inner(b(X1) - b(X0), dx), _inner(dx, dx), S)


def check_pair_dissipativity(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], samples, lam: float
) -> Check:
    """Tests the doubled field (f(x,y), f(y,x)) for dissipativity on X x X.

    ``samples`` is an ``(n, 2, 2, d)`` array of pairs ((x0, y0), (x1, y1)),
    or a list of them; ``f`` is array-native and called once per argument
    order and side.
    """
    S = _sample_array(samples, (2, 2))
    (X0, Y0), (X1, Y1) = np.moveaxis(S, 0, 2)
    dx, dy = X1 - X0, Y1 - Y0
    dv, dw = f(X1, Y1) - f(X0, Y0), f(Y1, X1) - f(Y0, X0)
    lhs = _inner(dv, dx) + _inner(dw, dy)
    return _check("pair-dissipativity", lam, lhs, _inner(dx, dx) + _inner(dy, dy), S)


def check_total_dissipativity(phi0: TangentMeasure, phi1: TangentMeasure, lam: float) -> Check:
    """Tests int <v1-v0, x1-x0> <= lam int |x1-x0|^2 on the canonical coupling.

    The canonical coupling takes, above each atom (x0, x1) of an optimal plan
    gamma between the positions, the product of the two conditional velocity
    laws.  Both integrands are affine in each velocity, so the velocities
    integrate out to their conditional means b0(x0) and b1(x1), the
    barycentric projections: the integrals are sum gamma <b1(x1) - b0(x0),
    x1 - x0> and sum gamma |x1 - x0|^2.  gamma is ``optimal_coupling``
    between the projections' positions; the violation witness is ``(0, lhs,
    lam * sq)``.
    """
    from .transport import optimal_coupling

    p0, p1 = barycentric_projection(phi0), barycentric_projection(phi1)
    gamma = optimal_coupling(p0.x_marginal(), p1.x_marginal()).coupling
    _, s0, order0, _ = _disintegrate(p0, gamma.first_atoms)
    _, s1, order1, _ = _disintegrate(p1, gamma.second_atoms)
    dx = gamma.second_atoms - gamma.first_atoms
    dv = p1.velocities[order1[s1]] - p0.velocities[order0[s0]]
    lhs = np.sum(gamma.weights * np.sum(dv * dx, axis=1))
    sq = np.sum(gamma.weights * np.sum(dx * dx, axis=1))
    return _check("total-dissipativity", lam, np.array([lhs]), np.array([sq]), [(0,)])


def check_growth(spec: PvfSpec, mus: Sequence[DiscreteMeasure], a: float) -> Check:
    """Tests the support growth bound <v, x> <= a (1 + |x|^2) on evaluated fields.

    Every row (x, v) of every section ``evaluate_pvf(spec, mu)`` is a sample.
    """
    phis = [evaluate_pvf(spec, mu) for mu in mus]
    rows = [np.stack((phi.positions, phi.velocities), axis=1) for phi in phis]
    S = np.concatenate(rows) if rows else np.empty((0, 2, 0))
    X, V = S.swapaxes(0, 1)
    return _check("growth", a, _inner(V, X), 1.0 + _inner(X, X), S)
