"""Built-in scenario registry.

Each scenario bundles a field spec with the constants its certifiers and
bounds need: the dissipativity modulus of its barycentric field, the support
growth constant, the velocity growth constant L with
int |v|^2 dF[mu] <= L (1 + m2(mu)^2), and the local support bound rho_R.
Constants are declared with a short justification in a comment at the top
of each builder; the certifiers re-check them numerically on samples.  Every
field closure is elementwise numpy over its last axis, so it is array-native:
it takes ``(n, d)`` arrays and returns ``(n, d)`` velocities whose row i
equals the call on row i alone, bit for bit.

For the nonlocal scenario, continuity of b(x, mu) along equi-bounded
W2-converging sequences holds because the cylinder functional is a bounded
smooth function of a tanh moment; this is asserted here, not checked (no
finite certificate exists).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError
from .fields import (
    InteractionField,
    NonlocalSampledField,
    PvfSpec,
    SampledField,
    StochasticInteractionField,
    uniform_noise,
)
from .measure import DiscreteMeasure, dirac, mixture


@dataclass(frozen=True)
class Scenario:
    name: str
    dim: int
    spec: PvfSpec
    default_initial: DiscreteMeasure
    lambda_diss: float | None  # modulus of the barycentric field, None if not uniform
    growth_a: float | None  # support growth constant, None when no uniform one exists
    velocity_growth_L: float  # int |v|^2 <= L (1 + m2^2)
    rho: Callable[[float], float] | None  # local support bound, None if undeclared
    description: str = ""

    @property
    def has_bounds_data(self) -> bool:
        return self.growth_a is not None and self.rho is not None


def _sdf_linear() -> Scenario:
    # g(x, 1) = -x + 1, g(x, 2) = -x - 1; barycenter -x, so lambda = -1.
    # <v, x> = -x^2 +- x <= |x| <= (1 + x^2)/2, so a = 0.5.
    # int |g|^2 dU = x^2 + 1, so L = 1 exactly.
    spec = SampledField(lambda x, u: -x + u, uniform_noise([1.0, -1.0]))
    return Scenario(
        "sdf-linear",
        1,
        spec,
        dirac(0.0),
        lambda_diss=-1.0,
        growth_a=0.5,
        velocity_growth_L=1.0,
        rho=lambda R: math.sqrt(R * R + (R + 1.0) ** 2),
        description="two-label linear stochastic field with barycenter -x",
    )


_GS_SCALES = (0.5, 1.0, 1.5)
_GS_CENTERS = (np.array([1.0, 0.0]), np.array([-1.0, 1.0]), np.array([0.0, -1.0]))


def _gradient_sum() -> Scenario:
    # v = -grad H_u(x) with H_u(x) = a_u |x - c_u|^2 / 2 and the index u drawn
    # uniformly, as in stochastic gradient descent; mean slope 1.0 gives lambda = -1.
    # max_u a_u |c_u| / 2 = 0.75 bounds the growth constant.
    # |v_u|^2 <= 2 a_u^2 max(1, |c_u|^2)(1 + |x|^2); averaging gives L = 3.
    spec = SampledField(lambda x, u: -_GS_SCALES[u] * (x - _GS_CENTERS[u]), uniform_noise(range(3)))
    return Scenario(
        "gradient-sum",
        2,
        spec,
        dirac([0.0, 0.0]),
        lambda_diss=-1.0,
        growth_a=0.75,
        velocity_growth_L=3.0,
        rho=lambda R: math.sqrt(R * R + (1.5 * (R + 1.0)) ** 2),
        description="uniform mixture of three anisotropically centered quadratics",
    )


def _idf_attract() -> Scenario:
    # f(x, y) = y - x is pair-dissipative at 0; no uniform support growth
    # constant exists over all bounded measures, so bounds data is undeclared.
    # int int |y - x|^2 dmu dmu <= 4 m2^2 gives L = 4.
    spec = InteractionField(lambda x, y: y - x)
    return Scenario(
        "idf-attract",
        1,
        spec,
        mixture([-1.0, 1.0], [0.5, 0.5]),
        lambda_diss=0.0,
        growth_a=None,
        velocity_growth_L=4.0,
        rho=None,
        description="mean-reverting interaction kernel y - x",
    )


_CYL_SHIFT = np.array([0.25, 0.25])


def _cyl_gain(mu: DiscreteMeasure) -> float:
    m = float(np.sum(mu.weights * np.tanh(mu.atoms[:, 0])))
    return m * m / (1.0 + m * m)


def _nonlocal_cylinder() -> Scenario:
    # b(x, mu) = -(1 + gain(mu)) x with gain in [0, 1) read off a tanh moment;
    # the label flips a constant shift, so <v, x> <= |shift||x| gives a = 0.2
    # and |v| <= 2R + |shift| gives rho_R.  (2|x| + 0.36)^2 <= 8(1 + |x|^2)
    # gives L = 8.
    def g(x, mu, u):
        return -(1.0 + _cyl_gain(mu)) * x + u * _CYL_SHIFT

    spec = NonlocalSampledField(g, uniform_noise([1.0, -1.0]))
    return Scenario(
        "nonlocal-cylinder",
        2,
        spec,
        mixture([[0.5, 0.0], [-0.5, 0.3]], [0.5, 0.5]),
        lambda_diss=None,
        growth_a=0.2,
        velocity_growth_L=8.0,
        rho=lambda R: math.sqrt(R * R + (2.0 * R + 0.36) ** 2),
        description="cylinder field: contraction rate driven by a tanh moment",
    )


def _stochastic_idf() -> Scenario:
    # h(x, y, u) = u (y - x) with labels {0.5, 1.5}; the mean field is y - x.
    # E[u^2] = 1.25 and |y - x|^2 <= 2(|x|^2 + |y|^2) give L = 5.
    spec = StochasticInteractionField(lambda x, y, u: u * (y - x), uniform_noise([0.5, 1.5]))
    return Scenario(
        "stochastic-idf",
        1,
        spec,
        mixture([-1.0, 1.0], [0.5, 0.5]),
        lambda_diss=0.0,
        growth_a=None,
        velocity_growth_L=5.0,
        rho=None,
        description="interaction kernel with a random gain of mean one",
    )


_REGISTRY: dict[str, Callable[[], Scenario]] = {
    "sdf-linear": _sdf_linear,
    "gradient-sum": _gradient_sum,
    "idf-attract": _idf_attract,
    "nonlocal-cylinder": _nonlocal_cylinder,
    "stochastic-idf": _stochastic_idf,
}


def scenario_names() -> tuple:
    return tuple(sorted(_REGISTRY))


def scenario(name: str) -> Scenario:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise InputError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        ) from None
