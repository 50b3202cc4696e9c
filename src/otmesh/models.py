"""Mechanical Lagrangians of kinetic-minus-potential form on flat R^n.

A model bundles L(x, v) = (m/2)|v|^2 - V(x) with the derivatives and growth
constants that the solvers and the horizon bounds need.  Potentials and their
gradients must be vectorized: they map arrays of shape (..., n) to shapes
(...) and (..., n) respectively, so that quadrature and diagnostics can
evaluate them in batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError

#: Batched map from points (..., n) to values (...) or vectors (..., n).
BatchFn = Callable[[np.ndarray], np.ndarray]


def as_point(x) -> np.ndarray:
    """Coerce a scalar or sequence to a finite 1-D float vector."""
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.ndim != 1:
        raise ValueError(f"expected a single point, got array of shape {pt.shape}")
    if not np.all(np.isfinite(pt)):
        raise ValueError("point has non-finite coordinates")
    return pt


def _require_same_dim(x: np.ndarray, v: np.ndarray, names="x, v") -> None:
    if x.shape != v.shape:
        raise DimensionMismatchError(
            f"{names} must share one dimension, got {x.shape[0]} and {v.shape[0]}"
        )


@dataclass(frozen=True)
class LagrangianModel:
    """Lagrangian L(x, v) = (m/2)|v|^2 - V(x) with its derivatives and constants.

    Parameters
    ----------
    mass
        Particle mass m > 0.
    potential, grad_potential
        V and its gradient, both batched over leading axes.
    hess_bound
        Map from a radius R to an upper bound on the operator norm of the
        potential's Hessian over the ball |x| <= R.  The library does not
        read it: the minimality certificate of the boundary-value solver
        bounds the Hessians it evaluates, so a wrong bound cannot hide a
        saddle.  The quadrature-error checks in the tests bound the gap
        between midpoint and continuous action by
        h^2 * hess_bound(R) * int |v|^2, so every model must supply one.
    quadratic_growth
        Constant c with |V(x)| <= c (1 + |x|^2) on the working region;
        validated on sample grids, not proven.
    potential_sup
        sup |V| when the potential is bounded, else None.
    hess_potential
        Optional analytic Hessian, batched, shape (..., n, n).  When absent
        the implicit solvers fall back to forward differences of the gradient.
    name, params
        Catalog identity; "custom" for user-supplied potentials.  Closed-form
        transport costs are dispatched on the name.

    The reference point for all growth statements is the origin of R^n.
    Instances are immutable.
    """

    mass: float
    potential: BatchFn
    grad_potential: BatchFn
    hess_bound: Callable[[float], float]
    quadratic_growth: float
    potential_sup: Optional[float] = None
    hess_potential: Optional[BatchFn] = None
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not self.quadratic_growth > 0:
            raise ValueError(
                f"quadratic growth constant must be positive, got {self.quadratic_growth}"
            )

    # -- derived constants -------------------------------------------------

    @property
    def bounded_potential(self) -> bool:
        return self.potential_sup is not None

    @property
    def kinetic_convexity(self) -> float:
        """Lower bound on the velocity Hessian of L (equals m for this family)."""
        return self.mass

    @property
    def kinetic_coercivity(self) -> float:
        """Coefficient of |v|^2 in the lower bound L >= c1 |v|^2 - c2 (1 + |x|^2)."""
        return 0.5 * self.mass

    # -- pointwise evaluations ---------------------------------------------

    def lagrangian(self, x, v) -> float:
        """L(x, v) = (m/2)|v|^2 - V(x)."""
        x, v = as_point(x), as_point(v)
        _require_same_dim(x, v)
        return 0.5 * self.mass * float(v @ v) - float(self.potential(x))

    def hamiltonian(self, x, p) -> tuple[float, np.ndarray]:
        """Legendre transform of L in the velocity.

        Returns the pair (H, v) where H(x, p) = |p|^2 / (2m) + V(x) and
        v = p / m is the maximizing velocity.
        """
        x, p = as_point(x), as_point(p)
        _require_same_dim(x, p, names="x, p")
        v = p / self.mass
        return float(p @ p) / (2.0 * self.mass) + float(self.potential(x)), v

    def energy(self, x, v) -> float:
        """Total energy (m/2)|v|^2 + V(x), conserved along extremals."""
        x, v = as_point(x), as_point(v)
        _require_same_dim(x, v)
        return 0.5 * self.mass * float(v @ v) + float(self.potential(x))

    def admissible_horizon(self, scheme: str = "midpoint") -> float:
        """Longest time span with guaranteed coercivity of the action.

        Returns +inf for bounded potentials.  Otherwise sqrt(m / (8 c2)) for
        the continuous action and the stricter sqrt(m / (32 c2)) for the
        midpoint-discretized one.
        """
        if scheme not in ("continuous", "midpoint"):
            raise ValueError(f"unknown scheme {scheme!r}")
        if self.bounded_potential:
            return math.inf
        if scheme == "continuous":
            # c1 / (4 c2) with c1 = m/2
            return math.sqrt(self.mass / (8.0 * self.quadratic_growth))
        return math.sqrt(self.mass / (32.0 * self.quadratic_growth))

    # -- validation helpers -------------------------------------------------

    def check_quadratic_growth(self, points: np.ndarray) -> float:
        """Largest |V(x)| - c2 (1 + |x|^2) over the sample; <= 0 when valid."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.abs(np.asarray(self.potential(pts), dtype=float))
        bound = self.quadratic_growth * (1.0 + np.sum(pts * pts, axis=-1))
        return float(np.max(vals - bound))

    def check_gradient(self, points: np.ndarray) -> float:
        """Max relative error of grad_potential vs central differences of V."""
        step = 1e-5
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        worst = 0.0
        for x in pts:
            g = as_point(self.grad_potential(x))
            fd = np.empty_like(g)
            for i in range(x.size):
                e = np.zeros_like(x)
                e[i] = step
                fd[i] = (float(self.potential(x + e)) - float(self.potential(x - e))) / (2 * step)
            scale = max(1.0, float(np.max(np.abs(g))))
            worst = max(worst, float(np.max(np.abs(fd - g))) / scale)
        return worst


# ---------------------------------------------------------------------------
# Built-in model catalog
# ---------------------------------------------------------------------------


def _shape(x) -> tuple:
    """np.shape(x); an array's own shape is read without numpy's dispatch."""
    shape = getattr(x, "shape", None)
    return np.shape(x) if shape is None else shape


def free_particle(mass: float = 1.0) -> LagrangianModel:
    """V = 0; extremals are straight lines, cost m|y-x|^2 / (2(b-a))."""
    return LagrangianModel(
        mass=mass,
        potential=lambda x: np.zeros(_shape(x)[:-1]),
        grad_potential=lambda x: np.zeros(_shape(x)),
        hess_bound=lambda radius: 0.0,
        quadratic_growth=1.0,
        potential_sup=0.0,
        hess_potential=lambda x: np.zeros(_shape(x) + (_shape(x)[-1],)),
        name="free_particle",
        params={"mass": mass},
    )


def harmonic_oscillator(mass: float = 1.0, stiffness: float = 1.0) -> LagrangianModel:
    """V(x) = (k/2)|x|^2; unbounded, so the horizon bounds are finite."""
    if stiffness <= 0:
        raise ValueError("stiffness must be positive")
    k = float(stiffness)

    def hess(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        return np.broadcast_to(k * np.eye(n), x.shape + (n,)).copy()

    return LagrangianModel(
        mass=mass,
        potential=lambda x: 0.5 * k * np.sum(np.square(x), axis=-1),
        grad_potential=lambda x: k * np.asarray(x, dtype=float),
        hess_bound=lambda radius: k,
        quadratic_growth=0.5 * k,
        potential_sup=None,
        hess_potential=hess,
        name="harmonic",
        params={"mass": mass, "stiffness": k},
    )


def double_well(mass: float = 1.0, validation_radius: float = 3.0) -> LagrangianModel:
    """V(x) = (|x|^2 - 1)^2, two minima on the unit sphere.

    Quartic growth, so the quadratic-growth constant is only valid inside the
    stated validation radius; it is chosen as the tight maximum of
    |V| / (1 + |x|^2) there.
    """
    if validation_radius <= 0:
        raise ValueError("validation radius must be positive")
    r = float(validation_radius)
    # max over [0, r] of (s^2-1)^2 / (1+s^2), attained at s = r for r >= 1
    s = np.linspace(0.0, r, 2001)
    c2 = float(np.max((s**2 - 1.0) ** 2 / (1.0 + s**2)))

    def grad(x):
        x = np.asarray(x, dtype=float)
        return 4.0 * (np.sum(np.square(x), axis=-1) - 1.0)[..., None] * x

    def hess(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        eye = np.eye(n)
        q = np.sum(np.square(x), axis=-1)
        return 4.0 * (q - 1.0)[..., None, None] * eye + 8.0 * x[..., :, None] * x[..., None, :]

    return LagrangianModel(
        mass=mass,
        potential=lambda x: np.square(np.sum(np.square(x), axis=-1) - 1.0),
        grad_potential=grad,
        hess_bound=lambda radius: 12.0 * radius**2 + 4.0,
        quadratic_growth=c2,
        potential_sup=None,
        hess_potential=hess,
        name="double_well",
        params={"mass": mass, "validation_radius": r},
    )


def cosine_potential(mass: float = 1.0, amplitude: float = 1.0, dim: int = 1) -> LagrangianModel:
    """V(x) = A sum_i cos(x_i); bounded, so the horizon is unbounded."""
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    amp = float(amplitude)

    def hess(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        diag = -amp * np.cos(x)
        out = np.zeros(x.shape + (n,))
        idx = np.arange(n)
        out[..., idx, idx] = diag
        return out

    return LagrangianModel(
        mass=mass,
        potential=lambda x: amp * np.sum(np.cos(x), axis=-1),
        grad_potential=lambda x: -amp * np.sin(x),
        hess_bound=lambda radius: amp,
        quadratic_growth=amp * dim,
        potential_sup=amp * dim,
        hess_potential=hess,
        name="cosine",
        params={"mass": mass, "amplitude": amp, "dim": dim},
    )


MODEL_CATALOG = {
    "free_particle": free_particle,
    "harmonic": harmonic_oscillator,
    "double_well": double_well,
    "cosine": cosine_potential,
}


def make_model(name: str, **params) -> LagrangianModel:
    """Instantiate a catalog model by name with keyword parameters."""
    try:
        factory = MODEL_CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {sorted(MODEL_CATALOG)}"
        ) from None
    return factory(**params)


# ---------------------------------------------------------------------------
# Closed-form transport costs for catalog entries
# ---------------------------------------------------------------------------


def has_closed_form_cost(model: LagrangianModel) -> bool:
    return model.name in ("free_particle", "harmonic")


def closed_form_cost(model: LagrangianModel, x, y, span: float) -> float:
    """Minimal action connecting x to y over a time span, in closed form.

    Available for the free particle, m|y-x|^2 / (2 T), and the harmonic
    oscillator, (m w / 2) ((|x|^2+|y|^2) cos(wT) - 2 x.y) / sin(wT) with
    w = sqrt(k/m).  The harmonic formula degenerates at conjugate spans
    wT = j pi, where the connecting extremal is non-unique or non-existent.
    """
    x, y = as_point(x), as_point(y)
    _require_same_dim(x, y, names="x, y")
    if span <= 0:
        raise ValueError("span must be positive")
    if model.name == "free_particle":
        d = y - x
        return 0.5 * model.mass * float(d @ d) / span
    if model.name == "harmonic":
        omega = math.sqrt(model.params["stiffness"] / model.mass)
        s = math.sin(omega * span)
        if abs(s) < 1e-12:
            raise ValueError(f"span {span} is conjugate for the harmonic model")
        return (
            0.5
            * model.mass
            * omega
            * ((float(x @ x) + float(y @ y)) * math.cos(omega * span) - 2.0 * float(x @ y))
            / s
        )
    raise ValueError(f"no closed-form cost for model {model.name!r}")


def closed_form_cost_matrix(
    model: LagrangianModel, source: np.ndarray, target: np.ndarray, span: float
) -> np.ndarray:
    """Pairwise closed-form costs; source (N, n) x target (M, n) -> (N, M)."""
    X = np.atleast_2d(np.asarray(source, dtype=float))
    Y = np.atleast_2d(np.asarray(target, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise DimensionMismatchError("source and target dimensions differ")
    if span <= 0:
        raise ValueError("span must be positive")
    sq_x = np.sum(X * X, axis=1)[:, None]
    sq_y = np.sum(Y * Y, axis=1)[None, :]
    cross = X @ Y.T
    # in place, in the order of operations of 0.5 m (|x|^2 + |y|^2 - 2 x.y) / span
    # and 0.5 m omega ((|x|^2 + |y|^2) cos - 2 x.y) / sin: bitwise their values,
    # with only cross and one more N x M array held
    if model.name == "free_particle":
        costs = sq_x + sq_y
        cross *= 2.0
        costs -= cross
        costs *= 0.5 * model.mass
        costs /= span
        return costs
    if model.name == "harmonic":
        omega = math.sqrt(model.params["stiffness"] / model.mass)
        s = math.sin(omega * span)
        if abs(s) < 1e-12:
            raise ValueError(f"span {span} is conjugate for the harmonic model")
        costs = sq_x + sq_y
        costs *= math.cos(omega * span)
        cross *= 2.0
        costs -= cross
        costs *= 0.5 * model.mass * omega
        costs /= s
        return costs
    raise ValueError(f"no closed-form cost for model {model.name!r}")
