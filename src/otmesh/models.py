"""Mechanical Lagrangians of kinetic-minus-potential form on flat R^n.

A model bundles L(x, v) = (m/2)|v|^2 - V(x) with the derivatives and growth
constants that the solvers and the horizon bound need.  Potentials and their
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
    """Coerce a scalar or sequence to a finite, nonempty 1-D float vector."""
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.ndim != 1:
        raise ValueError(f"expected a single point, got array of shape {pt.shape}")
    if pt.size == 0:
        raise ValueError("a point needs at least one coordinate")
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
    quadratic_growth
        Constant c with |V(x)| <= c (1 + |x|^2) on the working region.  It
        is not checked at construction; ``check_quadratic_growth`` tests it
        on a sample of points when called.
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

    # -- pointwise evaluations ---------------------------------------------

    def lagrangian(self, x, v) -> float:
        """L(x, v) = (m/2)|v|^2 - V(x)."""
        x, v = as_point(x), as_point(v)
        _require_same_dim(x, v)
        return 0.5 * self.mass * float(v @ v) - float(self.potential(x))

    def energy(self, x, v) -> float:
        """Total energy (m/2)|v|^2 + V(x), conserved along extremals."""
        x, v = as_point(x), as_point(v)
        _require_same_dim(x, v)
        return 0.5 * self.mass * float(v @ v) + float(self.potential(x))

    def admissible_horizon(self) -> float:
        """Longest time span with guaranteed coercivity of the midpoint action.

        Returns +inf for bounded potentials, otherwise sqrt(m / (32 c2)).
        """
        if self.potential_sup is not None:
            return math.inf
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
    if dim < 1 or not float(dim).is_integer():
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
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
    The cost is the one entry of the (1, 1) matrix of x against y, with the
    bits ``transport.ClosedFormCosts.matrix`` gives it.
    """
    x, y = as_point(x), as_point(y)
    _require_same_dim(x, y, names="x, y")
    X, Y = x[None], y[None]
    coefficients = _closed_form_coefficients(model, span)
    sq_x, sq_y = np.sum(X * X, axis=1), np.sum(Y * Y, axis=1)
    return float(_costs_from_products(X @ Y.T, sq_x, sq_y, coefficients, np.empty((1, 1)))[0, 0])


def _closed_form_coefficients(model: LagrangianModel, span: float) -> tuple[float, float, float]:
    """(scale, cos, sin) of the closed-form cost scale ((|x|^2 + |y|^2) cos - 2 x.y) / sin.

    The free particle's are (m / 2, 1, span); the harmonic oscillator's are
    (m w / 2, cos(wT), sin(wT)), and ValueError reports a conjugate span.
    """
    if span <= 0:
        raise ValueError("span must be positive")
    if model.name == "free_particle":
        return 0.5 * model.mass, 1.0, span
    if model.name == "harmonic":
        omega = math.sqrt(model.params["stiffness"] / model.mass)
        sin = math.sin(omega * span)
        if abs(sin) < 1e-12:
            raise ValueError(f"span {span} is conjugate for the harmonic model")
        return 0.5 * model.mass * omega, math.cos(omega * span), sin
    raise ValueError(f"no closed-form cost for model {model.name!r}")


def _costs_from_products(
    cross: np.ndarray, sq_x: np.ndarray, sq_y: np.ndarray, coefficients, sums: np.ndarray
) -> np.ndarray:
    """Turn the products x.y in cross into closed-form costs, in place.

    sq_x and sq_y are |x|^2 and |y|^2, broadcast against cross; sums is
    scratch of cross's shape.  The order of operations is that of
    scale ((|x|^2 + |y|^2) cos - 2 x.y) / sin, which for the free particle is
    m / 2 (|x|^2 + |y|^2 - 2 x.y) / span with an exact "* 1.0".  Every
    closed-form cost is computed here, so a matrix, a row block of it and a
    matched pair give an entry the same bits.
    """
    scale, cos, sin = coefficients
    # a broadcasting ufunc buffers its operands; an assignment does not
    sums[...] = sq_x
    sums += sq_y
    sums *= cos
    cross *= 2.0
    np.subtract(sums, cross, out=cross)
    cross *= scale
    cross /= sin
    return cross
