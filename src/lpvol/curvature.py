"""Pointwise differential geometry of the boundary surface
F(x) = sum_i |a_i x_i|^p = 1.

The boundary is C^1 everywhere for p > 1 and C^2 wherever all
coordinates are nonzero (everywhere when p >= 2).  At such points the
principal curvatures are the roots of a rank-one-update secular
equation, so they interlace the known per-coordinate values
d_i = (p-1) a_i^p |x_i|^(p-2) and can be bracketed exactly; their
elementary symmetric functions also have a closed leave-one-out form
that never touches the roots.  The Gauss map and its inverse are
explicit, with the support function h(u) = (sum |u_i/a_i|^q)^(1/q),
q = p/(p-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInput, DomainError
from .exactvol import PBallSpec, _pnorm
from .logspace import exp_checked
from .roots import solve_increasing
from .specfun import kappa
from .symfun import batched_loo_log

__all__ = [
    "BoundaryPoint", "boundary_point",
    "principal_curvatures", "sigma_curvatures", "gauss_curvature",
    "curvature_density",
    "support_function", "gauss_map", "inverse_gauss_map",
]

_GAUGE_TOL = 1e-12


def _vector(spec: PBallSpec, x, what: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (spec.n,):
        raise DomainError(f"{what} must have shape ({spec.n},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{what} must be finite")
    return v


@dataclass(frozen=True)
class BoundaryPoint:
    """A point validated to lie on the boundary surface.

    Construct via boundary_point, which projects radially; the raw
    constructor insists on gauge residual |F(x) - 1| <= 1e-12.
    Curvature operations additionally require every coordinate nonzero.
    """

    spec: PBallSpec
    coords: np.ndarray

    def __post_init__(self):
        x = np.array(_vector(self.spec, self.coords, "coords"))
        resid = abs(float(self.spec.gauge(x)) - 1.0)
        if resid > _GAUGE_TOL:
            raise DomainError(
                f"point is off the boundary: |F(x) - 1| = {resid:.3e}")
        x.setflags(write=False)
        object.__setattr__(self, "coords", x)

    @property
    def n(self) -> int:
        return self.spec.n


def boundary_point(spec: PBallSpec, x: Sequence[float]) -> BoundaryPoint:
    """Radial lift of a nonzero vector onto the boundary: x / F(x)^(1/p),
    max-scaled so that no power overflows or underflows at large p."""
    v = _vector(spec, x, "point")
    gauge = float(_pnorm(np.abs(spec.weights * v)[None], spec.p)[0])
    if not (math.isfinite(gauge) and gauge > 0.0):
        raise DegenerateInput("cannot lift the zero vector to the boundary")
    return BoundaryPoint(spec, v / gauge)


def _curvature_data(pt: BoundaryPoint):
    """Per-coordinate ingredients c_i, w_i, S at a curvature-regular point.

    c_i = a_i^(2p) |x_i|^(2p-2) (squared gradient components over p^2),
    w_i = a_i^p |x_i|^(p-2) (second-derivative weights over p(p-1)),
    S = sqrt(sum c_i) = |grad F| / p.
    Both are formed from z_i = a_i |x_i| <= 1, as c_i = a_i^2 z_i^(2p-2)
    and w_i = a_i^2 z_i^(p-2), so no a_i^p overflows at large p; those
    of small coordinates underflow to 0 there.
    """
    spec = pt.spec
    x = pt.coords
    if np.any(x == 0.0):
        raise DegenerateInput(
            "curvature formulas require every coordinate nonzero")
    p = spec.p
    a2 = spec.weights ** 2
    z = spec.weights * np.abs(x)
    w = a2 * z ** (p - 2.0)
    c = a2 * z ** (2.0 * p - 2.0)
    s = math.sqrt(float(np.sum(c)))
    return c, w, s


def principal_curvatures(pt: BoundaryPoint) -> np.ndarray:
    """The n-1 principal curvatures, ascending.

    They are mu/S for the n-1 roots mu of the secular equation
    sum_i c_i prod_(j != i) (d_j - mu) = 0 with d_j = (p-1) w_j: one
    root inside each gap between consecutive distinct d values, plus a
    root of multiplicity k-1 at every k-fold d (k where every c of that d
    underflowed to 0: no pole then).  In each gap the rational
    form sum c_i/(d_i - mu) is increasing, with derivative
    sum c_i/(d_i - mu)^2, and spans -inf..+inf; one solve_increasing
    call finds the roots of all gaps at once.
    """
    c, w, s = _curvature_data(pt)
    d = (pt.spec.p - 1.0) * w
    uniq, inv = np.unique(d, return_inverse=True)
    weight = np.zeros(uniq.shape[0])
    np.add.at(weight, inv, c)
    pole = weight > 0.0
    counts = np.bincount(inv, minlength=uniq.shape[0]) - pole
    poles, weight = uniq[pole], weight[pole]

    def secular(mu):
        r = 1.0 / (poles[None, :] - mu[:, None])
        return r @ weight, (r * r) @ weight

    with np.errstate(divide="ignore"):
        gaps = solve_increasing(secular, poles[:-1], poles[1:])
    return np.sort(np.concatenate([np.repeat(uniq, counts), gaps])) / s


def sigma_curvatures(pt: BoundaryPoint, m: int) -> float:
    """sigma_(m-1) of the principal curvatures, by the closed form

        (p-1)^(m-1) / S^(m+1) * sum_i c_i e_(m-1)(w without i)

    (leave-one-out elementary symmetric sums, no root-finding).
    """
    n = pt.n
    if not (isinstance(m, (int, np.integer)) and 1 <= m <= n):
        raise DomainError(f"order m must lie in 1..{n}, got {m!r}")
    m = int(m)
    c, w, s = _curvature_data(pt)
    # sum_i c_i [z^(m-1)] prod_(r != i) (1 + z w_r); an underflowed c or
    # w enters as log 0 = -inf
    with np.errstate(divide="ignore"):
        log_sum = float(batched_loo_log(
            np.zeros((1, n)), np.log(w)[None], np.log(c)[None], m)[0])
    return exp_checked((m - 1) * math.log(pt.spec.p - 1.0)
                       - (m + 1) * math.log(s) + log_sum,
                       f"sigma_{m - 1} of the curvatures", DegenerateInput)


def gauss_curvature(pt: BoundaryPoint) -> float:
    """Product of the principal curvatures:

        (p-1)^(n-1) prod_j a_j^p |x_j|^(p-2) / S^(n+1).
    """
    c, w, s = _curvature_data(pt)
    n = pt.n
    with np.errstate(divide="ignore"):   # an underflowed w_j gives 0
        log_val = ((n - 1) * math.log(pt.spec.p - 1.0)
                   + float(np.sum(np.log(w))) - (n + 1) * math.log(s))
    return exp_checked(log_val, "the Gauss curvature", DegenerateInput)


def curvature_density(pt: BoundaryPoint, m: int) -> float:
    """Density of the codimension-m curvature measure with respect to
    surface measure: sigma_(m-1)(curvatures) / (m kappa_m).

    m = 1 gives the constant 1/2 (the curvature measure of top index is
    half the surface measure).  sigma_curvatures checks m."""
    return sigma_curvatures(pt, m) / (m * kappa(m))


def support_function(spec: PBallSpec, u: Sequence[float]) -> float:
    """h(u) = max over the ball of <u, x> = (sum_i |u_i/a_i|^q)^(1/q)."""
    v = _vector(spec, u, "direction")
    if not np.any(v):
        raise DomainError("direction must be nonzero")
    q = spec.p / (spec.p - 1.0)
    return float(_pnorm((np.abs(v) / spec.weights)[None], q)[0])


def gauss_map(pt: BoundaryPoint) -> np.ndarray:
    """Outer unit normal grad F / |grad F|, componentwise
    a_i^p |x_i|^(p-1) sign(x_i) up to normalization, formed as
    a_i z_i^(p-1) sign(x_i) with z_i = a_i |x_i| <= 1."""
    spec = pt.spec
    x = pt.coords
    z = spec.weights * np.abs(x)
    grad = spec.weights * z ** (spec.p - 1.0) * np.sign(x)
    return grad / np.linalg.norm(grad)


def inverse_gauss_map(spec: PBallSpec, u: Sequence[float]) -> BoundaryPoint:
    """The boundary point whose outer normal is the unit vector u:

        x_i = a_i^(-q) |u_i|^(q-1) sign(u_i) / h(u)^(q-1).
    """
    v = _vector(spec, u, "normal")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-10:
        raise DomainError(f"normal must be a unit vector, |u| = {norm!r}")
    q = spec.p / (spec.p - 1.0)
    h = support_function(spec, v)
    x = (spec.weights ** (-q) * np.abs(v) ** (q - 1.0) * np.sign(v)
         / h ** (q - 1.0))
    return BoundaryPoint(spec, x)
