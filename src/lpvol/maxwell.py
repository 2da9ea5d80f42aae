"""Single-coordinate limit laws on weighted-ball boundaries and face
skeletons, with finite-n comparisons.

Under the codimension-m boundary measure of the unit p-ball, the scaled
first coordinate n^(1/p) X_1 converges as n grows with j/n -> alpha to a
universal law depending only on p and the face-fraction alpha:

  bulk (0 < alpha < 1):  (p/alpha)^(1/p) xi with density
      f(u) = alpha e^(-|u|^p - t |u|^(2p-2)) / I(t)
           + (1-alpha) |u|^(p-2) e^(-|u|^p - t |u|^(2p-2)) / J(t)
      at t = theta*(p, alpha), I = F(t; 0), J = F(t; p-2);
  left edge (fixed j):   p^(1/p) xi with density
      g(u) = (p-1) sqrt(lam0/pi) |u|^(p-2) e^(-lam0 |u|^(2p-2));
  right edge (j = n-m):  p^(1/p) xi with density
      f(u) = e^(-|u|^p) / (2 Gamma(1 + 1/p)).

Moments of each law are explicit gamma ratios, so finite-n moment ratios
(curvature-measure moment over intrinsic volume) can be tabulated against
their limits.  Uniform samples on cube and crosspolytope skeletons give
the matching polytope limit laws, checked by an atom-aware
Kolmogorov-Smirnov distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError
from .exactvol import (MomentRequest, PBallSpec, _moment_log,
                       intrinsic_volume)
from .logspace import exp_checked
from .rng import batches, standard_exponential
from .specfun import (QuadConfig, _cfg, as_exponent, f_family_log_table,
                      log_gamma)
from .asymptotics import PhasePoint, face_index, phase_maximizer

__all__ = [
    "lambda0", "LimitLaw", "limit_density", "limit_moment",
    "finite_n_moment_ratio", "ConvergenceRow", "convergence_table",
    "EmpiricalSample", "sample_cube_skeleton",
    "sample_crosspolytope_skeleton",
    "kolmogorov_distance", "nu_inf_cdf", "nu_1_cdf",
]

_BATCH = 1 << 14


def lambda0(p) -> float:
    """Left-edge decay constant (p Gamma((2p-1)/(2p-2)) / sqrt(pi))
    raised to 2(p-1)/p; equals 1 at p = 2.  Formed as one log: the gamma
    value alone overflows a double for p below about 1.002, where lambda0
    is still near 1/(2e(p-1))."""
    p = as_exponent(p)
    return exp_checked(
        2.0 * (p - 1.0) / p
        * (math.log(p) + log_gamma((2.0 * p - 1.0) / (2.0 * p - 2.0))
           - 0.5 * math.log(math.pi)),
        f"lambda0 at p={p:g}")


@dataclass(frozen=True)
class LimitLaw:
    """One of the three limit laws, with its regime-specific constants.

    Every normaliser is exact: a gamma function at the edges, and
    I(theta*) = F(theta*; 0), J(theta*) = F(theta*; p-2) from the phase
    point in the bulk, so the total mass is 1 by construction.  The tests
    check it against an unrelated quadrature.
    """

    regime: str
    p: float
    alpha: Optional[float] = None
    phase_point: Optional[PhasePoint] = None

    def __post_init__(self):
        object.__setattr__(self, "p", as_exponent(self.p))
        if self.regime not in ("bulk", "left", "right"):
            raise DomainError(f"unknown regime {self.regime!r}")
        if self.regime == "bulk":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise DomainError("bulk law needs 0 < alpha < 1")
            if self.phase_point is None:
                raise DomainError("bulk law needs phase data; use "
                                  "LimitLaw.bulk")

    # -- factories ---------------------------------------------------------

    @classmethod
    def bulk(cls, p, alpha: float, cfg: QuadConfig = None) -> "LimitLaw":
        pp = phase_maximizer(p, alpha, cfg)
        return cls("bulk", pp.p, alpha=float(alpha), phase_point=pp)

    @classmethod
    def left_edge(cls, p) -> "LimitLaw":
        return cls("left", as_exponent(p))

    @classmethod
    def right_edge(cls, p) -> "LimitLaw":
        return cls("right", as_exponent(p))

    @property
    def scale(self) -> float:
        """Constant c with n^(1/p) X_1 -> c xi, xi drawn from this law."""
        if self.regime == "bulk":
            return (self.p / self.alpha) ** (1.0 / self.p)
        return self.p ** (1.0 / self.p)


def limit_density(law: LimitLaw, u) -> np.ndarray:
    """Density of the law at u (scalar or array; even in u).

    For p < 2 the bulk and left-edge densities carry an integrable
    |u|^(p-2) singularity at zero, reported as inf at u = 0 exactly.
    """
    uu = np.asarray(u, dtype=float)
    scalar = uu.ndim == 0
    au = np.abs(np.atleast_1d(uu))
    p = law.p
    if law.regime == "right":
        out = np.exp(-au ** p) / (2.0 * math.exp(log_gamma(1.0 + 1.0 / p)))
    else:
        with np.errstate(divide="ignore"):
            pw = au ** (p - 2.0)
        if law.regime == "left":
            lam0 = lambda0(p)
            out = ((p - 1.0) * math.sqrt(lam0 / math.pi) * pw
                   * np.exp(-lam0 * au ** (2.0 * p - 2.0)))
        else:
            pp = law.phase_point
            base = np.exp(-au ** p - pp.theta_star * au ** (2.0 * p - 2.0))
            out = (law.alpha * math.exp(-pp.log_i) * base
                   + (1.0 - law.alpha) * math.exp(-pp.log_j) * pw * base)
    return float(out[0]) if scalar else out


def limit_moment(law: LimitLaw, lam: float, cfg: QuadConfig = None) -> float:
    """E |xi|^lam, lam >= 0: a gamma ratio at the edges, a ratio of
    F-table values in the bulk, numerator and normalisers from one row
    at theta*, so E|xi|^0 = 1 exactly.  DomainError when the moment
    overflows a double.
    """
    lam = float(lam)
    if not (math.isfinite(lam) and lam >= 0.0):
        raise DomainError(f"moment exponent must be >= 0, got {lam}")
    p = law.p
    what = f"E|xi|^{lam:g} of the {law.regime} law at p={p:g}"
    if law.regime == "right":
        return exp_checked(
            log_gamma((lam + 1.0) / p) - log_gamma(1.0 / p), what)
    if law.regime == "left":
        lam0 = lambda0(p)
        s = (lam + p - 1.0) / (2.0 * p - 2.0)
        return exp_checked(
            log_gamma(s) - 0.5 * math.log(math.pi)
            - lam / (2.0 * p - 2.0) * math.log(lam0), what)
    log_i, log_j, log_a, log_b = f_family_log_table(
        p, [law.phase_point.theta_star], [0.0, p - 2.0, lam, lam + p - 2.0],
        cfg)[0]
    # each ratio is a moment of a probability law, so neither underflows
    return (law.alpha * exp_checked(float(log_a - log_i), what)
            + (1.0 - law.alpha) * exp_checked(float(log_b - log_j), what))


def _moment_ratio_log(p, n: int, j: int, lambdas: Sequence[float],
                      cfg: QuadConfig, scaled: bool):
    """(log of finite_n_moment_ratio, its estimated relative error).

    The error is the sum of the two quadratures' relative error
    estimates: the moment's and that of V_j.
    """
    spec = PBallSpec.unit(p, int(n))
    j = int(j)
    req = MomentRequest(spec.n - j, lambdas)
    log_num, num_err, _ = _moment_log(spec, req, _cfg(cfg))
    den = intrinsic_volume(spec, j, cfg)
    log_ratio = log_num - den.value.log_abs
    if scaled:
        log_ratio += sum(float(v) for v in lambdas) / spec.p * math.log(spec.n)
    return log_ratio, num_err + den.est_rel_error


def finite_n_moment_ratio(p, n: int, j: int, lambdas: Sequence[float],
                          cfg: QuadConfig = None, *,
                          scaled: bool = False) -> float:
    """Moment of the codimension n-j boundary measure over V_j for the
    unit ball: E prod_k |X_k|^lambda_k under the normalized j-face
    measure.  With scaled=True the value is premultiplied by
    n^(sum(lambdas)/p), the scaling under which it converges.
    DomainError when the value overflows a double.
    """
    log_ratio = _moment_ratio_log(p, n, j, lambdas, cfg, scaled)[0]
    return exp_checked(log_ratio,
                       f"the moment for lambda={list(lambdas)} at n={n}")


class ConvergenceRow(NamedTuple):
    n: int
    scaled_moment: float
    limit: float
    rel_gap: float
    est_rel_error: float


def convergence_table(p, regime: str, lambdas: Sequence[float],
                      n_list: Sequence[int], *, alpha: float = None,
                      j: int = None, m: int = None,
                      cfg: QuadConfig = None) -> list:
    """Scaled finite-n moments against the limit, one row per n.

    The face index of row n is face_index(regime, n, ...): floor(alpha n)
    in the bulk, the given fixed j at the left edge, n - m at the right
    edge; every row's index is checked before anything is computed.  The
    limit is prod_k scale^lambda_k E|xi|^lambda_k for the matching law.
    DomainError when the limit or a row's moment overflows a double.
    """
    lambdas = [float(v) for v in lambdas]
    # every row's index is checked before the limit or any row
    rows_j = [(int(n), face_index(regime, n, alpha=alpha, j=j, m=m))
              for n in n_list]
    law = (LimitLaw.bulk(p, alpha, cfg) if regime == "bulk"
           else LimitLaw(regime, p))
    limit = exp_checked(
        sum(lam * math.log(law.scale) + math.log(limit_moment(law, lam, cfg))
            for lam in lambdas),
        f"the limit for lambda={lambdas}")
    rows = []
    for n, jn in rows_j:
        log_val, err = _moment_ratio_log(p, n, jn, lambdas, cfg, True)
        val = exp_checked(
            log_val, f"the scaled moment for lambda={lambdas} at n={n}")
        rows.append(ConvergenceRow(n, val, limit,
                                   abs(val - limit) / abs(limit), err))
    return rows


@dataclass(frozen=True)
class EmpiricalSample:
    """count x r array of skeleton draws plus the seed that made them."""

    draws: np.ndarray
    seed: int
    source: str

    def __post_init__(self):
        d = np.array(self.draws, dtype=float)
        if d.ndim != 2:
            raise DomainError("draws must be a count x r array")
        d.setflags(write=False)
        object.__setattr__(self, "draws", d)

    @property
    def count(self) -> int:
        return self.draws.shape[0]


def _skeleton_batches(n: int, j_specials: int, count: int, seed: int):
    """Yield (generator, boolean mask of the special coordinates) in
    fixed batches; draw order inside a batch is subset keys first."""
    for gen, k in batches(seed, count, _BATCH):
        order = np.argsort(gen.random((k, n)), axis=1)
        mask = np.zeros((k, n), dtype=bool)
        np.put_along_axis(mask, order[:, :j_specials], True, axis=1)
        yield gen, mask


def sample_cube_skeleton(n: int, j: int, count: int, seed: int, *,
                         r: int = 1) -> EmpiricalSample:
    """Uniform draws from the j-skeleton of the cube [-1, 1]^n.

    Each draw picks a uniform j-subset of free coordinates (uniform on
    [-1, 1]) and fixes the rest at independent signs; the first r
    coordinates are kept.  Per batch the stream is consumed as subset
    keys, then uniforms, then signs, so output is seed-deterministic.
    """
    n, j, count, r = int(n), int(j), int(count), int(r)
    if not 0 <= j <= n:
        raise DomainError(f"skeleton index j={j} outside 0..{n}")
    if count < 1 or not 1 <= r <= n:
        raise DomainError("need count >= 1 and 1 <= r <= n")
    out = []
    for gen, free in _skeleton_batches(n, j, count, seed):
        k = free.shape[0]
        u = 2.0 * gen.random((k, n)) - 1.0
        signs = (2.0 * gen.integers(0, 2, size=(k, n)) - 1.0).astype(float)
        out.append(np.where(free, u, signs)[:, :r])
    return EmpiricalSample(np.concatenate(out), seed,
                           f"cube-skeleton n={n} j={j}")


def sample_crosspolytope_skeleton(n: int, j: int, count: int, seed: int, *,
                                  r: int = 1) -> EmpiricalSample:
    """Uniform draws from the j-skeleton of the scaled crosspolytope
    { sum |x_i| <= n }.

    Each draw supports a uniform (j+1)-subset J and sets
    x_i = n sign_i E_i / sum_(k in J) E_k there (E_i standard
    exponential), zero elsewhere; the first r coordinates are kept.
    Per batch: subset keys, then exponentials, then signs.
    """
    n, j, count, r = int(n), int(j), int(count), int(r)
    if not 0 <= j <= n - 1:
        raise DomainError(f"skeleton index j={j} outside 0..{n - 1}")
    if count < 1 or not 1 <= r <= n:
        raise DomainError("need count >= 1 and 1 <= r <= n")
    out = []
    for gen, support in _skeleton_batches(n, j + 1, count, seed):
        k = support.shape[0]
        e = standard_exponential(gen, (k, n))
        signs = (2.0 * gen.integers(0, 2, size=(k, n)) - 1.0).astype(float)
        esel = np.where(support, e, 0.0)
        total = esel.sum(axis=1, keepdims=True)
        out.append((n * signs * esel / total)[:, :r])
    return EmpiricalSample(np.concatenate(out), seed,
                           f"crosspolytope-skeleton n={n} j={j}")


def kolmogorov_distance(values, cdf: Callable[[np.ndarray], np.ndarray],
                        atoms: Sequence = ()) -> float:
    """sup_x |F_emp(x) - F(x)| for a cdf that may carry atoms.

    atoms is a sequence of (location, mass) pairs of the reference law;
    the supremum is scanned over data points and atom locations, from
    the right (both cdfs) and from the left (cdf minus atom mass).
    """
    v = np.sort(np.asarray(values, dtype=float).ravel())
    if v.size == 0:
        raise DomainError("need at least one value")
    locs = np.array([a[0] for a in atoms], dtype=float)
    pts = np.unique(np.concatenate([v, locs]) if locs.size else v)
    emp_right = np.searchsorted(v, pts, side="right") / v.size
    emp_left = np.searchsorted(v, pts, side="left") / v.size
    ref = np.asarray(cdf(pts), dtype=float)
    mass = np.zeros_like(ref)
    for loc, m0 in atoms:
        mass[pts == float(loc)] += float(m0)
    return float(max(np.max(np.abs(emp_right - ref)),
                     np.max(np.abs(emp_left - (ref - mass)))))


def nu_inf_cdf(x, alpha: float) -> np.ndarray:
    """CDF of the cube-skeleton coordinate law: alpha Unif[-1, 1] plus
    mass (1-alpha)/2 at each of -1 and +1."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    xx = np.asarray(x, dtype=float)
    cont = np.clip(0.5 * (xx + 1.0), 0.0, 1.0)
    out = (alpha * cont + 0.5 * (1.0 - alpha) * (xx >= -1.0)
           + 0.5 * (1.0 - alpha) * (xx >= 1.0))
    return float(out) if xx.ndim == 0 else out


def nu_1_cdf(x, alpha: float) -> np.ndarray:
    """CDF of the crosspolytope-skeleton coordinate law: mass 1 - alpha
    at zero plus alpha times a Laplace with rate alpha (density
    (alpha/2) e^(-alpha |x|))."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    xx = np.asarray(x, dtype=float)
    lap = np.where(xx <= 0.0, 0.5 * np.exp(alpha * xx),
                   1.0 - 0.5 * np.exp(-alpha * xx))
    out = (1.0 - alpha) * (xx >= 0.0) + alpha * lap
    return float(out) if xx.ndim == 0 else out
