"""Exact intrinsic volumes and boundary moments of coordinate-weighted
p-balls  B = { x : sum_i |a_i x_i|^p <= 1 },  p > 1.

Every quantity is a single absolutely convergent integral over an
auxiliary variable theta in (0, inf), with the integrand built from the
F-family; the integrals are evaluated in log space so dimensions in the
thousands pose no scaling problem.

One theta integral serves every exact value: the boundary moment of
codimension index m, whose integrand is a leave-one-out coefficient sum
over the coordinates (_moments).  V_j, 0 < j < n, is that moment
with all exponents zero and m = n - j, on unit and weighted bodies
alike; V_0 = 1 and V_n = volume(spec) are closed forms.  Coordinates
with equal weight and exponent form one group; when the whole body is
one group (the unit ball among others) the sum is the closed form
n C(n-1, m-1) v^(n-m) u^(m-1) w, the I^j J^(m-1) K integrand, and no
per-coordinate engine call is made.  Several m of one body share one
mesh and one F-table batch per node.

The F values come from the interpolant f_family_log_interp, which
reports a bound eps_nu on the error of each log F column.  Every term
of the sum reads n - m values of the v column, m - 1 of u and one of w,
so est_rel_error adds expm1 of (n-m) eps_v + (m-1) eps_u + eps_w.

Every theta-integral value (V_j, the mixed and surface moments, the key
integral) is one ExactResult: the value as a LogValue, its estimated
relative error and the theta nodes it took.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DomainError
from .logspace import LogValue, exp_checked, logsumexp_arr
from .quadrature import log_theta_integral
from .specfun import (QuadConfig, _cfg, as_exponent, f_family_log_interp,
                      log_choose, log_kappa)
from .symfun import batched_loo_log

__all__ = [
    "PBallSpec", "MomentRequest", "ExactResult",
    "volume", "intrinsic_volume", "intrinsic_volumes",
    "intrinsic_volume_weighted",
    "mixed_moment", "surface_moment", "key_integral",
    "mean_projection_volume", "kubota_projection_factor",
    "steiner_polynomial",
]

_EPS = float(np.finfo(float).eps)
# the weights every operation supports.  Below the lower end a_k^2 is a
# subnormal that loses precision (11 bits left at a_k = 1e-160) and then
# 0; at the upper end theta a_k^2 stays finite on every theta mesh, which
# ends below 3e73 (240 octaves from 8 in log_theta_integral)
_WEIGHT_RANGE = (1e-154, 1e100)


@dataclass(frozen=True, eq=False)
class PBallSpec:
    """A weighted p-ball: exponent p > 1 and positive coordinate weights.

    The body is { x in R^n : sum_i |a_i x_i|^p <= 1 }; weight a_i scales
    coordinate i, so larger weights mean a thinner body along that axis.
    Each weight must lie in [1e-154, 1e100].
    """

    p: float
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", as_exponent(self.p))
        w = np.array(self.weights, dtype=float, copy=True)
        if w.ndim != 1:
            raise DomainError("weights must be a one-dimensional sequence")
        if len(w) < 2:
            raise DomainError("need dimension n >= 2")
        lo, hi = _WEIGHT_RANGE
        # nan fails both comparisons
        if not np.all((w >= lo) & (w <= hi)):
            raise DomainError(f"weights must lie in [{lo:g}, {hi:g}]")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def unit(cls, p, n: int) -> "PBallSpec":
        """The standard (all weights one) p-ball in dimension n."""
        # a negative n gives no weights, which the dimension check refuses
        return cls(p=p, weights=np.ones(max(int(n), 0)))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def is_unit(self) -> bool:
        return bool(np.all(self.weights == 1.0))

    def gauge(self, x) -> np.ndarray:
        """sum_i |a_i x_i|^p along the last axis; <= 1 inside the body."""
        x = np.asarray(x, dtype=float)
        return (np.abs(self.weights * x) ** self.p).sum(axis=-1)


def _pnorm(z: np.ndarray, p: float) -> np.ndarray:
    """(sum_i z_i^p)^(1/p) per row of z >= 0, taken as m (sum_i
    (z_i/m)^p)^(1/p) with m the row maximum, so that no power overflows
    at large p (nor at q = p/(p-1) near p = 1).  A zero row gives 0."""
    m = z.max(axis=1)
    terms = (z / np.where(m > 0.0, m, 1.0)[:, None]) ** p
    return m * terms.sum(axis=1) ** (1.0 / p)


@dataclass(frozen=True)
class MomentRequest:
    """A boundary-moment request: codimension index m and coordinate
    moment exponents lambda_1..lambda_r (missing ones are zero).

    Convergence needs each exponent above -1, above 1-p when m = n, above
    max(-1, 1-p) for 1 < m < n, and the total above m - n - p.
    """

    codim: int
    lambdas: tuple

    def __init__(self, codim: int, lambdas: Sequence[float] = ()):
        object.__setattr__(self, "codim", int(codim))
        object.__setattr__(self, "lambdas",
                           tuple(float(v) for v in lambdas))

    def validate(self, spec: PBallSpec):
        n, p, m = spec.n, spec.p, self.codim
        if not 1 <= m <= n:
            raise DomainError(f"codimension index m={m} outside 1..{n}")
        if len(self.lambdas) > n:
            raise DomainError(
                f"{len(self.lambdas)} moment exponents for dimension {n}")
        if m == 1:
            low = -1.0
        elif m == n:
            low = 1.0 - p
        else:
            low = max(-1.0, 1.0 - p)
        for i, lam in enumerate(self.lambdas):
            # at m > 1 the u column's nu = lam + p - 2 must exceed -1 too
            if not (math.isfinite(lam) and lam > low
                    and (m == 1 or lam + p - 2.0 > -1.0)):
                raise DomainError(
                    f"moment exponent {i} is {lam}; needs > {low} at m={m}")
        total = sum(self.lambdas)
        if not total > m - n - p:
            raise DomainError(
                f"moment exponents sum to {total}; needs > {m - n - p}")

    def padded(self, n: int) -> np.ndarray:
        lam = np.zeros(n)
        lam[:len(self.lambdas)] = self.lambdas
        return lam


@dataclass(frozen=True)
class ExactResult:
    """A theta-integral value with its quadrature diagnostics.

    value is a positive log-scale number; est_rel_error is the
    quadrature error estimate relative to the value, widened by the
    F-interpolant bound, plus the rounding of its log terms (0 for a
    closed form); theta_nodes counts integrand evaluations of the theta
    integral (for a result of intrinsic_volumes, the node count of the
    mesh shared by the whole family, so equal for all its members; 0 for
    a closed form).
    """

    value: LogValue
    est_rel_error: float
    theta_nodes: int


def volume(spec: PBallSpec) -> LogValue:
    """Exact volume: (2 Gamma(1+1/p))^n / (Gamma(1+n/p) prod a_i)."""
    p, n = spec.p, spec.n
    log_v = (n * (math.log(2.0) + math.lgamma(1.0 + 1.0 / p))
             - math.lgamma(1.0 + n / p)
             - float(np.log(spec.weights).sum()))
    return LogValue.from_log(log_v)


def _result(log_pre, log_int: float, log_err: float, log_f_err: float,
            nodes: int) -> ExactResult:
    """exp(sum(log_pre) + log_int) for a theta integral exp(log_int) with
    error exp(log_err) whose integrand's log is off by at most log_f_err.

    The relative error is the quadrature's, widened by expm1(log_f_err)
    (an integrand off by that much relative carries it to its integral),
    plus the rounding of the log terms: eps per unit of log magnitude.
    In the thousands of dimensions the lgamma terms reach n log n and the
    rounding exceeds the quadrature error.
    """
    if log_f_err > 0.0:
        log_err = np.logaddexp(log_err,
                               log_int + math.log(math.expm1(log_f_err)))
    rel = (math.exp(log_err - log_int)
           + _EPS * (sum(abs(t) for t in log_pre) + abs(log_int)))
    return ExactResult(LogValue.from_log(sum(log_pre) + log_int), rel, nodes)


def intrinsic_volumes(spec: PBallSpec, js: Sequence[int],
                      cfg: QuadConfig = None) -> list:
    """V_j for every j in js, in the order given, for any body.

    V_0 = 1 and V_n = volume(spec) are closed forms.  Every other V_j is
    the boundary moment of codimension n - j with no exponents, and all
    of them are one family theta integral on a shared mesh (_moments),
    so each F-table batch serves every member; theta_nodes of each result
    is the node count of that shared mesh.
    """
    n = spec.n
    js = [int(j) for j in js]
    for j in js:
        if not 0 <= j <= n:
            raise DomainError(f"intrinsic volume index {j} outside 0..{n}")
    found = {0: ExactResult(LogValue.one(), 0.0, 0),
             n: ExactResult(volume(spec), 0.0, 0)}
    inner = sorted({j for j in js if 0 < j < n})
    if inner:
        found.update(zip(inner, _moments(spec, [n - j for j in inner],
                                         np.zeros(n), _cfg(cfg))))
    return [found[j] for j in js]


def intrinsic_volume(spec: PBallSpec, j: int, cfg: QuadConfig = None
                     ) -> ExactResult:
    """V_j of a unit or weighted p-ball: intrinsic_volumes for one j."""
    return intrinsic_volumes(spec, [j], cfg)[0]


# the same call, under the name that weighted-body callers use
intrinsic_volume_weighted = intrinsic_volume


def _coordinate_log_f(spec: PBallSpec, exps, cfg: QuadConfig):
    """F-table gather over coordinate groups.

    exps holds one exponent array per column: coordinate k reads
    log F(theta a_k^2; e[k]) for each e in exps.  Coordinates whose
    (a_k^2, e[k] for every e) rows are equal form one group, in order of
    first appearance.  Returns (gather, counts, a2): gather maps a theta
    batch (T,) to one (T, G) array per column and, per column, the
    largest error bound on its log F values, with one interpolant call
    over the distinct a_k^2 and the distinct nu values of all columns;
    counts[g] is the size of group g and a2[g] its a_k^2.
    """
    rows = np.column_stack([spec.weights ** 2, *exps])
    _, first, counts = np.unique(rows, axis=0, return_index=True,
                                 return_counts=True)
    order = np.argsort(first)
    first, counts = first[order], counts[order]
    ua2, gidx = np.unique(rows[first, 0], return_inverse=True)
    unus, nidx = np.unique(rows[first, 1:].T, return_inverse=True)
    nidx = nidx.reshape(len(exps), -1)

    def gather(th):
        th = np.asarray(th, dtype=float)
        ts = np.outer(th, ua2).reshape(-1)
        tab, err = f_family_log_interp(spec.p, ts, unus, cfg)
        tab = tab.reshape(len(th), len(ua2), len(unus))
        return ([tab[:, gidx, idx] for idx in nidx],
                np.array([err[idx].max() for idx in nidx]))

    return gather, counts, ua2[gidx]


def _moments(spec: PBallSpec, ms, lam: np.ndarray, cfg: QuadConfig) -> list:
    """Boundary moments of codimension indices ms (validated by the
    caller) that share the padded exponents lam, as one family theta
    integral: one ExactResult per m, each with the shared mesh's nodes.

    Integrand at each theta: theta^(m/2-1) times the leave-one-out
    coefficient sum of order m over the triples (v_k, u_k, w_k) =
    (F(th a_k^2; lam_k), a_k^2 F(.; lam_k+p-2), a_k^2 F(.; lam_k+2p-2)).
    Coordinates with equal (a_k, lam_k) enter the engine once, as one
    group, and one gather per theta batch serves every member.  With a
    single group the sum is n C(n-1, m-1) v^(n-m) u^(m-1) w =
    m C(n, m) v^(n-m) u^(m-1) w in closed form: the integrand keeps
    v^(n-m) u^(m-1) w and log C(n, m) takes the place of -log m in the
    prefactor (for unit weights, the I^j J^(m-1) K integrand of V_j,
    j = n - m).  Otherwise each member still open makes one engine call.
    Every member reads the same three columns; when some lam_k + p - 2 <= -1
    the u column repeats v, which MomentRequest.validate allows only at
    m = 1, where the order-0 coefficient never reads u_k.

    Every term of the sum reads n - m v-values, m - 1 u-values and one
    w-value, so with eps the largest F-interpolant bound of each column
    the log integrand is off by at most (n-m) eps_v + (m-1) eps_u +
    eps_w, and each error includes that.
    """
    p, n = spec.p, spec.n
    ms = np.asarray(ms, dtype=int)
    u_exp = lam + (p - 2.0) if lam.min() + p - 2.0 > -1.0 else lam
    gather, counts, a2 = _coordinate_log_f(
        spec, [lam, u_exp, lam + (2.0 * p - 2.0)], cfg)
    log_a2 = np.log(a2)
    one_group = len(counts) == 1
    bound = np.zeros(3)   # eps_v, eps_u, eps_w: the largest seen so far

    def log_smooth(th, idx):
        cols, err = gather(th)
        np.maximum(bound, err, out=bound)
        logv, logu, logw = cols[0], log_a2 + cols[1], log_a2 + cols[2]
        if one_group:
            return (n - ms[idx]) * logv + (ms[idx] - 1) * logu + logw
        return np.stack([batched_loo_log(logv, logu, logw, m, counts)
                         for m in ms[idx]], axis=1)

    total = float(lam.sum())
    s_tail = (total + (n - ms) + p) / (2.0 * p - 2.0)
    log_ints, log_errs, nodes = log_theta_integral(0.5 * ms - 1.0, log_smooth,
                                                   s_tail, cfg)
    eps_v, eps_u, eps_w = bound
    out = []
    for m, log_int, log_err in zip(ms.tolist(), log_ints.tolist(),
                                   log_errs.tolist()):
        pre = (math.log(p), (m - 1) * math.log(p - 1.0),
               log_choose(n, m) if one_group else -math.log(m),
               -log_kappa(m), -math.lgamma((n + total + p - m) / p),
               -math.lgamma(0.5 * m),
               -float(((lam + 1.0) * np.log(spec.weights)).sum()))
        out.append(_result(pre, log_int, log_err,
                           (n - m) * eps_v + (m - 1) * eps_u + eps_w, nodes))
    return out


def mixed_moment(spec: PBallSpec, request: MomentRequest,
                 cfg: QuadConfig = None) -> ExactResult:
    """Boundary mixed moment: the local-parallel-volume coefficient of
    order codim, weighted by prod_k |x_k|^lambda_k over the boundary."""
    request.validate(spec)
    return _moments(spec, [request.codim], request.padded(spec.n),
                    _cfg(cfg))[0]


def surface_moment(spec: PBallSpec, lambdas: Sequence[float] = (),
                   cfg: QuadConfig = None) -> ExactResult:
    """Surface-measure moment int_boundary prod |x_k|^lambda_k dS.

    Surface measure is twice the top curvature measure, so this is
    2 * mixed_moment(spec, MomentRequest(1, lambdas)), with the same
    relative error: with G(theta) = prod_k F(theta a_k^2; lambda_k),
    integration by parts turns the surface integral of
    (G(0) - G(theta)) theta^(-3/2) into 2 int theta^(-1/2) (-G'(theta)),
    and -G' is the m = 1 leave-one-out sum of the moment integrand, under
    the same prefactor.
    """
    res = mixed_moment(spec, MomentRequest(1, lambdas), cfg)
    return replace(res, value=LogValue.from_log(math.log(2.0)
                                                + res.value.log_abs))


def key_integral(spec: PBallSpec, alpha: float,
                 exponents: Sequence[float] = (),
                 cfg: QuadConfig = None) -> ExactResult:
    """The master two-sided integral

        integral_0^inf theta^(alpha/2 - 1) prod_k F(theta a_k^2; alpha_k)
        d theta  /  (Gamma(alpha/2) Gamma(mu) prod a_k^(alpha_k + 1) / p)

    with mu = (n + sum alpha_k - alpha (p-1)) / p, convergent exactly when
    0 < alpha < sum_k (alpha_k + 1) / (p - 1).  The integrand's log sums
    n log F values, so it is off by at most n times their largest
    interpolant bound, and the error includes that.
    """
    cfg = _cfg(cfg)
    p, n = spec.p, spec.n
    alpha = float(alpha)
    al = np.zeros(n)
    ex = tuple(float(v) for v in exponents)
    if len(ex) > n:
        raise DomainError(f"{len(ex)} exponents for dimension {n}")
    al[:len(ex)] = ex
    if not np.all(al > -1.0):
        raise DomainError("coordinate exponents must exceed -1")
    s_tail = float((al + 1.0).sum()) / (2.0 * p - 2.0) - 0.5 * alpha
    if not (alpha > 0.0 and s_tail > 0.0):
        raise DomainError(
            f"alpha={alpha} outside the convergence strip "
            f"(0, {float((al + 1.0).sum()) / (p - 1.0)})")
    mu = (n + float(al.sum()) - alpha * (p - 1.0)) / p
    gather, counts, _ = _coordinate_log_f(spec, [al], cfg)
    bound = np.zeros(1)

    def log_smooth(th, idx):
        cols, err = gather(th)
        np.maximum(bound, err, out=bound)
        return (cols[0] * counts).sum(axis=1)[:, None]

    log_int, log_err, nodes = log_theta_integral(
        np.array([0.5 * alpha - 1.0]), log_smooth, np.array([s_tail]), cfg)
    pre = (math.log(p), -math.lgamma(mu), -math.lgamma(0.5 * alpha),
           -float(((al + 1.0) * np.log(spec.weights)).sum()))
    return _result(pre, float(log_int[0]), float(log_err[0]),
                   n * float(bound[0]), nodes)


def kubota_projection_factor(n: int, j: int) -> float:
    """kappa_j kappa_(n-j) / (kappa_n C(n, j)): the constant linking V_j
    to the mean j-dimensional projection volume."""
    if not 0 <= j <= n:
        raise DomainError(f"projection index {j} outside 0..{n}")
    return math.exp(log_kappa(j) + log_kappa(n - j) - log_kappa(n)
                    - log_choose(n, j))


def mean_projection_volume(spec: PBallSpec, j: int,
                           cfg: QuadConfig = None) -> float:
    """Average j-volume of the projection onto a uniform random
    j-dimensional subspace: V_j times the Kubota factor."""
    return (intrinsic_volume(spec, j, cfg).value.value
            * kubota_projection_factor(spec.n, j))


def steiner_polynomial(spec: PBallSpec, t: float,
                       cfg: QuadConfig = None) -> float:
    """Volume of the parallel body at distance t >= 0, summed in logs
    (DomainError when it overflows a double):

        Vol(B + t B_2^n) = sum_j kappa_(n-j) V_j(B) t^(n-j).
    """
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"offset distance must be >= 0, got {t}")
    n = spec.n
    vjs = intrinsic_volumes(spec, range(n + 1), cfg)
    # at t = 0 only the j = n term, the volume, is left
    log_terms = [vjs[n].value.log_abs] + [
        log_kappa(n - j) + res.value.log_abs + (n - j) * math.log(t)
        for j, res in enumerate(vjs[:n]) if t > 0.0]
    return exp_checked(float(logsumexp_arr(log_terms)),
                       f"the Steiner polynomial at t={t:g}")
