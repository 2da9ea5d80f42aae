"""Exact intrinsic volumes and boundary moments of coordinate-weighted
p-balls  B = { x : sum_i |a_i x_i|^p <= 1 },  p > 1.

Every quantity is a single absolutely convergent integral over an
auxiliary variable theta in (0, inf), with the integrand built from the
F-family; the integrals are evaluated in log space so dimensions in the
thousands pose no scaling problem.

One theta integral serves every exact value: the boundary moment of
codimension index m, whose integrand is a leave-one-out coefficient sum
over the coordinates (_moment_logs).  V_j, 0 < j < n, is that moment
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .logspace import LogValue, exp_checked
from .quadrature import log_theta_integral
from .specfun import (QuadConfig, _cfg, as_exponent, f_family_log_interp,
                      kappa, log_choose, log_kappa)
from .symfun import batched_loo_log

__all__ = [
    "PBallSpec", "MomentRequest", "IntrinsicVolumeResult",
    "volume", "intrinsic_volume", "intrinsic_volumes",
    "intrinsic_volume_weighted",
    "mixed_moment", "mixed_moment_log", "surface_moment", "key_integral",
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
            if not (math.isfinite(lam) and lam > low):
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
class IntrinsicVolumeResult:
    """An intrinsic volume with quadrature diagnostics.

    value is a positive log-scale number; theta_nodes counts integrand
    evaluations of the outer integral (for a result of intrinsic_volumes,
    the node count of the mesh shared by the whole family, so equal for
    all its members; 0 for a closed form); est_rel_error is the
    quadrature error estimate relative to the value, widened by the
    F-interpolant bound, plus the rounding of its log terms.
    """

    value: LogValue
    j: int
    theta_nodes: int
    est_rel_error: float


def volume(spec: PBallSpec) -> LogValue:
    """Exact volume: (2 Gamma(1+1/p))^n / (Gamma(1+n/p) prod a_i)."""
    p, n = spec.p, spec.n
    log_v = (n * (math.log(2.0) + math.lgamma(1.0 + 1.0 / p))
             - math.lgamma(1.0 + n / p)
             - float(np.log(spec.weights).sum()))
    return LogValue.from_log(log_v)


def _rounding_rel_error(log_pre, log_int: float) -> float:
    """Relative error of exp(sum(log_pre) + log_int) from rounding its
    log terms: eps per unit of log magnitude.  In the thousands of
    dimensions the lgamma terms reach n log n and this exceeds the
    quadrature error."""
    return _EPS * (sum(abs(t) for t in log_pre) + abs(log_int))


def _with_f_error(log_int: float, log_err: float, log_f_err: float
                      ) -> float:
    """log_err of a theta integral widened by the F-interpolant error: an
    integrand whose log is off by at most log_f_err is off by at most
    expm1(log_f_err) relative, and so is its integral."""
    if log_f_err <= 0.0:
        return log_err
    return np.logaddexp(log_err, log_int + math.log(math.expm1(log_f_err)))


def intrinsic_volumes(spec: PBallSpec, js: Sequence[int],
                      cfg: QuadConfig = None) -> list:
    """V_j for every j in js, in the order given, for any body.

    V_0 = 1 and V_n = volume(spec) are closed forms.  Every other V_j is
    the boundary moment of codimension n - j with no exponents, and all
    of them are one family theta integral on a shared mesh (_moment_logs),
    so each F-table batch serves every member; theta_nodes of each result
    is the node count of that shared mesh.
    """
    cfg = _cfg(cfg)
    n = spec.n
    js = [int(j) for j in js]
    for j in js:
        if not 0 <= j <= n:
            raise DomainError(f"intrinsic volume index {j} outside 0..{n}")
    found = {0: IntrinsicVolumeResult(LogValue.one(), 0, 0, 0.0),
             n: IntrinsicVolumeResult(volume(spec), n, 0, 0.0)}
    inner = sorted({j for j in js if 0 < j < n})
    if inner:
        rows, nodes = _moment_logs(spec, [n - j for j in inner], np.zeros(n),
                                   cfg)
        for j, (log_val, rel) in zip(inner, rows):
            found[j] = IntrinsicVolumeResult(LogValue.from_log(log_val), j,
                                             nodes, rel)
    return [found[j] for j in js]


def intrinsic_volume(spec: PBallSpec, j: int, cfg: QuadConfig = None
                     ) -> IntrinsicVolumeResult:
    """V_j of a unit or weighted p-ball: intrinsic_volumes for one j."""
    return intrinsic_volumes(spec, [j], cfg)[0]


# the same call, under the name that weighted-body callers use
intrinsic_volume_weighted = intrinsic_volume


def _coordinate_log_f(spec: PBallSpec, lam: np.ndarray, offsets,
                      cfg: QuadConfig):
    """F-table gather over coordinate groups.

    Coordinate k reads log F(theta a_k^2; lam_k + o) for each offset o.
    Coordinates with equal (a_k, lam_k) form one group, in order of first
    appearance.  Returns (gather, counts, a2): gather maps a theta batch
    (T,) to one (T, G) array per offset and, per offset, the largest
    error bound on its log F values, with one interpolant call over the
    distinct a_k^2 and the distinct nu values of all offsets; counts[g]
    is the size of group g and a2[g] its a_k^2.
    """
    ua2, aidx = np.unique(spec.weights ** 2, return_inverse=True)
    ulam, lidx = np.unique(lam, return_inverse=True)
    _, first, counts = np.unique(aidx * len(ulam) + lidx, return_index=True,
                                 return_counts=True)
    order = np.argsort(first)
    first, counts = first[order], counts[order]
    gidx = aidx[first]
    unus, nidx = np.unique(np.concatenate([lam[first] + o for o in offsets]),
                           return_inverse=True)

    def gather(th):
        th = np.asarray(th, dtype=float)
        ts = np.outer(th, ua2).reshape(-1)
        tab, err = f_family_log_interp(spec.p, ts, unus, cfg)
        tab = tab.reshape(len(th), len(ua2), len(unus))
        blocks = nidx.reshape(len(offsets), -1)
        return ([tab[:, gidx, idx] for idx in blocks],
                np.array([err[idx].max() for idx in blocks]))

    return gather, counts, ua2[gidx]


def _moment_logs(spec: PBallSpec, ms, lam: np.ndarray, cfg: QuadConfig):
    """Boundary moments of codimension indices ms (validated by the
    caller) that share the padded exponents lam, as one family theta
    integral.  Returns ([(log value, relative error) per m], theta nodes).

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
    The u column is read whenever its nu = lam_k + p - 2 all exceed -1,
    so the nu set does not depend on which m are asked for.
    MomentRequest.validate ensures that for m > 1; at m = 1, where it can
    fail when p < 2, the order-0 coefficient never reads u_k.

    Every term of the sum reads n - m v-values, m - 1 u-values and one
    w-value, so with eps the largest F-interpolant bound of each offset's
    columns the log integrand is off by at most (n-m) eps_v +
    (m-1) eps_u + eps_w, and each error includes that.
    """
    p, n = spec.p, spec.n
    ms = np.asarray(ms, dtype=int)
    offsets = [0.0, 2.0 * p - 2.0]
    if lam.min() + p - 2.0 > -1.0:
        offsets.append(p - 2.0)
    gather, counts, a2 = _coordinate_log_f(spec, lam, offsets, cfg)
    log_a2 = np.log(a2)
    one_group = len(counts) == 1
    bound = np.zeros(3)   # eps_v, eps_w, eps_u (0 when u is not read)
    read = bound[:len(offsets)]

    def log_smooth(th, idx):
        cols, err = gather(th)
        np.maximum(read, err, out=read)
        logv, logw = cols[0], log_a2 + cols[1]
        logu = log_a2 + cols[2] if len(cols) > 2 else logv
        if one_group:
            return (n - ms[idx]) * logv + (ms[idx] - 1) * logu + logw
        return np.stack([batched_loo_log(logv, logu if m > 1 else logv,
                                         logw, m, counts) for m in ms[idx]],
                        axis=1)

    total = float(lam.sum())
    s_tail = (total + (n - ms) + p) / (2.0 * p - 2.0)
    log_ints, log_errs, nodes = log_theta_integral(0.5 * ms - 1.0, log_smooth,
                                                   s_tail, cfg)
    eps_v, eps_w, eps_u = bound
    out = []
    for m, log_int, log_err in zip(ms.tolist(), log_ints.tolist(),
                                   log_errs.tolist()):
        log_err = _with_f_error(
            log_int, log_err, (n - m) * eps_v + (m - 1) * eps_u + eps_w)
        pre = (math.log(p), (m - 1) * math.log(p - 1.0),
               log_choose(n, m) if one_group else -math.log(m),
               -log_kappa(m), -math.lgamma((n + total + p - m) / p),
               -math.lgamma(0.5 * m),
               -float(((lam + 1.0) * np.log(spec.weights)).sum()))
        out.append((sum(pre) + log_int,
                    math.exp(log_err - log_int)
                    + _rounding_rel_error(pre, log_int)))
    return out, nodes


def _moment_log(spec: PBallSpec, req: MomentRequest, cfg: QuadConfig):
    req.validate(spec)
    rows, nodes = _moment_logs(spec, [req.codim], req.padded(spec.n), cfg)
    return (*rows[0], nodes)


def mixed_moment(spec: PBallSpec, request: MomentRequest,
                 cfg: QuadConfig = None) -> float:
    """Boundary mixed moment: the local-parallel-volume coefficient of
    order codim, weighted by prod_k |x_k|^lambda_k over the boundary.
    DomainError when it overflows a double (mixed_moment_log does not)."""
    log_val, _, _ = _moment_log(spec, request, _cfg(cfg))
    return exp_checked(log_val, "the mixed moment")


def mixed_moment_log(spec: PBallSpec, request: MomentRequest,
                     cfg: QuadConfig = None) -> LogValue:
    log_val, _, _ = _moment_log(spec, request, _cfg(cfg))
    return LogValue.from_log(log_val)


def surface_moment(spec: PBallSpec, lambdas: Sequence[float] = (),
                   cfg: QuadConfig = None) -> float:
    """Surface-measure moment int_boundary prod |x_k|^lambda_k dS.

    Surface measure is twice the top curvature measure, so this is
    2 * mixed_moment(spec, MomentRequest(1, lambdas)): with G(theta) =
    prod_k F(theta a_k^2; lambda_k), integration by parts turns the
    surface integral of (G(0) - G(theta)) theta^(-3/2) into
    2 int theta^(-1/2) (-G'(theta)), and -G' is the m = 1 leave-one-out
    sum of the moment integrand, under the same prefactor.  DomainError
    when it overflows a double.
    """
    log_val, _, _ = _moment_log(spec, MomentRequest(1, lambdas), _cfg(cfg))
    return exp_checked(math.log(2.0) + log_val, "the surface moment")


def key_integral(spec: PBallSpec, alpha: float,
                 exponents: Sequence[float] = (),
                 cfg: QuadConfig = None) -> float:
    """The master two-sided integral

        integral_0^inf theta^(alpha/2 - 1) prod_k F(theta a_k^2; alpha_k)
        d theta  /  (Gamma(alpha/2) Gamma(mu) prod a_k^(alpha_k + 1) / p)

    with mu = (n + sum alpha_k - alpha (p-1)) / p, convergent exactly when
    0 < alpha < sum_k (alpha_k + 1) / (p - 1).  DomainError when it
    overflows a double.
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
    gather, counts, _ = _coordinate_log_f(spec, al, [0.0], cfg)
    log_int, _, _ = log_theta_integral(
        np.array([0.5 * alpha - 1.0]),
        lambda th, idx: (gather(th)[0][0] * counts).sum(axis=1)[:, None],
        np.array([s_tail]), cfg)
    log_pre = (math.log(p) - math.lgamma(mu) - math.lgamma(0.5 * alpha)
               - float(((al + 1.0) * np.log(spec.weights)).sum()))
    return exp_checked(log_pre + float(log_int[0]), "the key integral")


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
    res = intrinsic_volumes(spec, [j], cfg)[0]
    return res.value.value * kubota_projection_factor(spec.n, res.j)


def steiner_polynomial(spec: PBallSpec, t: float,
                       cfg: QuadConfig = None) -> float:
    """Volume of the parallel body at distance t >= 0:

        Vol(B + t B_2^n) = sum_j kappa_(n-j) V_j(B) t^(n-j).
    """
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"offset distance must be >= 0, got {t}")
    n = spec.n
    total = 0.0
    for j, res in enumerate(intrinsic_volumes(spec, range(n + 1), cfg)):
        total += kappa(n - j) * res.value.value * t ** (n - j)
    return total
