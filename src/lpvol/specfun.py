"""The two-parameter exponential-integral family behind every volume formula.

    F_p(t; nu) = 2 * integral_0^inf u^nu * exp(-u^p - t * u^(2p-2)) du

for p > 1, t >= 0, nu > -1.  The letters I, J, K, L name the members with
nu = 0, p-2, 2p-2, 3p-4.  Closed forms used throughout:

    F_p(0; nu)            = (2/p) Gamma((nu+1)/p)
    d/dt F_p(t; nu)       = -F_p(t; nu + 2p - 2)
    (p-1) J = p K + 2 (p-1) t L
    F_p(t; nu) ~ Gamma(s)/(p-1) * t^(-s) * (1 - rho * t^(-p/(2p-2)) + ...),
                 s = (nu+1)/(2p-2),  rho = Gamma(s + p/(2p-2)) / Gamma(s)

Numerics: for t < 1 the integrand is evaluated directly; for t >= 1 the
substitution u = t^(-1/(2p-2)) z turns the integral into t^(-s) times a
bounded-kernel integral, so t up to 1e20 stays in range for p from 1.001
to 64.  Many components (several t rows times several nu columns) are
integrated on one shared adaptive grid.  Both ends of the u-axis are
handled by closed forms:

- Left end.  Exponents nu in (-1, 0) have an integrable singularity at
  u = 0.  Every row coefficient is at most 1, so below
  y0 = -61 log 2 / (smallest exponent) the kernel exp(-c u^e_c - u^e_1)
  is 1 to double precision and the integral up to e^y0 is
  e^((nu+1) y0)/(nu+1).  The rest of [0, split] is integrated in
  y = log u, all nu < 0 columns on one grid, with u^e formed as
  exp(e y), since u itself underflows near y0.
- Right end.  The shared upper limit comes from the elementary bound
  Gamma(s, x) <= x^(s-1) e^(-x) / (1 - max(s-1, 0)/x), x >= max(s, 1),
  on the tail integral_u^inf x^nu exp(-c x^e) dx = c^(-s)/e Gamma(s, c u^e),
  tested in log space.  That tail falls as the row coefficient c grows,
  for every u, and the cutoff search is monotone in c as well, so the
  largest cutoff over the rows is the one of the smallest coefficient:
  one search per nu column serves every row.

Near p = 1 the rescaled z^p coefficient t^(-p/(2p-2)) is tiny (it
underflows a double at p = 1.001, t = 10), so the mass of the z integral
lies decades to hundreds of decades above the split point, far below the
upper limit.  When that limit exceeds the split point by more than a
factor 1e4, the piece above the split is integrated in y = log z instead,
each (t, nu) component over its own window around the peak of its
concave log-integrand, and kept in log form, since the value can exceed
a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, QuadratureFailure
from .quadrature import quad_gk
from .roots import solve_increasing

__all__ = [
    "QuadConfig", "DEFAULT_CONFIG", "PExponent", "as_exponent",
    "f_family", "f_family_log", "f_family_log_table", "ijkl", "IJKL",
    "f_family_at_zero", "f_family_at_zero_log",
    "f_family_large_t", "LargeTAsymptote",
    "log_gamma", "log_choose", "kappa", "log_kappa",
]

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class QuadConfig:
    """Accuracy knobs shared by all quadrature-backed ops.

    rel_tol / abs_tol: per-component targets for adaptive integration.
    max_subdivisions: interval budget per adaptive call.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 512

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if not (0.0 < self.abs_tol < 1.0):
            raise DomainError(f"abs_tol must be in (0, 1), got {self.abs_tol}")
        if not self.max_subdivisions >= 8:
            raise DomainError("max_subdivisions must be at least 8")

    def cache_key(self):
        return (self.rel_tol, self.abs_tol, self.max_subdivisions)


DEFAULT_CONFIG = QuadConfig()


def _cfg(cfg):
    return DEFAULT_CONFIG if cfg is None else cfg


@dataclass(frozen=True)
class PExponent:
    """A validated ball exponent, strictly above 1 and finite."""

    p: float

    def __post_init__(self):
        p = float(self.p)
        if not (math.isfinite(p) and p > 1.0):
            raise DomainError(
                f"exponent must be finite and > 1, got {self.p!r}")
        object.__setattr__(self, "p", p)


def as_exponent(p) -> float:
    """Coerce a float or PExponent to a validated float exponent."""
    if isinstance(p, PExponent):
        return p.p
    return PExponent(float(p)).p


def log_gamma(x) -> float:
    """log Gamma(x) for x > 0; DomainError off the half-line."""
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"log_gamma needs x > 0, got {x!r}")
    return math.lgamma(x)


def log_choose(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k)."""
    if not (0 <= k <= n):
        raise DomainError(f"binomial out of range: C({n}, {k})")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def log_kappa(m) -> float:
    """log of the volume of the unit Euclidean ball in dimension m >= 0."""
    m = float(m)
    if m < 0:
        raise DomainError(f"ball-volume dimension must be >= 0, got {m}")
    return 0.5 * m * math.log(math.pi) - math.lgamma(1.0 + 0.5 * m)


def kappa(m) -> float:
    return math.exp(log_kappa(m))


# ---------------------------------------------------------------------------
# truncation bounds

def _tail_cutoff(c, e, nu, log_target):
    """log of a u with integral_u^inf x^nu exp(-c x^e) dx <= exp(log_target).

    With s = (nu+1)/e and x = c u^e the tail is c^(-s)/e * Gamma(s, x).
    On [x, inf) with x >= max(s, 1), the integrand t^(s-1) e^(-t) of
    Gamma(s, x) is below x^(s-1) e^(-t) when s <= 1; when s > 1 it is
    log-concave and falling, so it lies below its tangent exponential at
    x.  Integrating either gives the closed-form bound (DLMF 8.10.1-2)

        Gamma(s, x) <= x^(s-1) e^(-x) / (1 - max(s-1, 0)/x).

    The bound is tested in log space on the geometric grid
    x = max(s, 1) * 1.5^k, and the first x that passes is returned as
    log u = (log x - log c)/e.  The grid does not depend on c and the
    bound falls as c grows, so the cutoff never rises with c.  Returns
    None when c is too small to give a useful bound, and -inf (u = 0)
    when the whole integral c^(-s) Gamma(s)/e is already below the target.
    """
    if not c > 1e-280:
        return None
    s = (nu + 1.0) / e
    log_c = math.log(c)
    log_pref = -s * log_c - math.log(e)
    if log_pref + math.lgamma(s) <= log_target:
        return -math.inf
    x = max(s, 1.0)
    for _ in range(600):
        log_x = math.log(x)
        log_tail = (log_pref + (s - 1.0) * log_x - x
                    - math.log1p(-max(s - 1.0, 0.0) / x))
        if log_tail <= log_target:
            # log space: x/c can overflow a double when c is tiny
            return (log_x - log_c) / e
        x *= 1.5
    raise QuadratureFailure("tail cutoff search did not terminate")


def _log_upper_limit(cs, e_c, e_1, nus, cfg):
    """log of the upper limit shared by every row and column of a core
    table, at least log 1: per (row, nu) the tail of exp(-c u^e_c -
    u^e_1) is bounded by the smaller of the two factors' cutoffs, and the
    worst row sets the limit.
    """
    log_target = math.log(cfg.abs_tol) - math.log(10.0)
    c_min = cs.min()
    log_hi = 0.0
    for nu in nus:
        cut_1 = _tail_cutoff(1.0, e_1, nu, log_target)
        # the worst row has the smallest c: the tail integral_u^inf x^nu
        # exp(-c x^e) dx falls as c grows, for every u, and _tail_cutoff
        # never rises with c, so this one search gives the maximum over
        # rows of min(cut_c, cut_1)
        cut_c = _tail_cutoff(c_min, e_c, nu, log_target)
        cut = cut_1 if cut_c is None else min(cut_c, cut_1)
        log_hi = max(log_hi, cut)
    return log_hi


# ---------------------------------------------------------------------------
# core table

_CACHE: dict = {}
_CACHE_LIMIT = 500_000
# log of the largest ratio u_hi / split integrated on a linear u scale
_LOG_WIDE_SPAN = math.log(1e4)
# where [0, inf) is cut: for nu < 0 the piece below it, with the u^nu
# endpoint singularity, is integrated in log u
_SPLIT = 0.5
# log-integrand drop that bounds each window of _log_u_piece
_LOG_WINDOW = 40.0


def _log_u_piece(log_cs, e_c, e_1, nus, y_lo, y_hi, gk):
    """log of integral_(e^y_lo)^(e^y_hi) u^nu exp(-c u^e_c - u^e_1) du per
    (row, nu), integrated in y = log u.

    Used when [e^y_lo, e^y_hi] spans so many decades (p near 1, where the
    rescaled z^p coefficient is tiny) that a linear-u rule on one shared
    grid never sees the mass.  The log-integrand
    h(y) = (nu+1) y - c e^(e_c y) - e^(e_1 y) is concave, so each
    component has one peak; it is integrated over its own window around
    that peak, where h is within _LOG_WINDOW of its maximum, mapped onto
    a shared x in [0, 1].  By concavity what lies outside the window is
    below 2 exp(-_LOG_WINDOW) of the total.  solve_increasing finds the
    peak as the root of -h' (with -h'') and each window end as the root
    of +-(h - top + _LOG_WINDOW) (with +-h') on its side of the peak.
    """
    k, m = len(log_cs), len(nus)
    log_c = log_cs[:, None, None]
    slope = (nus + 1.0)[None, :, None]

    def terms(y):
        with np.errstate(over="ignore"):
            return np.exp(log_c + e_c * y), np.exp(e_1 * y)

    def h(y):
        t_c, t_1 = terms(y)
        return slope * y - t_c - t_1

    def dh(y):
        t_c, t_1 = terms(y)
        return slope - e_c * t_c - e_1 * t_1

    def ddh(y):
        t_c, t_1 = terms(y)
        return -e_c * e_c * t_c - e_1 * e_1 * t_1

    lo = np.full((k, m, 1), y_lo)
    hi = np.full((k, m, 1), y_hi)
    peak = solve_increasing(lambda y: (-dh(y), -ddh(y)), lo, hi)
    top = h(peak)
    a = solve_increasing(lambda y: (h(y) - top + _LOG_WINDOW, dh(y)),
                         lo, peak)
    b = solve_increasing(lambda y: (top - _LOG_WINDOW - h(y), -dh(y)),
                         peak, hi)

    def f(x):
        return np.exp(h(a + (b - a) * x) - top).reshape(k * m, -1)

    piece = gk(f, 0.0, 1.0).reshape(k, m, 1)
    with np.errstate(divide="ignore"):
        return (top + np.log((b - a) * piece))[:, :, 0]


def _core_log_table(cs, log_cs, e_c, e_1, nus, cfg):
    """log of integral_0^inf u^nu exp(-c u^e_c - u^e_1) du, tabled.

    cs: per-row coefficients (k,), with their logs log_cs (exact even
    where cs underflows); nus: column exponents (m,), each > -1.  Returns
    (k, m) of log values.  All rows and columns share one adaptive grid
    per piece.  When the upper limit exceeds the split point by more than
    exp(_LOG_WIDE_SPAN), the piece above the split is integrated in log u
    by _log_u_piece.
    """
    cs = np.asarray(cs, dtype=float)
    log_cs = np.asarray(log_cs, dtype=float)
    nus = np.asarray(nus, dtype=float)
    k, m = len(cs), len(nus)
    log_hi = _log_upper_limit(cs, e_c, e_1, nus, cfg)

    def kernel(u):
        expo = -(np.outer(cs, u ** e_c) + u ** e_1)
        return np.exp(expo, out=expo)

    def gk(f, lo, hi):
        return quad_gk(f, lo, hi, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                       max_subdivisions=cfg.max_subdivisions)[0]

    vals = np.zeros((k, m))

    def add_direct(sel, lo, hi):
        nus_sel = nus[sel]

        def f(u):
            ker = kernel(u)
            with np.errstate(divide="ignore"):
                pw = np.exp(np.outer(nus_sel, np.log(u)))
            return (ker[:, None, :] * pw[None, :, :]).reshape(
                k * len(nus_sel), -1)

        vals[:, sel] += gk(f, lo, hi).reshape(k, len(nus_sel))

    log_wide = None
    y_split = math.log(_SPLIT)
    if log_hi - y_split <= _LOG_WIDE_SPAN:
        add_direct(np.arange(m), _SPLIT, math.exp(min(log_hi, 700.0)))
    else:
        log_wide = _log_u_piece(log_cs, e_c, e_1, nus, y_split, log_hi, gk)
    neg = nus < 0.0
    pos = ~neg
    if pos.any():
        add_direct(np.flatnonzero(pos), 0.0, _SPLIT)
    if neg.any():
        # nu in (-1, 0): integrate in y = log u on [y0, log split].  Every
        # row has c <= 1, so below y0 the kernel is 1 to double precision
        # and that part is e^((nu+1) y0)/(nu+1) in closed form.
        q = nus[neg] + 1.0
        y0 = min(y_split, -61.0 * _LOG2 / min(e_c, e_1))

        def f_neg(y):
            # u^e as exp(e y): u = e^y itself underflows below y = -745
            ker = np.exp(-(np.exp(log_cs[:, None] + e_c * y)
                           + np.exp(e_1 * y)))
            pw = np.exp(np.outer(q, y))
            return (ker[:, None, :] * pw[None, :, :]).reshape(k * len(q), -1)

        head = np.exp(q * y0) / q
        if y0 < y_split:
            head = head + gk(f_neg, y0, y_split).reshape(k, len(q))
        vals[:, neg] += head
    with np.errstate(divide="ignore"):
        out = np.log(vals)
    if log_wide is not None:
        out = np.logaddexp(log_wide, out)
    if not np.isfinite(out).all():
        raise QuadratureFailure(
            "core table produced a non-positive or non-finite value")
    return out


def f_family_log_table(p, ts, nus, cfg=None):
    """log F_p(t; nu) for every (t, nu) pair; shape (len(ts), len(nus)).

    The workhorse: distinct t values are split into t < 1 (direct) and
    t >= 1 (rescaled by u = t^(-1/(2p-2)) z) groups, each group solved as
    one multi-component adaptive integral.  Results are cached per
    (p, t, nu, config) so repeated theta grids stay cheap.
    """
    cfg = _cfg(cfg)
    p = as_exponent(p)
    ts = np.asarray(ts, dtype=float)
    nus = np.asarray(nus, dtype=float)
    if ts.ndim != 1 or nus.ndim != 1:
        raise DomainError("ts and nus must be one-dimensional")
    if not np.all(np.isfinite(ts) & (ts >= 0.0)):
        raise DomainError("t arguments must be finite and >= 0")
    if not np.all(np.isfinite(nus) & (nus > -1.0)):
        raise DomainError("nu arguments must be finite and > -1")
    uts, t_inv = np.unique(ts, return_inverse=True)
    unus, n_inv = np.unique(nus, return_inverse=True)
    key_tail = (tuple(unus), cfg.cache_key())
    out = np.full((len(uts), len(unus)), np.nan)
    miss = []
    for i, t in enumerate(uts):
        got = _CACHE.get((p, t) + key_tail)
        if got is None:
            miss.append(i)
        else:
            out[i] = got
    if miss:
        tm = uts[miss]
        small = tm < 1.0
        rows = np.asarray(miss)
        e2 = 2.0 * p - 2.0
        if small.any():
            tt = tm[small]
            with np.errstate(divide="ignore"):
                log_tt = np.log(tt)
            core = _core_log_table(tt, log_tt, e2, p, unus, cfg)
            out[rows[small]] = _LOG2 + core
        if (~small).any():
            tt = tm[~small]
            # u = t^(-1/(2p-2)) z:  F = 2 t^(-(nu+1)/(2p-2)) *
            #     integral z^nu exp(-t^(-p/(2p-2)) z^p - z^(2p-2)) dz
            log_c = (-p / e2) * np.log(tt)
            core = _core_log_table(np.exp(log_c), log_c, p, e2, unus, cfg)
            shift = -np.outer((np.log(tt)) / e2, unus + 1.0)
            out[rows[~small]] = _LOG2 + core + shift
        if len(_CACHE) > _CACHE_LIMIT:
            _CACHE.clear()
        for i in miss:
            _CACHE[(p, uts[i]) + key_tail] = out[i].copy()
    return out[np.ix_(t_inv, n_inv)]


def f_family_log(p, t, nu, cfg=None) -> float:
    """log F_p(t; nu) for scalar arguments."""
    return float(f_family_log_table(p, [t], [nu], cfg)[0, 0])


def f_family(p, t, nu, cfg=None) -> float:
    """F_p(t; nu) for scalar arguments (may overflow for nu near -1 only
    in pathological configs; the log variant never does)."""
    return math.exp(f_family_log(p, t, nu, cfg))


class IJKL(NamedTuple):
    """The four named members I, J, K, L at one (p, t)."""

    i: float
    j: float
    k: float
    l: float


def ijkl(p, t, cfg=None) -> IJKL:
    """(I, J, K, L)(t) = F_p(t; nu) at nu = 0, p-2, 2p-2, 3p-4."""
    p = as_exponent(p)
    tab = f_family_log_table(
        p, [t], [0.0, p - 2.0, 2.0 * p - 2.0, 3.0 * p - 4.0], cfg)
    return IJKL(*np.exp(tab[0]))


def f_family_at_zero_log(p, nu) -> float:
    """log F_p(0; nu) = log((2/p) Gamma((nu+1)/p)), exactly."""
    p = as_exponent(p)
    nu = float(nu)
    if not nu > -1.0:
        raise DomainError(f"nu must exceed -1, got {nu}")
    return _LOG2 - math.log(p) + math.lgamma((nu + 1.0) / p)


def f_family_at_zero(p, nu) -> float:
    return math.exp(f_family_at_zero_log(p, nu))


def f_family_large_t(p, nu) -> "LargeTAsymptote":
    """Large-t asymptote of F_p(t; nu): returns an object with decay
    exponent s = (nu+1)/(2p-2), prefactor Gamma(s)/(p-1), and the relative
    correction ratio Gamma(s + p/(2p-2))/Gamma(s) applied at exponent
    p/(2p-2)."""
    p = as_exponent(p)
    nu = float(nu)
    if not nu > -1.0:
        raise DomainError(f"nu must exceed -1, got {nu}")
    s = (nu + 1.0) / (2.0 * p - 2.0)
    step = p / (2.0 * p - 2.0)
    gamma_factor = math.exp(math.lgamma(s) - math.log(p - 1.0))
    ratio = math.exp(math.lgamma(s + step) - math.lgamma(s))
    return LargeTAsymptote(decay=s, gamma_factor=gamma_factor,
                           correction_ratio=ratio, correction_step=step)


@dataclass(frozen=True)
class LargeTAsymptote:
    """F_p(t; nu) ~ gamma_factor * t^(-decay) *
    (1 - correction_ratio * t^(-correction_step) + O(t^(-2*correction_step)))."""

    decay: float
    gamma_factor: float
    correction_ratio: float
    correction_step: float

    def leading(self, t) -> float:
        return self.gamma_factor * float(t) ** (-self.decay)

    def two_term(self, t) -> float:
        t = float(t)
        return self.leading(t) * (
            1.0 - self.correction_ratio * t ** (-self.correction_step))
