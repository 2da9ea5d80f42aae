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
to 64.  Exponents above 1e5 are refused (see _P_MAX).  Many components
(several t rows times several nu columns) are integrated on one shared
adaptive grid.  Both ends of the u-axis are handled by closed forms:

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
a double.  That piece is also taken in log z at large p (kernel exponent
2p - 2 above 1024), where the kernel drops from 1 to 0 within about 1/p
of u = 1, too narrow for a linear-u rule to find.  Each log value comes
with a bound on its error, from the GK error estimates of its pieces.

No caller runs that table per value.  Every one reads F from
f_family_log_interp (f_family_log_table, f_family and ijkl return its
values): for one p, one set of nu columns and one config, a
piecewise Chebyshev interpolant of degree 40 in y = log1p(t) of

    g(y) = log F_p(t; nu) + s y,    s = (nu+1)/(2p-2),

which is bounded as t -> inf (the asymptote above), exactly constant at
p = 2 (F = Gamma(s) (1+t)^(-s)), and has no seam at t = 1.  Panels
start from the breaks y = 0, 1, 2.5, 5, 10, 18, log1p(1e12), then double
in y up to the largest finite t, and are built only when a t first needs
them, with node values from the direct table.  A panel is halved while
its chopped tail, the sum of its top 10 Chebyshev coefficients, exceeds
1e-14 max(1, |g|) in some column, unless halving does not shrink that
tail 4x: then the tail is the node values' own noise (a plateau), and it
stays in the bound.  Each column carries, as the largest over built
panels, the bound tail + Lambda * node error on |error in log F|, where
the node error is the table's GK estimate plus the rounding of the log
terms that cancel in g, and Lambda = 1 + (2/pi) log(41) bounds the
Lebesgue constant.  Values are the barycentric formula of the second
kind on the panel's Chebyshev points, one matrix product per panel and
block of rows.  The direct table stays only as the node evaluator and
as the reference the tests hold to mpmath.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, QuadratureFailure
from .logspace import exp_checked
from .quadrature import quad_gk
from .roots import solve_increasing

__all__ = [
    "QuadConfig", "DEFAULT_CONFIG", "as_exponent",
    "f_family", "f_family_log", "f_family_log_table", "f_family_log_interp",
    "ijkl", "IJKL",
    "f_family_at_zero", "f_family_at_zero_log",
    "f_family_large_t", "LargeTAsymptote",
    "log_gamma", "log_choose", "kappa", "log_kappa",
]

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class QuadConfig:
    """Accuracy knobs shared by all quadrature-backed ops.

    rel_tol: per-component relative target for adaptive integration.
    max_subdivisions: interval budget per adaptive call.
    The core table's absolute floor is the fixed _ABS_TOL.
    """

    rel_tol: float = 1e-10
    max_subdivisions: int = 512

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if not self.max_subdivisions >= 8:
            raise DomainError("max_subdivisions must be at least 8")

    def cache_key(self):
        return (self.rel_tol, self.max_subdivisions)


DEFAULT_CONFIG = QuadConfig()


def _cfg(cfg):
    return DEFAULT_CONFIG if cfg is None else cfg


def as_exponent(p) -> float:
    """p as a validated float exponent, strictly above 1 and finite."""
    p = float(p)
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError(f"exponent must be finite and > 1, got {p!r}")
    return p


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

# absolute floor of every core-table GK piece; a tenth of it is the
# u-tail target.  A fixed floor is safe: every row coefficient c is at
# most 1, so on [0, 1] the integrand is at least u^nu e^-2 and each core
# integral is at least e^-2/(nu+1).  The floor is then at most
# 1e-14 e^2 (nu+1) of the value, below 1e-10 for nu up to 1000.
_ABS_TOL = 1e-14


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


def _log_upper_limit(cs, e_c, e_1, nus):
    """log of the upper limit shared by every row and column of a core
    table, at least log 1: per (row, nu) the tail of exp(-c u^e_c -
    u^e_1) is bounded by the smaller of the two factors' cutoffs, and the
    worst row sets the limit.
    """
    log_target = math.log(_ABS_TOL) - math.log(10.0)
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

# log of the largest ratio u_hi / split integrated on a linear u scale
_LOG_WIDE_SPAN = math.log(1e4)
# largest kernel exponent integrated on a linear u scale: exp(-u^e) falls
# from 1 to 0 within about 1/e of u = 1, and above this e that drop is
# narrower than the node spacing of the first GK15 panel on [split, u_hi]
# (about 2e-3), which can then read ~0 at every node and stop
_LINEAR_MAX_EXPONENT = 1024.0
# largest p the table resolves.  From p = 5e5 on the log-u piece misses
# the same drop at the end of the nu = 0 window: log F(0; 0) is 8e-6 off
# there, against a bound of 4e-8, while p = 3e5 is within 1e-15
_P_MAX = 1e5
# where [0, inf) is cut: for nu < 0 the piece below it, with the u^nu
# endpoint singularity, is integrated in log u
_SPLIT = 0.5
# log-integrand drop that bounds each window of _log_u_piece
_LOG_WINDOW = 40.0


def _log_u_piece(log_cs, e_c, e_1, nus, y_lo, y_hi, gk):
    """log of integral_(e^y_lo)^(e^y_hi) u^nu exp(-c u^e_c - u^e_1) du per
    (row, nu), integrated in y = log u, and its relative error.

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
    The error is the GK estimate plus that window bound.
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
    peak_terms = tuple(zip(terms(peak), (e_c, e_1)))

    def f(x):
        # h(y) - top as slope d - T expm1(e d) summed over both terms, T
        # their values at the peak and d = y - peak: h and top reach 1e7
        # at large nu, and their difference would carry that rounding.
        # A term that underflowed at the peak adds 0 (not 0 * inf).
        d = a + (b - a) * x - peak
        shift = slope * d
        with np.errstate(over="ignore", invalid="ignore"):
            for t, e in peak_terms:
                shift -= np.where(t > 0.0, t * np.expm1(e * d), 0.0)
        return np.exp(shift).reshape(k * m, -1)

    piece, err = gk(f, 0.0, 1.0)
    piece = piece.reshape(k, m)
    with np.errstate(divide="ignore"):
        log_piece = top[:, :, 0] + np.log((b - a)[:, :, 0] * piece)
    return log_piece, err.reshape(k, m) / piece + 2.0 * math.exp(-_LOG_WINDOW)


def _core_log_table(cs, log_cs, e_c, e_1, nus, cfg):
    """log of integral_0^inf u^nu exp(-c u^e_c - u^e_1) du, tabled.

    cs: per-row coefficients (k,), with their logs log_cs (exact even
    where cs underflows); nus: column exponents (m,), each > -1.  Returns
    (k, m) log values and (k, m) bounds on their absolute error, from the
    GK error estimates of the pieces.  All rows and columns share one
    adaptive grid per piece.  When the upper limit exceeds the split
    point by more than exp(_LOG_WIDE_SPAN), or u^nu would overflow there,
    or a kernel exponent exceeds _LINEAR_MAX_EXPONENT, the piece above
    the split is integrated in log u by _log_u_piece.
    """
    cs = np.asarray(cs, dtype=float)
    log_cs = np.asarray(log_cs, dtype=float)
    nus = np.asarray(nus, dtype=float)
    k, m = len(cs), len(nus)
    log_hi = _log_upper_limit(cs, e_c, e_1, nus)

    def kernel(u):
        expo = -(np.outer(cs, u ** e_c) + u ** e_1)
        return np.exp(expo, out=expo)

    def gk(f, lo, hi):
        return quad_gk(f, lo, hi, rel_tol=cfg.rel_tol, abs_tol=_ABS_TOL,
                       max_subdivisions=cfg.max_subdivisions)[:2]

    vals = np.zeros((k, m))
    errs = np.zeros((k, m))

    def add_direct(sel, lo, hi):
        nus_sel = nus[sel]

        def f(u):
            ker = kernel(u)
            with np.errstate(divide="ignore"):
                pw = np.exp(np.outer(nus_sel, np.log(u)))
            return (ker[:, None, :] * pw[None, :, :]).reshape(
                k * len(nus_sel), -1)

        val, err = gk(f, lo, hi)
        vals[:, sel] += val.reshape(k, len(nus_sel))
        errs[:, sel] += err.reshape(k, len(nus_sel))

    log_wide = None
    y_split = math.log(_SPLIT)
    # the linear-u piece forms u^nu as a double: once nu log u_hi nears
    # the overflow point it goes to the log-u piece as well, and so does a
    # kernel whose drop is too narrow for it (large p)
    if (log_hi - y_split <= _LOG_WIDE_SPAN and nus.max() * log_hi < 700.0
            and max(e_c, e_1) <= _LINEAR_MAX_EXPONENT):
        add_direct(np.arange(m), _SPLIT, math.exp(min(log_hi, 700.0)))
    else:
        log_wide, rel_wide = _log_u_piece(log_cs, e_c, e_1, nus, y_split,
                                          log_hi, gk)
    neg = nus < 0.0
    pos = ~neg
    if pos.any():
        add_direct(np.flatnonzero(pos), 0.0, _SPLIT)
    if neg.any():
        # nu in (-1, 0): integrate in y = log u on [y0, log split].  Every
        # row has c <= 1, so below y0 the kernel is 1 to double precision
        # and that part is e^((nu+1) y0)/(nu+1) in closed form.  Near
        # p = 1, y0 reaches -21000 while the mass sits within 45/(nu+1)
        # of the split and the kernel drops within 40/max(e_c, e_1) of
        # it: one GK15 panel over all of it can read ~0 at every node
        # and stop.  So the closed form starts at y_a, where every
        # column's e^((nu+1) y) has fallen e^-45 (below y0 it is exact;
        # above, what it adds is under 1e-15 of the total), and the
        # kernel's drop gets its own panel from y_b on.
        q = nus[neg] + 1.0
        y0 = min(y_split, -61.0 * _LOG2 / min(e_c, e_1))
        y_a = max(y0, y_split - 45.0 / q.min())
        y_b = max(y_a, y_split - 40.0 / max(e_c, e_1))

        def f_neg(y):
            # u^e as exp(e y): u = e^y itself underflows below y = -745
            ker = np.exp(-(np.exp(log_cs[:, None] + e_c * y)
                           + np.exp(e_1 * y)))
            pw = np.exp(np.outer(q, y))
            return (ker[:, None, :] * pw[None, :, :]).reshape(k * len(q), -1)

        vals[:, neg] += np.exp(q * y_a) / q
        for lo, hi in ((y_a, y_b), (y_b, y_split)):
            if lo < hi:
                val, err = gk(f_neg, lo, hi)
                vals[:, neg] += val.reshape(k, len(q))
                errs[:, neg] += err.reshape(k, len(q))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(vals)
        rel = errs / vals
    if log_wide is not None:
        total = np.logaddexp(log_wide, out)
        with np.errstate(invalid="ignore"):
            rel = (rel_wide * np.exp(log_wide - total)
                   + np.where(vals > 0.0, rel * np.exp(out - total), 0.0))
        out = total
    if not (np.isfinite(out).all() and np.isfinite(rel).all()):
        raise QuadratureFailure(
            "core table produced a non-positive or non-finite value")
    return out, rel


def f_family_log_table(p, ts, nus, cfg=None):
    """log F_p(t; nu) for every (t, nu) pair; shape (len(ts), len(nus)).

    The values of f_family_log_interp, so the scalar callers (phase
    solves, limit laws) read the interpolant the theta integrals read.
    """
    return f_family_log_interp(p, ts, nus, cfg)[0]


def _direct_log_table(p, ts, nus, cfg):
    """log F_p(t; nu) over distinct ts and nus, shape (len(ts), len(nus)),
    with a same-shape bound on the absolute error of each log value from
    the GK error estimates.  t values are split into t < 1 (direct) and
    t >= 1 (rescaled by u = t^(-1/(2p-2)) z) groups, each group solved as
    one multi-component adaptive integral."""
    out = np.empty((len(ts), len(nus)))
    err = np.empty_like(out)
    e2 = 2.0 * p - 2.0
    small = ts < 1.0
    if small.any():
        tt = ts[small]
        with np.errstate(divide="ignore"):
            log_tt = np.log(tt)
        core, err[small] = _core_log_table(tt, log_tt, e2, p, nus, cfg)
        out[small] = _LOG2 + core
    if (~small).any():
        tt = ts[~small]
        # u = t^(-1/(2p-2)) z:  F = 2 t^(-(nu+1)/(2p-2)) *
        #     integral z^nu exp(-t^(-p/(2p-2)) z^p - z^(2p-2)) dz
        log_c = (-p / e2) * np.log(tt)
        core, err[~small] = _core_log_table(np.exp(log_c), log_c, p, e2,
                                            nus, cfg)
        out[~small] = _LOG2 + core - np.outer(np.log(tt) / e2, nus + 1.0)
    return out, err


def _check_args(ts, nus):
    if ts.ndim != 1 or nus.ndim != 1:
        raise DomainError("ts and nus must be one-dimensional")
    # min and max are nan when any entry is
    if ts.size and not (ts.min() >= 0.0 and ts.max() < math.inf):
        raise DomainError("t arguments must be finite and >= 0")
    if nus.size and not (nus.min() > -1.0 and nus.max() < math.inf):
        raise DomainError("nu arguments must be finite and > -1")


# ---------------------------------------------------------------------------
# interpolant in y = log1p(t)

# fixed panel breaks in y; past the last one each new panel doubles y
_BREAKS = (0.0, 1.0, 2.5, 5.0, 10.0, 18.0, math.log1p(1e12))
# y of the largest finite double t
_Y_LIMIT = math.log(np.finfo(float).max)
_DEGREE = 40
# a panel's chopped tail is the sum of its top _TAIL Chebyshev coefficients
_TAIL = 10
# chop target relative to max(1, |g|) on the panel
_CHOP_REL = 1e-14
# a fixed panel is halved at most this many times
_MAX_DEPTH = 10
_EPS = float(np.finfo(float).eps)
# rows per block of the interpolant's evaluation: a block's (rows, N+1)
# weights stay in cache
_BLOCK = 1024


@functools.cache
def _chebyshev():
    """(x, w, tail): the Chebyshev points of the second kind
    x_j = cos(pi j / N), descending, their barycentric weights (-1)^j
    halved at both ends, and rows k = N-_TAIL+1..N of the map from node
    values to Chebyshev coefficients, a_k = (2/N) sum_j'' f_j
    cos(pi j k / N) halved at k = N.  Built on first use, not at import.
    """
    j = np.arange(_DEGREE + 1)
    x = np.cos(np.pi * j / _DEGREE)
    w = (-1.0) ** j
    w[[0, -1]] *= 0.5
    k = np.arange(_DEGREE - _TAIL + 1, _DEGREE + 1)
    tail = (2.0 / _DEGREE) * np.cos(np.pi * np.outer(k, j) / _DEGREE) \
        * np.abs(w)
    tail[-1] *= 0.5
    return x, w, tail


# bound on the Lebesgue constant of interpolation in those points: node errors
# grow by at most this factor
_LEBESGUE = 1.0 + 2.0 / math.pi * math.log(_DEGREE + 1.0)


class _Fit(NamedTuple):
    """One panel [a, b]: g at its nodes and per column its chopped tail,
    the tail's target and the error bound."""

    a: float
    b: float
    g: np.ndarray
    tail: np.ndarray
    target: np.ndarray
    bound: np.ndarray


class _LogFInterpolant:
    """Piecewise Chebyshev interpolant of log F_p(t; nu) for one p, one
    set of nu columns and one config, in y = log1p(t).

    It interpolates g = log F + s y, s = (nu+1)/(2p-2), which is bounded
    as t -> inf and constant at p = 2.  Panels start from _BREAKS (then
    doubling y) and are built on first use, up to the largest y asked
    for; a panel whose chopped tail exceeds its target is halved.
    panels is (lo, hi, vals): the ends of each built panel and its node
    values of g, with a last column of ones, replaced as one tuple when
    panels are added.  error holds per column the largest bound over
    built panels on |error in log F|.
    """

    def __init__(self, p, nus, cfg):
        self.p, self.nus, self.cfg = p, np.asarray(nus), cfg
        self.slope = (self.nus + 1.0) / (2.0 * p - 2.0)
        self.panels = (np.empty(0), np.empty(0),
                       np.empty((0, _DEGREE + 1, len(nus) + 1)))
        self.error = np.zeros(len(nus))
        self._lock = threading.Lock()

    def _fit(self, a, b):
        """Node values of g on [a, b] with, per column, the chopped tail,
        its target and the bound on |error in log F|."""
        cheb_x, _, tail_map = _chebyshev()
        y = 0.5 * (a + b) + 0.5 * (b - a) * cheb_x
        logf, err = _direct_log_table(self.p, np.expm1(y), self.nus,
                                      self.cfg)
        sy = np.outer(y, self.slope)
        g = logf + sy
        tail = np.abs(tail_map @ g).sum(axis=0)
        target = _CHOP_REL * np.maximum(1.0, np.abs(g).max(axis=0))
        # node error: the table's own estimate plus the rounding of the
        # log terms that cancel in g
        node = (err + _EPS * (np.abs(logf) + sy)).max(axis=0)
        return _Fit(a, b, g, tail, target, tail + _LEBESGUE * node)

    def _panel(self, fit, depth, out):
        """Append fit, or its halves, to out: a panel whose chopped tail
        misses the target is halved, and so are its halves in turn,
        while some missing column's tail falls 4x in both halves.  A
        tail that halving does not shrink is the node noise (a plateau):
        the halves are kept as they are, with that tail in their bound.
        """
        miss = fit.tail > fit.target
        if not miss.any() or depth == _MAX_DEPTH:
            out.append(fit)
            return
        mid = 0.5 * (fit.a + fit.b)
        halves = self._fit(fit.a, mid), self._fit(mid, fit.b)
        worst = np.maximum(halves[0].tail, halves[1].tail)
        if (worst[miss] > 0.25 * fit.tail[miss]).all():
            out.extend(halves)
            return
        for half in halves:
            self._panel(half, depth + 1, out)

    def _extend(self, y_max):
        """Build panels up to y_max and return the new panels tuple."""
        with self._lock:
            lo, hi, vals = self.panels
            end = hi[-1] if len(hi) else 0.0
            built = []
            # the first panel is built even for y_max = 0 (t = 0 only)
            while end < y_max or not (len(hi) or built):
                nxt = next((b for b in _BREAKS if b > end),
                           min(2.0 * end, _Y_LIMIT))
                self._panel(self._fit(end, nxt), 0, built)
                end = nxt
            if built:
                a, b, g, _, _, bound = zip(*built)
                g = np.stack(g)
                g = np.concatenate([g, np.ones(g.shape[:2] + (1,))], axis=2)
                self.error = np.maximum(self.error, np.max(bound, axis=0))
                self.panels = (np.concatenate([lo, a]),
                               np.concatenate([hi, b]),
                               np.concatenate([vals, g]))
            return self.panels

    def __call__(self, ts):
        """(len(ts), len(nus)) values of log F; ts finite and >= 0."""
        y = np.log1p(ts)
        lo, hi, vals = self.panels
        if y.size and not (len(hi) and y.max() <= hi[-1]):
            lo, hi, vals = self._extend(y.max())
        k = np.searchsorted(hi, y)
        lo, hi = lo[k], hi[k]
        x = (2.0 * y - lo - hi) / (hi - lo)
        # barycentric formula of the second kind, per panel in blocks of
        # _BLOCK rows; a node value column of ones gives the denominator
        # in the same product.  An x on a node gives 0 * inf: that row is
        # nan and takes the node value instead.
        cheb_x, bary_w, _ = _chebyshev()
        out = np.empty((len(y), len(self.nus) + 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            for panel in np.flatnonzero(np.bincount(k)):
                rows = np.flatnonzero(k == panel)
                for s in range(0, len(rows), _BLOCK):
                    sel = rows[s:s + _BLOCK]
                    out[sel] = (bary_w / (x[sel, None] - cheb_x)) @ \
                        vals[panel]
            g = out[:, :-1] / out[:, -1:]
        hit = np.flatnonzero(np.isnan(g[:, 0]))
        if hit.size:
            node = np.abs(x[hit, None] - cheb_x).argmin(axis=1)
            g[hit] = vals[k[hit], node, :-1]
        return g - np.outer(y, self.slope)


@functools.lru_cache(maxsize=64)
def _interpolant(p, nus, cfg):
    return _LogFInterpolant(p, nus, cfg)


def f_family_log_interp(p, ts, nus, cfg=None):
    """log F_p(t; nu) from the interpolant of this (p, nu set, config).

    Returns (values, bounds): values of shape (len(ts), len(nus)), one
    per (t, nu) pair, and per nu column a bound on the
    absolute error of log F over every panel built so far.  The
    interpolant is built on first use and extended when a larger t is
    asked for.
    """
    cfg = _cfg(cfg)
    p = as_exponent(p)
    if p > _P_MAX:
        raise DomainError(f"exponent p={p:g} is above {_P_MAX:g}, the "
                          f"largest the F-family table resolves")
    ts = np.asarray(ts, dtype=float)
    nus = np.asarray(nus, dtype=float)
    _check_args(ts, nus)
    if not nus.size:
        return np.empty((len(ts), 0)), np.empty(0)
    cols = nus.tolist()
    unus = tuple(sorted(set(cols)))
    interp = _interpolant(p, unus, cfg)
    n_inv = [unus.index(nu) for nu in cols]
    return interp(ts)[:, n_inv], interp.error[n_inv]


def f_family_log(p, t, nu, cfg=None) -> float:
    """log F_p(t; nu) for scalar arguments."""
    return float(f_family_log_table(p, [t], [nu], cfg)[0, 0])


def f_family(p, t, nu, cfg=None) -> float:
    """F_p(t; nu) for scalar arguments; DomainError where it overflows a
    double, at large nu and small t (the log variant never does)."""
    return exp_checked(f_family_log(p, t, nu, cfg),
                       f"F_p(t; nu) at p={p}, t={t}, nu={nu}")


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
    """F_p(0; nu); DomainError where it overflows a double."""
    return exp_checked(f_family_at_zero_log(p, nu),
                       f"F_p(0; nu) at p={p}, nu={nu}")


def f_family_large_t(p, nu) -> "LargeTAsymptote":
    """Large-t asymptote of F_p(t; nu): returns an object with decay
    exponent s = (nu+1)/(2p-2), prefactor Gamma(s)/(p-1), and the relative
    correction ratio Gamma(s + p/(2p-2))/Gamma(s) applied at exponent
    p/(2p-2).  DomainError when either overflows a double."""
    p = as_exponent(p)
    nu = float(nu)
    if not nu > -1.0:
        raise DomainError(f"nu must exceed -1, got {nu}")
    s = (nu + 1.0) / (2.0 * p - 2.0)
    step = p / (2.0 * p - 2.0)
    what = f"the large-t asymptote of F_p(t; nu) at p={p:g}, nu={nu:g}"
    gamma_factor = exp_checked(math.lgamma(s) - math.log(p - 1.0), what)
    ratio = exp_checked(math.lgamma(s + step) - math.lgamma(s), what)
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
