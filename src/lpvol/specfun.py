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
bounded-kernel integral, so t up to 1e20 and p up to 64 stay in range.
Exponents nu in (-1, 0) hit an integrable endpoint singularity which is
removed by the substitution w = u^(nu+1) on [0, split].  Truncation points
come from upper-incomplete-gamma tail bounds.  Many components (several t
rows times several nu columns) are integrated on one shared adaptive grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaincc

from .errors import DomainError, QuadratureFailure
from .quadrature import quad_gk

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
    """Accuracy and truncation knobs shared by all quadrature-backed ops.

    rel_tol / abs_tol: per-component targets for adaptive integration.
    max_subdivisions: interval budget per adaptive call.
    theta_truncation_factor: initial upper limit for half-line theta
        integrals before octave doubling takes over.
    singularity_split: where [0, inf) is cut so that the substituted
        piece handles the u^nu endpoint singularity for nu < 0.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 512
    theta_truncation_factor: float = 8.0
    singularity_split: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if not (0.0 < self.abs_tol < 1.0):
            raise DomainError(f"abs_tol must be in (0, 1), got {self.abs_tol}")
        if not self.max_subdivisions >= 8:
            raise DomainError("max_subdivisions must be at least 8")
        if not self.theta_truncation_factor > 0.0:
            raise DomainError("theta_truncation_factor must be positive")
        if not (0.0 < self.singularity_split < 1.0):
            raise DomainError("singularity_split must be in (0, 1)")

    def cache_key(self):
        return (self.rel_tol, self.abs_tol, self.max_subdivisions,
                self.singularity_split)


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
    """Smallest u with integral_u^inf x^nu exp(-c x^e) dx <= exp(log_target).

    Uses the upper incomplete gamma: the tail equals
    c^(-s)/e * Gamma(s) * Q(s, c u^e) with s = (nu+1)/e.
    Returns None when c is too small to give a useful bound.
    """
    if not c > 1e-280:
        return None
    s = (nu + 1.0) / e
    log_pref = -s * math.log(c) - math.log(e) + math.lgamma(s)
    log_q = log_target - log_pref
    if log_q >= 0.0:
        return 1.0
    q = math.exp(max(log_q, -700.0))
    x = max(s, 1.0)
    for _ in range(600):
        if float(gammaincc(s, x)) <= q:
            # log space: x/c can overflow a double when c is tiny
            return math.exp(min((math.log(x) - math.log(c)) / e, 700.0))
        x *= 1.5
    raise QuadratureFailure("tail cutoff search did not terminate")


# ---------------------------------------------------------------------------
# core table

_CACHE: dict = {}
_CACHE_LIMIT = 500_000


def _core_log_table(c1s, e1, c2s, e2, nus, cfg):
    """log of integral_0^inf u^nu exp(-c1 u^e1 - c2 u^e2) du, tabled.

    c1s, c2s: per-row coefficient arrays (k,); nus: column exponents (m,),
    each > -1.  Returns (k, m) of log values.  All rows and columns share
    one adaptive grid per piece.
    """
    c1s = np.asarray(c1s, dtype=float)
    c2s = np.asarray(c2s, dtype=float)
    nus = np.asarray(nus, dtype=float)
    k, m = len(c1s), len(nus)
    split = cfg.singularity_split
    # conservative shared upper limit: worst row, best available factor
    log_target = math.log(cfg.abs_tol) - math.log(10.0)
    u_hi = 1.0
    for nu in nus:
        for i in range(k):
            cuts = [c for c in (_tail_cutoff(c1s[i], e1, nu, log_target),
                                _tail_cutoff(c2s[i], e2, nu, log_target))
                    if c is not None]
            if not cuts:
                raise QuadratureFailure(
                    "no usable tail bound: both coefficients vanish")
            u_hi = max(u_hi, min(cuts))

    def kernel(u):
        expo = -(np.outer(c1s, u ** e1) + np.outer(c2s, u ** e2))
        return np.exp(expo)

    vals = np.zeros((k, m))

    def add_direct(sel, lo, hi):
        nus_sel = nus[sel]

        def f(u):
            ker = kernel(u)
            with np.errstate(divide="ignore"):
                pw = np.exp(np.outer(nus_sel, np.log(u)))
            return (ker[:, None, :] * pw[None, :, :]).reshape(
                k * len(nus_sel), -1)

        piece, _, _ = quad_gk(f, lo, hi, rel_tol=cfg.rel_tol,
                              abs_tol=cfg.abs_tol,
                              max_subdivisions=cfg.max_subdivisions)
        vals[:, sel] += piece.reshape(k, len(nus_sel))

    neg = nus < 0.0
    pos = ~neg
    add_direct(np.arange(m), split, u_hi)
    if pos.any():
        add_direct(np.flatnonzero(pos), 0.0, split)
    # nu in (-1, 0): substitute w = u^(nu+1) on [0, split], which maps the
    # singular piece to integral_0^(split^(nu+1)) kernel(w^(1/(nu+1)))/(nu+1) dw
    for col in np.flatnonzero(neg):
        q = nus[col] + 1.0

        def f_neg(w, q=q):
            with np.errstate(divide="ignore"):
                u = np.exp(np.log(w) / q)
            return kernel(u) / q

        piece, _, _ = quad_gk(f_neg, 0.0, split ** q, rel_tol=cfg.rel_tol,
                              abs_tol=cfg.abs_tol,
                              max_subdivisions=cfg.max_subdivisions)
        vals[:, col] += piece
    if not (vals > 0.0).all():
        raise QuadratureFailure("core table produced a non-positive value")
    return np.log(vals)


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
            core = _core_log_table(np.ones(len(tt)), p, tt, e2, unus, cfg)
            out[rows[small]] = _LOG2 + core
        if (~small).any():
            tt = tm[~small]
            # u = t^(-1/(2p-2)) z:  F = 2 t^(-(nu+1)/(2p-2)) *
            #     integral z^nu exp(-t^(-p/(2p-2)) z^p - z^(2p-2)) dz
            z_scale = np.exp((-p / e2) * np.log(tt))
            core = _core_log_table(z_scale, p, np.ones(len(tt)), e2, unus, cfg)
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
