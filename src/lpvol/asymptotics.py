"""Phase-function analysis and high-dimension growth laws.

The large-n behaviour of the volume coefficients is governed by

    Psi_(p,beta)(theta) = ((1-beta)/2) log theta + beta log I(theta)
                          + (1-beta) log J(theta)

whose unique interior maximizer theta* solves theta J/I = (1-beta) p /
(2 (p-1) beta).  This module solves that critical equation, evaluates
the three Laplace regimes (bulk index j ~ beta n, fixed j, fixed
codimension m = n - j), the exponential volume profile g_p(alpha) of the
rescaled balls, reference profiles for the limiting polytope cases, and
surface-area growth.  Everything is analytic except 1-D maximizations
and the F-family quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, DomainError
from .logspace import LogValue, exp_checked
from .roots import solve_increasing, walk_bracket
from .specfun import (QuadConfig, _cfg, as_exponent, f_family_log_table,
                      log_choose)

__all__ = [
    "PhasePoint", "ProfilePoint", "ProfileReferences",
    "phase", "phase_maximizer", "phase_second_derivative",
    "bulk_asymptotic", "left_edge_asymptotic", "right_edge_asymptotic",
    "exp_profile", "face_index", "REGIME_PARAMETER", "profile_references",
    "surface_area_asymptotic",
]

_LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_PHASE_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class PhasePoint:
    """Solved critical point of the phase function for one (p, beta).

    residual is |theta* J/I / rhs - 1| of the critical equation; the
    constructor enforces the 1e-10 contract and the strict concavity
    psi2_at_star < 0.  log_i, log_j, log_k are the F-table row at theta*
    (nu = 0, p-2, 2p-2) the solve ended on, which the bulk laws read.
    """

    p: float
    beta: float
    theta_star: float
    psi_at_star: float
    psi2_at_star: float
    residual: float
    log_i: float
    log_j: float
    log_k: float

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise DomainError(f"beta must be in (0, 1), got {self.beta}")
        if not (math.isfinite(self.theta_star) and self.theta_star > 0.0):
            raise ConvergenceFailure(
                f"phase maximizer is not positive finite: {self.theta_star}")
        if not self.psi2_at_star < 0.0:
            raise ConvergenceFailure(
                f"phase curvature must be negative, got {self.psi2_at_star}")
        if not self.residual <= _PHASE_RESIDUAL_TOL:
            raise ConvergenceFailure(
                f"critical-equation residual {self.residual:.3e} above "
                f"{_PHASE_RESIDUAL_TOL}")


@dataclass(frozen=True)
class ProfilePoint:
    """One sample of the exponential volume profile g_p.

    g_value = kappa_term + sup_psi, where kappa_term collects the
    Stirling/prefactor contribution and sup_psi the phase maximum.
    """

    alpha: float
    g_value: float
    kappa_term: float
    sup_psi: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must be in [0, 1], got {self.alpha}")
        gap = abs(self.g_value - (self.kappa_term + self.sup_psi))
        if not gap <= 1e-10 * max(1.0, abs(self.g_value)):
            raise DomainError("profile decomposition is inconsistent")


class ProfileReferences(NamedTuple):
    """Closed/semi-closed profiles of the limiting bodies at one alpha."""

    g_inf: float
    g_2: float
    g_1: float
    g_simplex: float


def _check_beta(beta: float) -> float:
    # None (a missing alpha) is refused like any other value outside (0, 1)
    if not (isinstance(beta, (int, float, np.number))
            and math.isfinite(beta) and 0.0 < beta < 1.0):
        raise DomainError(f"beta must be in (0, 1), got {beta!r}")
    return float(beta)


def phase(p, beta, theta, cfg: QuadConfig = None) -> float:
    """Psi_(p,beta)(theta) for theta > 0."""
    p = as_exponent(p)
    beta = _check_beta(beta)
    theta = float(theta)
    if not (math.isfinite(theta) and theta > 0.0):
        raise DomainError(f"theta must be positive, got {theta!r}")
    # the phase solve's columns, so that both read one interpolant
    logi, logj, _ = f_family_log_table(
        p, [theta], [0.0, p - 2.0, 2.0 * p - 2.0], _cfg(cfg))[0]
    return float(0.5 * (1.0 - beta) * math.log(theta)
                 + beta * logi + (1.0 - beta) * logj)


def _log_g_and_slope(p: float, s: np.ndarray, cfg: QuadConfig):
    """log g and theta g'/g at theta = e^s for an array s, where g =
    theta J/I, with theta and log I, log J and log K there.

    g' = [I (J/2 + pK/(2(p-1))) + theta J K] / I^2 from the JKL identity,
    so theta g'/g = 1/2 + pK/(2(p-1)J) + theta K/I; every term is a
    bounded F-ratio, which keeps the Newton step conditioned for any
    theta.
    """
    theta = np.exp(s)
    nus = np.array([0.0, p - 2.0, 2.0 * p - 2.0])
    logi, logj, logk = f_family_log_table(p, theta, nus, cfg).T
    slope = (0.5 + 0.5 * p / (p - 1.0) * np.exp(logk - logj)
             + np.exp(s + logk - logi))
    return s + logj - logi, slope, theta, logi, logj, logk


def phase_maximizer(p, beta, cfg: QuadConfig = None) -> PhasePoint:
    """Solve the critical equation theta J/I = (1-beta)p/(2(p-1)beta).

    The auxiliary g(theta) = theta J/I is strictly increasing from 0 to
    infinity, so in s = log theta a walk from theta = 1, 4x per step
    (roots.walk_bracket), followed by safeguarded Newton with the
    analytic slope (roots.solve_increasing) cannot miss.  Psi'' at the
    root comes from the analytic form -beta (K/I) g'/g.  Each (p, beta,
    cfg) is solved once per process: tables over n at one beta ask for
    it per row.
    """
    return _solve_phase(as_exponent(p), _check_beta(beta), _cfg(cfg))


@functools.lru_cache(maxsize=256)
def _solve_phase(p: float, beta: float, cfg: QuadConfig) -> PhasePoint:
    log_rhs = (math.log1p(-beta) + math.log(p)
               - math.log(2.0 * (p - 1.0)) - math.log(beta))

    def w_and_slope(s):
        log_g, slope = _log_g_and_slope(p, s, cfg)[:2]
        return log_g - log_rhs, slope

    lo, hi = walk_bracket(lambda s: w_and_slope(s)[0], np.zeros(1),
                          2.0 * _LOG2)
    s = float(solve_increasing(w_and_slope, lo, hi)[0])
    # theta* is the e^s its F row was read at
    log_g, slope, theta, logi, logj, logk = (
        float(v[0]) for v in _log_g_and_slope(p, np.array([s]), cfg))
    psi = (0.5 * (1.0 - beta) * s + beta * logi + (1.0 - beta) * logj)
    psi2 = -beta * math.exp(logk - logi) * slope / theta
    return PhasePoint(p, beta, theta, psi, psi2,
                      abs(math.expm1(log_g - log_rhs)), logi, logj, logk)


def phase_second_derivative(p, beta, theta, cfg: QuadConfig = None) -> float:
    """Analytic Psi'' at an arbitrary theta (not only the maximizer).

    Uses the derivative identity twice: (log I)'' = (F4 I - K^2)/I^2 and
    (log J)'' = (F5 J - L^2)/J^2 with F4, F5 the family members at
    nu = 4p-4 and 5p-6.
    """
    p = as_exponent(p)
    beta = _check_beta(beta)
    theta = float(theta)
    if not (math.isfinite(theta) and theta > 0.0):
        raise DomainError(f"theta must be positive, got {theta!r}")
    cfg = _cfg(cfg)
    nus = np.array([0.0, p - 2.0, 2.0 * p - 2.0, 3.0 * p - 4.0,
                    4.0 * p - 4.0, 5.0 * p - 6.0])
    logi, logj, logk, logl, logf4, logf5 = (
        float(v) for v in f_family_log_table(p, [theta], nus, cfg)[0])
    curv_i = math.exp(2.0 * (logk - logi)) * math.expm1(
        logf4 + logi - 2.0 * logk)
    curv_j = math.exp(2.0 * (logl - logj)) * math.expm1(
        logf5 + logj - 2.0 * logl)
    return (-0.5 * (1.0 - beta) / theta ** 2
            + beta * curv_i + (1.0 - beta) * curv_j)


def _check_dim(n, name="n") -> int:
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"{name} must be a positive int, got {n!r}")
    return int(n)


def bulk_asymptotic(p, n, j, cfg: QuadConfig = None) -> LogValue:
    """Laplace approximation of V_j for j/n in the interior.

    Evaluated literally at beta = j/n: prefactor
    p (p-1)^(n-j-1) n C(n-1, j) / (2 pi^((n-j)/2) Gamma((j+p)/p)),
    the K/(theta J) boundary factor at theta*, exp(n Psi(theta*)),
    and the Gaussian width sqrt(2 pi / (n |Psi''|)).
    """
    p = as_exponent(p)
    n = _check_dim(n)
    if not (isinstance(j, (int, np.integer)) and 0 < j < n):
        raise DomainError(f"bulk regime needs 0 < j < n, got j={j!r}")
    j = int(j)
    pp = phase_maximizer(p, j / n, cfg)
    log_pref = (math.log(p) + (n - j - 1) * math.log(p - 1.0)
                + math.log(n) + log_choose(n - 1, j) - _LOG2
                - 0.5 * (n - j) * math.log(math.pi)
                - math.lgamma((j + p) / p))
    log_ratio = pp.log_k - pp.log_j - math.log(pp.theta_star)
    log_width = 0.5 * (math.log(2.0 * math.pi) - math.log(n)
                       - math.log(-pp.psi2_at_star))
    return LogValue.from_log(log_pref + log_ratio + n * pp.psi_at_star
                             + log_width)


# the parameter that fixes the face index in each regime, also the name
# of its command-line flag; the surface regime follows j = n - 1
REGIME_PARAMETER = {"bulk": "alpha", "left": "j", "right": "m",
                    "surface": None}


def face_index(regime: str, n: int, *, alpha: float = None, j: int = None,
               m: int = None) -> int:
    """Index j of the intrinsic volume that row n of a regime follows:
    floor(alpha n) in the bulk, the fixed j at the left edge, n - m at
    the right edge, n - 1 on the surface.  DomainError, naming the flag
    and n, for an unknown regime, a missing parameter, n < 2, or j
    outside 0..n-1 (1..n-1 in the bulk: a face on each side of j)."""
    if regime not in REGIME_PARAMETER:
        raise DomainError(f"unknown regime {regime!r}")
    flag = REGIME_PARAMETER[regime]
    value = {"alpha": alpha, "j": j, "m": m}.get(flag)
    if flag is not None and value is None:
        raise DomainError(f"{regime} regime needs --{flag}")
    n = int(n)
    if n < 2:
        raise DomainError(f"need dimension n >= 2, got n={n}")
    if regime == "bulk":
        index = int(math.floor(alpha * n))
    elif regime == "left":
        index = int(j)
    elif regime == "right":
        index = n - int(m)
    else:
        index = n - 1
    lo = 1 if regime == "bulk" else 0
    if not lo <= index <= n - 1:
        raise DomainError(f"--{flag} {value} gives j={index} "
                          f"outside {lo}..{n - 1} at n={n}")
    return index


def _left_edge_log(p, n, j) -> float:
    """log of the fixed-j growth law of left_edge_asymptotic, which stays
    finite where the law itself overflows a double."""
    p = as_exponent(p)
    n = _check_dim(n)
    if not (isinstance(j, (int, np.integer)) and j >= 0):
        raise DomainError(f"left edge needs j >= 0, got {j!r}")
    j = int(j)
    if j == 0:
        return 0.0
    log_c = (math.log(2.0 * math.sqrt(math.pi)) / p
             + (1.0 - 1.0 / p) * (math.lgamma(1.0 / (2.0 * p - 2.0))
                                  - math.log(p - 1.0)))
    return (-math.lgamma(j + 1.0) + j * log_c
            + j * (1.0 - 1.0 / p) * math.log(n))


def left_edge_asymptotic(p, n, j) -> float:
    """Fixed-j growth law: V_j ~ (c_p)^j n^(j(1-1/p)) / j! with

        c_p = (2 sqrt(pi))^(1/p) (Gamma(1/(2p-2)) / (p-1))^(1-1/p).

    DomainError when the value lies beyond the double range.
    """
    return exp_checked(_left_edge_log(p, n, j), "the left-edge law")


def right_edge_asymptotic(p, n, m) -> LogValue:
    """Fixed-codimension growth law for V_(n-m):

        Gamma(m/2)/(2 Gamma(m)) (p(p-1)Gamma(1-1/p)/(pi Gamma(1/p)))^(m/2)
        ((2/p)Gamma(1/p))^n n^(m/2) / Gamma((n+p-m)/p).
    """
    p = as_exponent(p)
    n = _check_dim(n)
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise DomainError(f"right edge needs m >= 1, got {m!r}")
    m = int(m)
    if n < m:
        raise DomainError(f"codimension {m} exceeds dimension {n}")
    log_val = (math.lgamma(0.5 * m) - _LOG2 - math.lgamma(m)
               + 0.5 * m * (math.log(p) + math.log(p - 1.0)
                            + math.lgamma(1.0 - 1.0 / p) - math.log(math.pi)
                            - math.lgamma(1.0 / p))
               + n * (_LOG2 + math.lgamma(1.0 / p) - math.log(p))
               + 0.5 * m * math.log(n) - math.lgamma((n + p - m) / p))
    return LogValue.from_log(log_val)


def exp_profile(p, alpha, cfg: QuadConfig = None) -> ProfilePoint:
    """Exponential profile g_p(alpha) = kappa_p(alpha) + sup Psi_(p,alpha).

    Endpoints use closed forms: g_p(0) = 0 and
    g_p(1) = log(2 (e p)^(1/p) Gamma(1+1/p)).
    """
    p = as_exponent(p)
    alpha = float(alpha)
    if not (math.isfinite(alpha) and 0.0 <= alpha <= 1.0):
        raise DomainError(f"alpha must be in [0, 1], got {alpha!r}")
    if alpha == 0.0:
        kap = math.log(p - 1.0) - 0.5 * math.log(math.pi)
        return ProfilePoint(0.0, 0.0, kap, -kap)
    if alpha == 1.0:
        kap = (1.0 + math.log(p)) / p
        sup = _LOG2 + math.lgamma(1.0 + 1.0 / p)
        return ProfilePoint(1.0, kap + sup, kap, sup)
    kap = ((alpha / p) * (1.0 - math.log(alpha) + math.log(p))
           + (1.0 - alpha) * math.log(p - 1.0)
           - alpha * math.log(alpha) - (1.0 - alpha) * math.log(1.0 - alpha)
           - 0.5 * (1.0 - alpha) * math.log(math.pi))
    sup = phase_maximizer(p, alpha, cfg).psi_at_star
    return ProfilePoint(alpha, kap + sup, kap, sup)


def _x_log_x(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def _gaussian_sup(alpha: float, log_term, rate, lo: float) -> float:
    """sup over x >= lo of -alpha x^2/2 + (1-alpha) log_term(x).

    log_term is log Phi or log(2 Phi - 1), so its derivative rate obeys
    rate' = -rate (x + rate) and the slope is decreasing; the maximizer
    is its root.  That lies near sqrt(2 log(1/alpha)), where phi falls to
    alpha/sqrt(2 pi); 2 units on, 2 phi < alpha x and the slope is < 0.
    """
    if alpha in (0.0, 1.0):
        return 0.0
    x = solve_increasing(
        lambda x: (alpha * x - (1.0 - alpha) * rate(x),
                   alpha + (1.0 - alpha) * rate(x) * (x + rate(x))),
        lo, 2.0 + math.sqrt(-2.0 * math.log(alpha)))
    return float(-0.5 * alpha * x * x + (1.0 - alpha) * log_term(x))


def _sup_crosspolytope(alpha: float) -> float:
    """sup over t >= 0 of -alpha t^2/2 + (1-alpha) log(2 Phi(t) - 1)."""
    return _gaussian_sup(
        alpha, lambda t: math.log1p(-math.erfc(t / _SQRT2)),
        # 2 phi(t) / (2 Phi(t) - 1)
        lambda t: (2.0 * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
                   / math.erf(t / _SQRT2)),
        1e-8)


def _log_ndtr(x: float) -> float:
    """log Phi(x) for x >= 0, where Phi(x) >= 1/2 keeps log1p accurate."""
    return math.log1p(-0.5 * math.erfc(x / _SQRT2))


def _sup_simplex(alpha: float) -> float:
    """sup over x of -alpha x^2/2 + (1-alpha) log Phi(x)."""
    return _gaussian_sup(
        alpha, _log_ndtr,
        # phi(x) / Phi(x)
        lambda x: math.exp(-0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
                           - _log_ndtr(x)),
        0.0)


def profile_references(alpha) -> ProfileReferences:
    """The four limiting profiles at one alpha: cube, ball, crosspolytope
    and simplex (each body rescaled to exponential volume growth)."""
    alpha = float(alpha)
    if not (math.isfinite(alpha) and 0.0 <= alpha <= 1.0):
        raise DomainError(f"alpha must be in [0, 1], got {alpha!r}")
    entropy = -_x_log_x(alpha) - _x_log_x(1.0 - alpha)
    g_inf = entropy + alpha * _LOG2
    g_2 = (-_x_log_x(alpha) - 0.5 * _x_log_x(1.0 - alpha)
           + 0.5 * alpha * math.log(2.0 * math.pi * math.e))
    g_1 = (alpha * math.log(2.0 * math.e) - 2.0 * _x_log_x(alpha)
           - _x_log_x(1.0 - alpha) + _sup_crosspolytope(alpha))
    g_simplex = (alpha - 2.0 * _x_log_x(alpha) - _x_log_x(1.0 - alpha)
                 + _sup_simplex(alpha))
    return ProfileReferences(g_inf, g_2, g_1, g_simplex)


def surface_area_asymptotic(p, n, normalized: bool = False):
    """Surface-area growth law.

    normalized=False: LogValue of the raw boundary measure asymptote
    (p(p-1)Gamma(1-1/p)/Gamma(1/p))^(1/2) ((2/p)Gamma(1/p))^n sqrt(n)
    / Gamma((n+p-1)/p), computed as twice the right-edge law at m = 1.
    normalized=True: surface area of the ball rescaled to unit volume,
    2 e^(1/p) sqrt(pi (p-1) / (p sin(pi/p))) sqrt(n), returned as a
    plain float.
    """
    p = as_exponent(p)
    n = _check_dim(n)
    if normalized:
        return (2.0 * math.exp(1.0 / p)
                * math.sqrt(math.pi * (p - 1.0)
                            / (p * math.sin(math.pi / p)))
                * math.sqrt(n))
    return LogValue.from_log(_LOG2 + right_edge_asymptotic(p, n, 1).log_abs)
