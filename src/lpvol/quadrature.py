"""Adaptive Gauss-Kronrod quadrature.

One refinement loop (_refine) drives two GK15 kernels: a linear-domain
kernel for vector-valued integrands (many components evaluated on one
shared grid, refined until every component meets its tolerance; quad_gk)
and a log-domain kernel for positive integrands whose magnitude can reach
exp(+-1e5) (quad_gk_log).  Each engine supplies its kernel and its
convergence test.  The base rule is the 15-point Kronrod extension of
7-point Gauss; the error model is the classical
(200 |K - G| / resasc)^{3/2} rescaling.

Refinement is batched: every sweep splits all intervals whose local error
exceeds its share of the budget, so the integrand callable is invoked on
large node blocks instead of one interval at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, QuadratureFailure
from .logspace import LOG_ZERO, log_add, logsumexp_arr

_LOG2 = math.log(2.0)
# upper theta limit of log_theta_integral's first piece, before octave
# doubling takes over
_THETA_START = 8.0

# 15-point Kronrod abscissae (positive half, descending) and weights,
# with the embedded 7-point Gauss weights.
_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WGK_CENTER = 0.209482141084727828012999174891714
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])
_WG_CENTER = 0.417959183673469387755102040816327

NODES = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
WK = np.concatenate([_WGK_HALF, [_WGK_CENTER], _WGK_HALF[::-1]])
# Gauss nodes sit at Kronrod positions 1, 3, 5 (negative side), the
# center, and mirrored on the positive side.
G_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
WG = np.concatenate([_WG_HALF, [_WG_CENTER], _WG_HALF[::-1]])


def _eval_linear(f, a_arr, b_arr):
    """GK15 on a batch of intervals.  Returns (vals, errs) of shape (nc, ni)."""
    mid = 0.5 * (a_arr + b_arr)
    hl = 0.5 * (b_arr - a_arr)
    x = mid[:, None] + hl[:, None] * NODES[None, :]
    fx = np.asarray(f(x.reshape(-1)), dtype=float)
    ni = len(a_arr)
    fx = fx.reshape((-1, ni, 15))
    if np.isnan(fx).any():
        raise QuadratureFailure("integrand returned NaN")
    resk = (fx @ WK) * hl
    resg = (fx[:, :, G_IDX] @ WG) * hl
    mean = resk / np.where(hl == 0.0, 1.0, 2.0 * hl)
    resasc = (np.abs(fx - mean[:, :, None]) @ WK) * hl
    err0 = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.minimum(1.0, (200.0 * err0 / resasc) ** 1.5)
    errs = np.where(resasc > 0.0, resasc * scaled, err0)
    return resk, errs


def _eval_log(logf, a_arr, b_arr):
    """GK15 in log space on a batch of intervals (positive integrand)."""
    mid = 0.5 * (a_arr + b_arr)
    hl = 0.5 * (b_arr - a_arr)
    x = mid[:, None] + hl[:, None] * NODES[None, :]
    lf = np.asarray(logf(x.reshape(-1)), dtype=float).reshape((len(a_arr), 15))
    if np.isnan(lf).any():
        raise QuadratureFailure("log-integrand returned NaN")
    m = lf.max(axis=1)
    finite = m > LOG_ZERO
    sc = np.zeros_like(lf)
    if finite.any():
        sc[finite] = np.exp(lf[finite] - m[finite, None])
    resk = sc @ WK
    resg = sc[:, G_IDX] @ WG
    mean = resk / 2.0
    resasc = np.abs(sc - mean[:, None]) @ WK
    err0 = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.minimum(1.0, (200.0 * err0 / resasc) ** 1.5)
    err_sc = np.where(resasc > 0.0, resasc * scaled, err0)
    with np.errstate(divide="ignore"):
        logval = np.where(resk > 0.0, m + np.log(hl * np.maximum(resk, 1e-320)),
                          LOG_ZERO)
        logerr = np.where(err_sc > 0.0, m + np.log(hl * np.maximum(err_sc, 1e-320)),
                          LOG_ZERO)
    logval[~finite] = LOG_ZERO
    logerr[~finite] = LOG_ZERO
    return logval, logerr


def _refine(kernel, status, a, b, max_subdivisions, rule):
    """Budgeted bisection: the refinement loop of both engines.

    kernel(a_arr, b_arr) applies GK15 to a batch of intervals and returns
    (values, errors) with the intervals on the last axis.  status(values,
    errors, ni) returns (result, bad, score, detail): result is the
    (value, error) pair once the engine's convergence test passes and None
    before; bad flags the intervals whose error exceeds their share of
    the tolerance, score ranks intervals for splitting when the budget is
    short, and detail describes the shortfall if the budget runs out.
    Returns (value, error, intervals).
    """
    if not b > a:
        raise DomainError(f"bad interval [{a}, {b}]")
    a_arr = np.array([float(a)])
    b_arr = np.array([float(b)])
    vals, errs = kernel(a_arr, b_arr)
    while True:
        ni = len(a_arr)
        result, bad, score, detail = status(vals, errs, ni)
        if result is not None:
            return (*result, ni)
        if not bad.any():
            bad[np.argmax(score)] = True
        room = max_subdivisions - ni
        if room <= 0:
            raise QuadratureFailure(
                f"{rule} budget of {max_subdivisions} intervals exhausted; "
                f"{detail}")
        if bad.sum() > room:
            order = np.argsort(-score)
            keep_bad = np.zeros_like(bad)
            keep_bad[order[:room]] = bad[order[:room]]
            bad = keep_bad & bad
            if not bad.any():
                bad[order[0]] = True
        sa, sb = a_arr[bad], b_arr[bad]
        sm = 0.5 * (sa + sb)
        na = np.concatenate([sa, sm])
        nb = np.concatenate([sm, sb])
        nv, ne = kernel(na, nb)
        a_arr = np.concatenate([a_arr[~bad], na])
        b_arr = np.concatenate([b_arr[~bad], nb])
        vals = np.concatenate([vals[..., ~bad], nv], axis=-1)
        errs = np.concatenate([errs[..., ~bad], ne], axis=-1)


def quad_gk(f, a, b, *, rel_tol, abs_tol, max_subdivisions):
    """Integrate vector integrand f over [a, b].

    f maps a flat node array (nx,) to (nc, nx) (or (nx,) for one
    component).  Returns (values (nc,), error estimates (nc,), intervals).
    Raises QuadratureFailure if the per-component tolerance
    max(abs_tol, rel_tol*|integral|) cannot be met within the budget.
    """
    def status(vals, errs, ni):
        total = vals.sum(axis=1)
        errtot = errs.sum(axis=1)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        if np.all(errtot <= tol):
            return (total, errtot), None, None, None
        bad = (errs > tol[:, None] / (2.0 * ni)).any(axis=0)
        return (None, bad, errs.max(axis=0),
                f"error {errtot.max():.3e} vs tolerance {tol.min():.3e}")

    return _refine(lambda aa, bb: _eval_linear(f, aa, bb), status, a, b,
                   max_subdivisions, "GK15")


def quad_gk_log(logf, a, b, *, rel_tol, max_subdivisions, log_floor=LOG_ZERO):
    """Integrate exp(logf) over [a, b] entirely in log space.

    logf maps (nx,) nodes to (nx,) log-integrand values (-inf allowed).
    Returns (log integral, log error estimate, intervals).  Termination:
    total log-error <= max(log_floor, log(rel_tol) + log integral).
    """
    def status(logv, loge, ni):
        logtot = float(logsumexp_arr(logv))
        logerrtot = float(logsumexp_arr(loge))
        logtol = max(log_floor, math.log(rel_tol) + logtot)
        if logerrtot <= logtol or logtot == LOG_ZERO:
            return (logtot, logerrtot), None, None, None
        bad = loge > logtol - math.log(2.0 * ni)
        return (None, bad, loge,
                f"log-error {logerrtot:.3f} vs log-tolerance {logtol:.3f}")

    return _refine(lambda aa, bb: _eval_log(logf, aa, bb), status, a, b,
                   max_subdivisions, "log-GK15")


def log_theta_integral(power, log_smooth, s_tail, cfg):
    """log of integral_0^inf theta^power * exp(log_smooth(theta)) d theta.

    log_smooth must be vectorized over a theta array and smooth at 0; the
    integrand must decay like C * theta^(-1-s_tail) at infinity (s_tail > 0,
    known in closed form by every caller from the large-argument expansion
    of its F-family factors).

    Strategy: substitute theta = x^2 so half-integer powers stay smooth at
    the origin, integrate [0, U] adaptively, then double U until the
    power-law tail model (integrand value at U times U/s_tail) drops below
    rel_tol/2 of the running estimate *and* the integrand is decreasing at
    U; the final octave doubles as a verification that the model holds.

    Returns (log value, log error estimate, theta nodes used).
    """
    if not s_tail > 0:
        raise DomainError(f"tail exponent must be positive, got {s_tail}")
    rel = cfg.rel_tol

    def logg(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            powpart = (2.0 * power + 1.0) * np.log(x)
        return _LOG2 + powpart + log_smooth(x * x)

    def logf_point(th):
        return power * math.log(th) + float(
            np.asarray(log_smooth(np.array([th])))[0])

    budget = cfg.max_subdivisions
    u_hi = _THETA_START
    logval, logerr, ni = quad_gk_log(
        logg, 0.0, math.sqrt(u_hi), rel_tol=rel, max_subdivisions=budget)
    nodes = 15 * ni
    log_target = math.log(rel / 2.0)
    for _ in range(240):
        f_half = logf_point(u_hi / 2.0)
        f_edge = logf_point(u_hi)
        past_peak = f_edge < f_half
        log_tail = f_edge + math.log(u_hi) - math.log(s_tail)
        tail_ok = past_peak and logval > LOG_ZERO and (
            log_tail <= log_target + logval)
        seg_floor = (logval + math.log(rel / 4.0)) if logval > LOG_ZERO \
            else LOG_ZERO
        seg_val, seg_err, ni = quad_gk_log(
            logg, math.sqrt(u_hi), math.sqrt(2.0 * u_hi),
            rel_tol=rel, max_subdivisions=budget, log_floor=seg_floor)
        nodes += 15 * ni
        logval = log_add(logval, seg_val)
        logerr = log_add(logerr, seg_err)
        u_hi *= 2.0
        if tail_ok and seg_val <= log_tail + math.log(50.0):
            # verification octave consistent with the tail model; what is
            # left beyond u_hi is bounded by the model and goes into the
            # error estimate
            logerr = log_add(logerr, log_tail)
            return logval, logerr, nodes
    raise QuadratureFailure(
        "theta integral failed to localize its mass within 240 octaves")
