"""Adaptive Gauss-Kronrod quadrature.

One refinement loop (_refine) drives two GK15 kernels: a linear-domain
kernel for vector-valued integrands (many components evaluated on one
shared grid, refined until every component meets its tolerance; quad_gk)
and a log-domain kernel for positive integrands whose magnitude can reach
exp(+-1e5) (quad_gk_log).  The log kernel always integrates a family:
K log integrands (K = 1 included) share one mesh, which is refined until
every member meets its own relative tolerance; a member that has met it
is not evaluated again.  Each engine supplies its kernel and its convergence
test.  The base rule is the 15-point Kronrod extension of
7-point Gauss; the error model is the classical
(200 |K - G| / resasc)^{3/2} rescaling.

Refinement is batched: every sweep splits all intervals whose local error
exceeds its share of the budget, so the integrand callable is invoked on
large node blocks instead of one interval at a time.

log_theta_integral, the outer integral of every intrinsic volume and
moment, runs on the log kernel: one family of theta integrands (for
example V_1..V_(n-1) of one body) on one mesh, with each member closing
its own power-law tail.  A family of one refines exactly as a scalar
call does.
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
    """GK15 in log space on a batch of intervals (positive integrands).

    logf maps (nx,) nodes to (nx, K) values of K integrands; returns
    (log values, log errors) of shape (K, ni).
    """
    mid = 0.5 * (a_arr + b_arr)
    hl = 0.5 * (b_arr - a_arr)
    ni = len(a_arr)
    x = mid[:, None] + hl[:, None] * NODES[None, :]
    lf = np.asarray(logf(x.reshape(-1)), dtype=float)
    k = lf.shape[1]
    # one row of 15 node values per (member, interval)
    lf = lf.reshape(ni, 15, k).transpose(2, 0, 1).reshape(-1, 15)
    if np.isnan(lf).any():
        raise QuadratureFailure("log-integrand returned NaN")
    hl = np.tile(hl, k)
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
    return logval.reshape(k, ni), logerr.reshape(k, ni)


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


def quad_gk_log(logf, a, b, *, rel_tol, max_subdivisions, members,
                log_floor=LOG_ZERO):
    """Integrate a family of K = members integrands exp(logf) over [a, b]
    on one shared mesh, entirely in log space.

    logf(x, idx) maps (nx,) nodes to (nx, len(idx)) log-integrand values
    (-inf allowed) of the members idx.  log_floor is a scalar or a (K,)
    array.  Returns ((K,) log integrals, (K,) log error estimates,
    intervals).  Termination, per member: total log-error <=
    max(log_floor, log(rel_tol) + log integral).  A member is frozen once
    it meets its own tolerance: later sweeps neither evaluate it nor
    split intervals for it.
    """
    log_floor = np.broadcast_to(np.asarray(log_floor, dtype=float),
                                (members,))
    log_rel = math.log(rel_tol)
    live = np.ones(members, dtype=bool)
    total = np.full(members, LOG_ZERO)
    errtotal = np.full(members, LOG_ZERO)

    def kernel(aa, bb):
        idx = np.flatnonzero(live)
        vals, errs = _eval_log(lambda x: logf(x, idx), aa, bb)
        if len(idx) == members:
            return vals, errs
        full_vals = np.full((members, len(aa)), LOG_ZERO)
        full_errs = np.full((members, len(aa)), LOG_ZERO)
        full_vals[idx], full_errs[idx] = vals, errs
        return full_vals, full_errs

    def status(logv, loge, ni):
        idx = np.flatnonzero(live)
        errs = loge[idx]
        logtot = logsumexp_arr(logv[idx], axis=-1)
        logerrtot = logsumexp_arr(errs, axis=-1)
        logtol = np.maximum(log_floor[idx], log_rel + logtot)
        done = (logerrtot <= logtol) | (logtot == LOG_ZERO)
        total[idx[done]] = logtot[done]
        errtotal[idx[done]] = logerrtot[done]
        live[idx[done]] = False
        if not live.any():
            return (total, errtotal), None, None, None
        errs, logtol, logerrtot = errs[~done], logtol[~done], logerrtot[~done]
        bad = (errs > (logtol - math.log(2.0 * ni))[:, None]).any(axis=0)
        worst = np.argmax(logerrtot - logtol)
        return (None, bad, (errs - logtol[:, None]).max(axis=0),
                f"log-error {logerrtot[worst]:.3f} vs log-tolerance "
                f"{logtol[worst]:.3f}")

    return _refine(kernel, status, a, b, max_subdivisions, "log-GK15")


def log_theta_integral(power, log_smooth, s_tail, cfg):
    """log of integral_0^inf theta^power * exp(log_smooth(theta)) d theta.

    log_smooth must be vectorized over a theta array and smooth at 0; the
    integrand must decay like C * theta^(-1-s_tail) at infinity (s_tail > 0,
    known in closed form by every caller from the large-argument expansion
    of its F-family factors).

    A family of K integrands shares one theta mesh: power and s_tail are
    then (K,) arrays and log_smooth(theta, idx) returns (T, len(idx))
    values of the members idx, typically combinations of one F-table per
    node.  With scalar power and s_tail, log_smooth(theta) returns (T,)
    and the results are floats.

    Strategy: substitute theta = x^2 so half-integer powers stay smooth at
    the origin, integrate [0, U] adaptively, then double U until the
    power-law tail model (integrand value at U times U/s_tail) drops below
    rel_tol/2 of the running estimate *and* the integrand is decreasing at
    U; the final octave doubles as a verification that the model holds.
    A member is no longer evaluated on a piece once it meets its
    tolerance there (quad_gk_log), nor on later octaves once its tail
    closes.  A family of one refines exactly as a scalar call does.

    Returns (log value, log error estimate, theta nodes used); for a family
    the node count is that of the shared mesh.
    """
    scalar = np.ndim(power) == 0 and np.ndim(s_tail) == 0

    def family(th, idx):
        if scalar:
            return np.asarray(log_smooth(th), dtype=float)[:, None]
        return log_smooth(th, idx)

    power, s_tail = np.broadcast_arrays(np.atleast_1d(power).astype(float),
                                        np.atleast_1d(s_tail).astype(float))
    if not np.all(s_tail > 0):
        got = s_tail[0] if scalar else s_tail
        raise DomainError(f"tail exponent must be positive, got {got}")
    rel = cfg.rel_tol

    def logg(x, idx):
        with np.errstate(divide="ignore"):
            powpart = np.log(x)[:, None] * (2.0 * power[idx] + 1.0)
        return _LOG2 + powpart + family(x * x, idx)

    def logf_point(th, idx):
        return power[idx] * math.log(th) + family(np.array([th]), idx)[0]

    budget = cfg.max_subdivisions
    u_hi = _THETA_START
    idx = np.arange(len(power))
    logval, logerr, ni = quad_gk_log(
        logg, 0.0, math.sqrt(u_hi), rel_tol=rel, max_subdivisions=budget,
        members=len(idx))
    logval, logerr = logval.tolist(), logerr.tolist()
    nodes = 15 * ni
    log_target = math.log(rel / 2.0)
    log_s = [math.log(s) for s in s_tail]
    for _ in range(240):
        f_half = logf_point(u_hi / 2.0, idx)
        f_edge = logf_point(u_hi, idx)
        tail = {}
        seg_floor = np.empty(len(idx))
        for i, k in enumerate(idx):
            log_tail = float(f_edge[i]) + math.log(u_hi) - log_s[k]
            if f_edge[i] < f_half[i] and logval[k] > LOG_ZERO and (
                    log_tail <= log_target + logval[k]):
                tail[i] = log_tail
            seg_floor[i] = (logval[k] + math.log(rel / 4.0)) \
                if logval[k] > LOG_ZERO else LOG_ZERO
        seg_val, seg_err, ni = quad_gk_log(
            lambda x, sub: logg(x, idx[sub]), math.sqrt(u_hi),
            math.sqrt(2.0 * u_hi), rel_tol=rel, max_subdivisions=budget,
            log_floor=seg_floor, members=len(idx))
        nodes += 15 * ni
        u_hi *= 2.0
        still_open = []
        for i, k in enumerate(idx):
            logval[k] = log_add(logval[k], float(seg_val[i]))
            logerr[k] = log_add(logerr[k], float(seg_err[i]))
            if i in tail and seg_val[i] <= tail[i] + math.log(50.0):
                # verification octave consistent with the tail model; what
                # is left beyond u_hi is bounded by the model and goes into
                # the error estimate
                logerr[k] = log_add(logerr[k], tail[i])
            else:
                still_open.append(k)
        if not still_open:
            if scalar:
                return logval[0], logerr[0], nodes
            return np.array(logval), np.array(logerr), nodes
        idx = np.array(still_open)
    raise QuadratureFailure(
        "theta integral failed to localize its mass within 240 octaves")
