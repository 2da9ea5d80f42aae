"""Elementary symmetric polynomials and leave-one-out coefficient sums.

The weighted volume formulas all reduce to sums of the shape

    S_m = sum_i w_i * [z^(m-1)] prod_{r != i} (v_r + z * u_r)

with positive v, u, w whose magnitudes can span hundreds of orders.  S_m
is the s^1 z^(m-1) coefficient of prod_r (v_r + z u_r + s w_r), so one
forward pass over the factors, carrying the s^0 and s^1 parts truncated
to degree < m, gives all n terms at once in O(m) memory per row.

Factors may come in groups: column g stands for counts[g] equal factors.
A group of k equal factors contributes (v + z u)^k + s k w (v + z u)^(k-1)
in closed form, so the pass starts from that closed form for the largest
group, evaluated in log space from log-binomials, and multiplies in the
other n - k_max factors one by one.  A factor step raises a degree by at
most one, so z^(m-1) reads only the top n - k_max + 1 coefficients of the
start, and the pass keeps only those: O(min(m, n - k_max + 1) (n - k_max))
per row instead of O(m n), plus O(m) for one row of log-binomials.
Three scalings keep the pass in range, and their logs are added back:

- z -> z / rho per row, with rho at the saddle point where the mean
  degree sum_r (u_r/rho) / (v_r + u_r/rho) of the product is m - 1,
  puts z^(m-1) at the peak of the product even when the factors differ
  by hundreds of orders (the equal-ratio tilt, kept for rows whose
  ratios u_r/v_r spread little, left it e^-1700 below the row maximum
  for log factors drawn N(0, 10^2) at n = 300);
- factors are divided by c_r = max(v_r, u_r / rho) and w by its row
  maximum of w_r / c_r, so one factor at most triples a coefficient;
- the closed-form start is divided by its joint row maximum, and every
  _RESCALE_STRIDE factors both parts are divided by theirs again (3^16
  ~ 4e7 cannot overflow, and a row may sink by e^-44 per factor on
  average before reaching subnormals).

Everything is batched over a leading axis of theta rows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .roots import solve_increasing

__all__ = ["elementary_symmetric", "batched_loo_log"]

_RESCALE_STRIDE = 16
# sum_r |log(u_r/v_r) - mean| up to which the equal-ratio z tilt is kept:
# it leaves z^(m-1) at most e^-200 below the row maximum
_TILT_SPREAD = 100.0


def elementary_symmetric(values) -> np.ndarray:
    """All elementary symmetric polynomials e_0..e_n of the inputs."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise DomainError("values must be one-dimensional")
    n = len(vals)
    e = np.zeros(n + 1)
    e[0] = 1.0
    for v in vals:
        e[1:] = e[1:] + v * e[:-1]
    return e


def _group_start_log(lv, lu, lw, k, lo, hi):
    """log coefficients of z^lo..z^hi (hi <= k) of the s^0 and s^1 parts
    of (v + z u + s w)^k: C(k, i) v^(k-i) u^i and
    (k - i) C(k, i) w v^(k-1-i) u^i.  lv, lu, lw are (T,) logs; returns
    two (T, hi-lo+1) arrays.  A zero power of a zero factor counts as 1."""
    # log C(k, i) as a running sum of log((k - i + 1) / i), in extended
    # precision where numpy has it: 4.5e-13 at k = 8191 against 1.3e-11
    # for lgamma(k+1) - lgamma(i+1) - lgamma(k-i+1)
    steps = np.log(np.arange(k, k - hi, -1, dtype=np.longdouble)
                   / np.arange(1, hi + 1))
    lbin = np.concatenate([[0.0], np.cumsum(steps)])[lo:].astype(float)
    i = np.arange(lo, hi + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        upart = lbin + np.where(i == 0, 0.0, i * lu[:, None])
        p0 = upart + np.where(i == k, 0.0, (k - i) * lv[:, None])
        p1 = (upart + np.log(k - i) + lw[:, None]
              + np.where(i >= k - 1, 0.0, (k - 1 - i) * lv[:, None]))
    return p0, p1


def _saddle_log_rho(ratio, counts, k):
    """log rho per row that puts the mean degree of prod_r (v_r + z u_r
    / rho) at k: sum_r counts_r sigma(ratio_r - log rho) = k, sigma the
    logistic function and ratio_r = log(u_r / v_r).  A factor with
    v_r = 0 always takes degree 1 and one with u_r = 0 degree 0.

    For equal ratios the root is log rho = mean ratio + log((n - k)/k),
    over the n_f factors with finite ratios and their share k_f of k.
    That tilt moves each coefficient of the product by at most
    exp(+-sum_r |ratio_r - mean|) from the equal-ratio case, where z^k
    sits at the peak, so it is kept while that sum is at most
    _TILT_SPREAD.  Rows spread wider are solved in log-odds,
    log(Q/P) = log((n_f - k_f)/k_f) with P the mean degree and Q its
    complement, by Newton from the equal-ratio root.  Below k_f = 1 (as
    at k = 0) the upper end of the bracket is returned, where
    u_r / rho < v_r for every factor with both finite, so the
    normalisation max(v_r, u_r / rho) is v_r; above k_f = n_f - 1 the
    lower end.
    """
    finite = np.isfinite(ratio)
    r = np.where(finite, ratio, 0.0)
    c = finite * counts
    n_f = c.sum(axis=1)
    k_f = k - ((ratio == np.inf) * counts).sum(axis=1)
    # sigma(r - lo) > 1 - e^-5 / n and sigma(r - hi) < e^-5 / n for every
    # factor, so the root is bracketed whenever 1 <= k_f <= n_f - 1
    pad = math.log(counts.sum()) + 5.0
    lo = np.where(finite, ratio, np.inf).min(axis=1) - pad
    hi = np.where(finite, ratio, -np.inf).max(axis=1) + pad
    inside = (k_f >= 1) & (k_f <= n_f - 1)
    mean = (r * c).sum(axis=1) / np.maximum(n_f, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(inside, mean + np.log((n_f - k_f) / k_f),
                       np.where(k_f < 1, hi, lo))
    lam[n_f == 0] = 0.0
    far = inside & ((np.abs(r - mean[:, None]) * c).sum(axis=1)
                    > _TILT_SPREAD)
    if far.any():
        r, c, n_f = r[far], c[far], n_f[far]
        odds = np.log((n_f - k_f[far]) / k_f[far])

        def excess(lam):
            with np.errstate(over="ignore", divide="ignore"):
                sig = 1.0 / (1.0 + np.exp(lam[:, None] - r))
                sig_c = c * sig
                p = sig_c.sum(axis=1)
                q = n_f - p
                slope = (sig_c * (1.0 - sig)).sum(axis=1) * (1.0 / p
                                                             + 1.0 / q)
                return np.log(q) - np.log(p) - odds, slope

        lam[far] = solve_increasing(excess, lo[far], hi[far], lam[far])
    return lam


def batched_loo_log(logv, logu, logw, m, counts=None) -> np.ndarray:
    """log of sum_i exp(logw_i) * [z^(m-1)] prod_{r != i}(v_r + z u_r).

    logv, logu, logw: arrays (T, G) of log magnitudes (-inf allowed in
    logw to drop terms).  counts: G positive integers, column g standing
    for counts[g] equal factors (None: one factor per column), so the
    product runs over n = sum(counts) factors.  Returns (T,) of log sums.
    All quantities are positive by construction, so no sign tracking is
    needed.
    """
    logv = np.asarray(logv, dtype=float)
    logu = np.asarray(logu, dtype=float)
    logw = np.asarray(logw, dtype=float)
    if logv.shape != logu.shape or logv.shape != logw.shape or logv.ndim != 2:
        raise DomainError("logv, logu, logw must share one (T, G) shape")
    t_rows, groups = logv.shape
    if counts is None:
        counts = np.ones(groups, dtype=int)
    counts = np.asarray(counts)
    if (counts.shape != (groups,) or counts.dtype.kind not in "iu"
            or not np.all(counts >= 1)):
        raise DomainError(f"counts must be {groups} positive integers")
    n = int(counts.sum())
    if not 1 <= m <= n:
        raise DomainError(f"coefficient order m={m} outside 1..{n}")
    if not np.isfinite(np.maximum(logv, logu)).all():
        raise DomainError("each factor needs max(v, u) finite and positive")
    logrho = _saddle_log_rho(logu - logv, counts, m - 1)
    logu = logu - logrho[:, None]
    logc = np.maximum(logv, logu)
    lw = logw - logc
    lw_max = lw.max(axis=1)
    lw_max = np.where(np.isfinite(lw_max), lw_max, 0.0)
    lw = lw - lw_max[:, None]
    # poly[0], poly[1]: the s^0 and s^1 parts, started from the closed form
    # of the largest group.  A factor step moves a coefficient up by at
    # most one degree, so after the start z^(m-1) reads only the top
    # n - k + 1 coefficients: poly keeps the window of degrees
    # m-width..m-1, whose lowest entries go stale (one more per step)
    # without ever reaching z^(m-1)
    big = int(np.argmax(counts))
    k = int(counts[big])
    width = min(m, n - k + 1)
    start = _group_start_log(logv[:, big] - logc[:, big],
                             logu[:, big] - logc[:, big], lw[:, big],
                             k, m - width, min(k, m - 1))
    top = np.maximum(start[0].max(axis=1), start[1].max(axis=1))
    log_scale = np.where(np.isfinite(top), top, 0.0)
    poly = np.zeros((2, t_rows, width))
    for part, coef in zip(poly, start):
        part[:, :coef.shape[1]] = np.exp(coef - log_scale[:, None])
    nxt = np.empty_like(poly)
    vt = np.exp(logv - logc)
    ut = np.exp(logu - logc)
    wt = np.exp(lw)
    step = 1
    for g in range(groups):
        if g == big:
            continue
        for _ in range(counts[g]):
            np.multiply(vt[:, g, None], poly, out=nxt)
            nxt[:, :, 1:] += ut[:, g, None] * poly[:, :, :-1]
            nxt[1] += wt[:, g, None] * poly[0]
            poly, nxt = nxt, poly
            step += 1
            if step % _RESCALE_STRIDE == 0:
                top = poly.max(axis=(0, 2))
                top = np.where(top > 0.0, top, 1.0)
                poly /= top[:, None]
                log_scale += np.log(top)
    with np.errstate(divide="ignore"):
        log_coef = np.log(poly[1, :, -1])
    return (log_coef + log_scale + lw_max + (logc * counts).sum(axis=1)
            + (m - 1) * logrho)
