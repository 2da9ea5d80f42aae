"""Elementary symmetric polynomials and leave-one-out coefficient sums.

The weighted volume formulas all reduce to sums of the shape

    S_m = sum_i w_i * [z^(m-1)] prod_{r != i} (v_r + z * u_r)

with positive v, u, w whose magnitudes can span hundreds of orders.  S_m
is the s^1 z^(m-1) coefficient of prod_r (v_r + z u_r + s w_r), so one
forward pass over the factors, carrying the s^0 and s^1 parts truncated
to degree < m, gives all n terms at once in O(m) memory per row.  Three
scalings keep the pass in range, and their logs are added back:

- z -> z / rho per row, log rho = mean_r log(u_r / v_r)
  + log((n-m+1)/(m-1)), puts z^(m-1) at the peak of the product;
- factors are divided by c_r = max(v_r, u_r / rho) and w by its row
  maximum of w_r / c_r, so one factor at most triples a coefficient;
- every _RESCALE_STRIDE factors both parts are divided by their joint
  row maximum (3^16 ~ 4e7 cannot overflow, and a row may sink by e^-44
  per factor on average before reaching subnormals).

Everything is batched over a leading axis of theta rows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["elementary_symmetric", "batched_loo_log"]

_RESCALE_STRIDE = 16


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


def batched_loo_log(logv, logu, logw, m) -> np.ndarray:
    """log of sum_i exp(logw_i) * [z^(m-1)] prod_{r != i}(v_r + z u_r).

    logv, logu, logw: arrays (T, n) of log magnitudes (-inf allowed in
    logw to drop terms).  Returns (T,) of log sums.  All quantities are
    positive by construction, so no sign tracking is needed.
    """
    logv = np.asarray(logv, dtype=float)
    logu = np.asarray(logu, dtype=float)
    logw = np.asarray(logw, dtype=float)
    if logv.shape != logu.shape or logv.shape != logw.shape or logv.ndim != 2:
        raise DomainError("logv, logu, logw must share one (T, n) shape")
    t_rows, n = logv.shape
    if not 1 <= m <= n:
        raise DomainError(f"coefficient order m={m} outside 1..{n}")
    if not np.isfinite(np.maximum(logv, logu)).all():
        raise DomainError("each factor needs max(v, u) finite and positive")
    ratio = logu - logv
    finite = np.isfinite(ratio)
    logrho = (np.where(finite, ratio, 0.0).sum(axis=1)
              / np.maximum(finite.sum(axis=1), 1))
    if m > 1:
        logrho += math.log((n - m + 1) / (m - 1))
    logu = logu - logrho[:, None]
    logc = np.maximum(logv, logu)
    vt = np.exp(logv - logc)
    ut = np.exp(logu - logc)
    lw = logw - logc
    lw_max = lw.max(axis=1)
    lw_max = np.where(np.isfinite(lw_max), lw_max, 0.0)
    wt = np.exp(lw - lw_max[:, None])
    # poly[0], poly[1]: the s^0 and s^1 parts, coefficients of z^0..z^(m-1)
    poly = np.zeros((2, t_rows, m))
    poly[0, :, 0] = 1.0
    nxt = np.empty_like(poly)
    log_scale = np.zeros(t_rows)
    for r in range(n):
        np.multiply(vt[:, r, None], poly, out=nxt)
        nxt[:, :, 1:] += ut[:, r, None] * poly[:, :, :-1]
        nxt[1] += wt[:, r, None] * poly[0]
        poly, nxt = nxt, poly
        if (r + 1) % _RESCALE_STRIDE == 0:
            top = poly.max(axis=(0, 2))
            top = np.where(top > 0.0, top, 1.0)
            poly /= top[:, None]
            log_scale += np.log(top)
    with np.errstate(divide="ignore"):
        log_coef = np.log(poly[1, :, m - 1])
    return (log_coef + log_scale + lw_max + logc.sum(axis=1)
            + (m - 1) * logrho)
