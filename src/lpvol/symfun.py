"""Elementary symmetric polynomials and leave-one-out coefficient sums.

The weighted volume formulas all reduce to sums of the shape

    S_m = sum_i w_i * [z^(m-1)] prod_{r != i} (v_r + z * u_r)

with positive v, u, w whose magnitudes can span hundreds of orders.  The
engine below extracts the coefficient for every i at once from prefix and
suffix truncated polynomial products (O(n*m) work instead of O(n^2*m)),
normalizing each factor by max(v_r, u_r) so the truncated coefficients
stay bounded by binomial counts, and carrying the normalizers as log
offsets.  Everything is batched over a leading axis of theta rows.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .logspace import logsumexp_arr

__all__ = ["elementary_symmetric", "batched_loo_log"]

_MAX_FACTORS = 960  # binomial C(n, n/2) must stay below float overflow


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


def _truncated_products(vt, ut, m):
    """Prefix and suffix products of (v_r + z u_r), kept to degree < m.

    vt, ut: (T, n) normalized factors.  Returns P (T, n+1, m) with
    P[:, i] the coefficients of prod_{r < i}, and S (T, n+1, m) with
    S[:, i] those of prod_{r >= i}.
    """
    t_rows, n = vt.shape
    pref = np.zeros((t_rows, n + 1, m))
    pref[:, 0, 0] = 1.0
    for i in range(n):
        base = pref[:, i, :]
        nxt = vt[:, i:i + 1] * base
        nxt[:, 1:] += ut[:, i:i + 1] * base[:, :-1]
        pref[:, i + 1, :] = nxt
    suf = np.zeros((t_rows, n + 1, m))
    suf[:, n, 0] = 1.0
    for i in range(n - 1, -1, -1):
        base = suf[:, i + 1, :]
        nxt = vt[:, i:i + 1] * base
        nxt[:, 1:] += ut[:, i:i + 1] * base[:, :-1]
        suf[:, i, :] = nxt
    return pref, suf


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
    if n > _MAX_FACTORS:
        raise DomainError(
            f"{n} factors exceed the {_MAX_FACTORS} supported without "
            "intermediate renormalization")
    logc = np.maximum(logv, logu)
    if not np.isfinite(logc).all():
        raise DomainError("each factor needs max(v, u) finite and positive")
    vt = np.exp(logv - logc)
    ut = np.exp(logu - logc)
    pref, suf = _truncated_products(vt, ut, m)
    # leave-one-out coefficient: sum_d pref[:, i, d] * suf[:, i+1, m-1-d]
    suf_rev = suf[:, 1:, ::-1]
    dot = np.einsum("tid,tid->ti", pref[:, :n, :], suf_rev)
    csum = np.concatenate(
        [np.zeros((t_rows, 1)), np.cumsum(logc, axis=1)], axis=1)
    total = csum[:, n:n + 1]
    # log prod_{r != i} c_r = total - logc_i
    loo_scale = total - logc
    with np.errstate(divide="ignore"):
        logdot = np.log(dot)
    contrib = logw + logdot + loo_scale
    return logsumexp_arr(contrib, axis=1)
