"""Log-space sums and the sign/log-magnitude result type.

Quantities in this package routinely have magnitudes like exp(+-1e4)
(products of hundreds of special-function values), so results are
carried as a sign and the log of the absolute value (LogValue), and
sums of such terms use the standard max-subtraction trick (log_add,
logsumexp_arr) so that no intermediate exponential under- or overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OverflowGuard

LOG_ZERO = float("-inf")


def log_add(a: float, b: float) -> float:
    """log(e^a + e^b) without overflow; either argument may be -inf."""
    if a == LOG_ZERO:
        return b
    if b == LOG_ZERO:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def logsumexp_arr(values, axis=None):
    """logsumexp that tolerates all -inf slices (returns -inf there).

    The arithmetic is scipy.special.logsumexp's for real input, so the
    results are the same bits: the terms tied with the maximum are counted
    apart, log(sum) = log1p(rest / ties) + log(ties) + max, where rest sums
    exp(a - max) over the other terms.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return LOG_ZERO if axis is None else np.full(
            np.delete(arr.shape, axis), LOG_ZERO)
    axes = tuple(range(arr.ndim)) if axis is None else axis
    a_max = np.max(arr, axis=axes, keepdims=True)
    is_max = arr == a_max
    ties = np.sum(is_max, axis=axes, keepdims=True, dtype=float)
    # an all -inf slice is all ties, so rest = 0 and the sum is -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.sum(np.where(is_max, 0.0, np.exp(arr - a_max)),
                      axis=axes, keepdims=True)
        out = np.log1p(rest / ties) + np.log(ties) + a_max
    out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class LogValue:
    """A real number stored as (sign, log|x|).

    sign is -1, 0 or +1; sign 0 pairs with log_abs = -inf and represents an
    exact zero.  Values far outside the range of a double keep their log
    exactly; value and log10 convert on demand.
    """

    sign: int
    log_abs: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.sign == 0 and self.log_abs != LOG_ZERO:
            raise DomainError("zero LogValue must carry log_abs = -inf")
        if self.sign != 0 and (math.isnan(self.log_abs)
                               or self.log_abs == LOG_ZERO):
            raise OverflowGuard(
                f"nonzero LogValue with log_abs={self.log_abs}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(0, LOG_ZERO)

    @classmethod
    def one(cls) -> "LogValue":
        return cls(1, 0.0)

    @classmethod
    def from_log(cls, log_abs: float, sign: int = 1) -> "LogValue":
        if log_abs == LOG_ZERO:
            return cls.zero()
        return cls(sign, log_abs)

    # -- conversions -------------------------------------------------------

    @property
    def value(self) -> float:
        """Float value; overflows to +-inf, underflows to 0 silently."""
        if self.sign == 0:
            return 0.0
        try:
            mag = math.exp(self.log_abs)
        except OverflowError:
            mag = math.inf
        return self.sign * mag

    def log10(self) -> float:
        return self.log_abs / math.log(10.0)
