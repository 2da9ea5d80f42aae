"""Log-space sums, the positive log-magnitude type and the one overflow
rule.

Quantities in this package routinely have magnitudes like exp(+-1e4)
(products of hundreds of special-function values), and all of them are
positive, so results are carried as the log of their value (LogValue),
and sums of such terms use the standard max-subtraction trick
(logsumexp_arr) so that no intermediate exponential under- or
overflows.  A log becomes a float through exp_checked, which raises a
typed error naming the quantity when the value overflows a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OverflowGuard

LOG_ZERO = float("-inf")
# e^x is a finite double exactly when x <= _LOG_MAX
_LOG_MAX = math.log(np.finfo(float).max)


def exp_checked(log_value: float, what: str, error=DomainError) -> float:
    """e^log_value as a float, or error naming what when that overflows
    a double (or log_value is nan).  An underflow gives 0.0, as math.exp
    does."""
    if not log_value <= _LOG_MAX:
        raise error(f"{what} is e^{log_value:.6g}, beyond the double range")
    return math.exp(log_value)


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
    """A positive real number stored as log_abs, the log of its value,
    which must be finite.

    Values far outside the range of a double keep their log exactly;
    value and log10 convert on demand.
    """

    log_abs: float

    def __post_init__(self):
        if not math.isfinite(self.log_abs):
            raise OverflowGuard(f"LogValue with log_abs={self.log_abs}")

    @classmethod
    def one(cls) -> "LogValue":
        return cls(0.0)

    @classmethod
    def from_log(cls, log_abs: float) -> "LogValue":
        return cls(log_abs)

    @property
    def value(self) -> float:
        """Float value; overflows to inf, underflows to 0 silently."""
        return math.exp(self.log_abs) if self.log_abs <= _LOG_MAX else math.inf

    def log10(self) -> float:
        return self.log_abs / math.log(10.0)
