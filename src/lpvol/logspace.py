"""Sign/log-magnitude scalar arithmetic.

Quantities in this package routinely have magnitudes like exp(+-1e4)
(products of hundreds of special-function values), so exact values are
carried as a sign and the log of the absolute value.  Multiplication,
division and powers act on logs directly; addition uses the standard
max-subtraction trick so that no intermediate exponential under- or
overflows.
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


def log_sub(a: float, b: float) -> float:
    """log(e^a - e^b) for a >= b; returns -inf on exact cancellation."""
    if b == LOG_ZERO:
        return a
    if b > a:
        raise DomainError(f"log_sub needs a >= b, got a={a}, b={b}")
    if a == b:
        return LOG_ZERO
    return a + math.log1p(-math.exp(b - a))


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
    exact zero.  Arithmetic never leaves this representation, so products of
    thousands of factors and sums of same-sign terms are exact up to float
    rounding of the logs.
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
    def from_float(cls, x: float) -> "LogValue":
        if math.isnan(x) or math.isinf(x):
            raise DomainError(f"cannot capture non-finite float {x}")
        if x == 0.0:
            return cls.zero()
        return cls(1 if x > 0 else -1, math.log(abs(x)))

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

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        other = _coerce(other)
        s = self.sign * other.sign
        if s == 0:
            return LogValue.zero()
        return LogValue(s, self.log_abs + other.log_abs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.sign == 0:
            raise ZeroDivisionError("LogValue division by zero")
        if self.sign == 0:
            return LogValue.zero()
        return LogValue(self.sign * other.sign,
                        self.log_abs - other.log_abs)

    def __pow__(self, exponent: float):
        if self.sign == 0:
            if exponent <= 0:
                raise DomainError("0 ** nonpositive exponent")
            return LogValue.zero()
        if self.sign < 0:
            if exponent != int(exponent):
                raise DomainError("negative base with non-integer exponent")
            s = -1 if int(exponent) % 2 else 1
            return LogValue(s, self.log_abs * exponent)
        return LogValue(1, self.log_abs * exponent)

    def __neg__(self):
        return LogValue(-self.sign, self.log_abs)

    def __abs__(self):
        return LogValue(abs(self.sign), self.log_abs)

    def __add__(self, other):
        other = _coerce(other)
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        if self.sign == other.sign:
            return LogValue(self.sign, log_add(self.log_abs, other.log_abs))
        # opposite signs: subtract the smaller magnitude from the larger
        if self.log_abs == other.log_abs:
            return LogValue.zero()
        big, small = ((self, other) if self.log_abs > other.log_abs
                      else (other, self))
        return LogValue(big.sign, log_sub(big.log_abs, small.log_abs))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    # -- ordering ----------------------------------------------------------

    def _key(self):
        return (self.sign, self.sign * self.log_abs
                if self.sign != 0 else 0.0)

    def __lt__(self, other):
        return self._key() < _coerce(other)._key()

    def __le__(self, other):
        return self._key() <= _coerce(other)._key()

    def __gt__(self, other):
        return self._key() > _coerce(other)._key()

    def __ge__(self, other):
        return self._key() >= _coerce(other)._key()

    def __repr__(self):
        if self.sign == 0:
            return "LogValue(0)"
        s = "-" if self.sign < 0 else ""
        return f"LogValue({s}exp({self.log_abs:.12g}))"


def _coerce(x) -> LogValue:
    if isinstance(x, LogValue):
        return x
    if isinstance(x, (int, float)):
        return LogValue.from_float(float(x))
    raise TypeError(f"cannot mix LogValue with {type(x).__name__}")
