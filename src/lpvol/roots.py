"""The bracketed root solver behind every monotone equation lpvol
iterates on: projection, secular equation, phase maximizer, profile
maxima, log-u windows.  walk_bracket finds the bracket by stepping,
solve_increasing closes it; no other module keeps a solve loop."""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure

__all__ = ["solve_increasing", "walk_bracket"]

_STEP_TOL = 4.0 * np.finfo(float).eps
_MAX_STEPS = 200  # pure bisection reaches _STEP_TOL in about 55


def walk_bracket(g, start, step, g_start=None):
    """Bracket the sign change of an increasing g, per component.

    g(x) returns g for an array x shaped like start; g_start, if given,
    is g(start).  Each component steps up by step while g < 0, or down
    while g > 0, and stops where g changes sign (a component with g = 0
    at start does not move).  Every call of g sees all components, the
    stopped ones at their last point.  Returns (lo, hi): the last two
    points of each component, in order (lo = hi where g(start) = 0).
    Raises ConvergenceFailure if a component is still walking after
    _MAX_STEPS steps.
    """
    x = np.asarray(start, dtype=float)
    gx = g(x) if g_start is None else g_start
    up = gx < 0.0
    down = gx > 0.0
    prev = x
    for _ in range(_MAX_STEPS):
        walking = np.where(up, gx < 0.0, gx > 0.0)
        if not walking.any():
            return np.where(up, prev, x), np.where(down, prev, x)
        prev = np.where(walking, x, prev)
        x = x + walking * np.where(up, step, -step)
        gx = g(x)
    raise ConvergenceFailure(
        f"bracket walk still moving after {_MAX_STEPS} steps")


def solve_increasing(f, lo, hi, start=None):
    """Root of an increasing g on [lo, hi], per component.

    f(x) returns (g(x), g'(x)) for an array x shaped like lo and hi.
    The first iterate is start, inside the bracket, or the midpoint (also
    where start is NaN: a NaN iterate would stop its component at once).
    Safeguarded Newton (rtsafe): each iterate shrinks the bracket by the
    sign of g, and the midpoint replaces the Newton point when that
    leaves the bracket or moves more than half the step before last.  A
    component stops, and is not moved again, once g is 0 or its step is
    below 4 ulp of the magnitude of its bracket [lo, hi]; one whose g has
    no sign change converges to the end of the bracket.  Raises
    ConvergenceFailure if a component is still moving after _MAX_STEPS.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                 np.asarray(hi, dtype=float))
    tol = _STEP_TOL * np.maximum(np.abs(lo), np.abs(hi))
    x = 0.5 * (lo + hi)
    if start is not None:
        x = np.where(np.isnan(start), x, np.clip(start, lo, hi))
    step = before = hi - lo
    active = np.ones(x.shape, dtype=bool)
    for _ in range(_MAX_STEPS):
        g, dg = f(x)
        lo = np.where(g < 0.0, x, lo)
        hi = np.where(g > 0.0, x, hi)
        # a +-inf Newton point (g / dg overflows) fails the bracket test
        # below and falls back to the midpoint
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            newton = x - g / dg
        bisect = ~((lo <= newton) & (newton <= hi)
                   & (np.abs(newton - x) <= 0.5 * np.abs(before)))
        before = step
        nxt = np.where(bisect, 0.5 * (lo + hi), newton)
        step = nxt - x
        x = np.where(active & (g != 0.0), nxt, x)
        active &= (g != 0.0) & (np.abs(step) > tol)
        if not active.any():
            return x
    raise ConvergenceFailure(
        f"root solve still moving after {_MAX_STEPS} steps")
