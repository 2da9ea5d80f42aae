"""Tests for the bracket walk and the bracketed safeguarded-Newton
solver."""

import math

import numpy as np
import pytest

from lpvol import roots
from lpvol.errors import ConvergenceFailure
from lpvol.roots import solve_increasing, walk_bracket


def _cubic(a):
    # y^3 + y - (a^3 + a) is increasing with the single root a
    r = a**3 + a

    def f(y):
        return y**3 + y - r, 3.0 * y * y + 1.0

    return f


def _exp_shift(t):
    # e^y - 1 - t: from the far side of a wide bracket, plain Newton
    # moves about one unit per step
    def f(y):
        with np.errstate(over="ignore"):
            ey = np.exp(y)
        return ey - 1.0 - t, ey

    return f


class TestSolveIncreasing:
    def test_cubic_roots(self):
        a = np.array([-3.0, -0.25, 0.0, 0.7, 2.5, 40.0])
        y = solve_increasing(_cubic(a), np.full(6, -100.0), np.full(6, 100.0))
        np.testing.assert_allclose(y, a, rtol=4e-16, atol=1e-300)

    def test_exponential_from_the_far_side(self):
        t = np.array([0.5, 10.0, 1e3, 1e100])
        calls = []
        f = _exp_shift(t)

        def counted(y):
            calls.append(1)
            return f(y)

        y = solve_increasing(counted, np.full(4, -5.0), np.full(4, 400.0))
        np.testing.assert_allclose(y, np.log1p(t), rtol=4e-16)
        # plain Newton from y = 197.5 needs about 195 steps for t = 10
        assert len(calls) <= 30

    def test_infinite_slope_at_the_left_end(self):
        # y + c sqrt(y) = x: g' = 1 + c / (2 sqrt(y)) is infinite at y = 0
        c = np.array([0.0, 1.0, 100.0, 1e8])
        x = np.array([1.0, 2.0, 3.0, 0.5])

        def f(y):
            with np.errstate(divide="ignore"):
                return y + c * np.sqrt(y) - x, 1.0 + 0.5 * c / np.sqrt(y)

        y = solve_increasing(f, np.zeros(4), x)
        # sqrt(y) = 2x / (c + sqrt(c^2 + 4x)), free of cancellation
        exact = (2.0 * x / (c + np.sqrt(c * c + 4.0 * x))) ** 2
        # the documented stop: 4 ulp of the bracket's magnitude, here x
        assert np.all(np.abs(y - exact) <= 4.0 * np.finfo(float).eps * x)

    def test_no_sign_change_returns_the_end(self):
        lo = np.array([0.0, -20.0, 1.0, -3.0])
        hi = np.array([1.0, 5.0, 2.0, -1.0])
        shift = np.array([10.0, -10.0, -0.5, 7.0])
        y = solve_increasing(lambda y: (y + shift, np.ones_like(y)), lo, hi)
        ends = np.array([0.0, 5.0, 1.0, -3.0])
        tol = 4.0 * np.finfo(float).eps * np.maximum(abs(lo), abs(hi))
        assert np.all(np.abs(y - ends) <= tol)

    def test_components_freeze_independently(self):
        # y^2 - k for k = 3, 12, 37 dithers by an ulp at its root if it is
        # stepped on; e^y - 1 - (e - 1) has g = 0 at its first midpoint;
        # e^y - 1 - 10 takes a long approach.  Each component of the batch
        # must match its solo solve exactly, within the budget.
        k = np.array([3.0, 12.0, 37.0, math.e - 1.0, 10.0])
        square = np.array([True, True, True, False, False])
        lo = np.array([0.0, 0.0, 0.0, 0.0, -5.0])
        hi = np.array([3.0, 12.0, 37.0, 2.0, 400.0])

        def mixed(k, square):
            def f(y):
                with np.errstate(over="ignore"):
                    ey = np.exp(y)
                return (np.where(square, y * y, ey - 1.0) - k,
                        np.where(square, 2.0 * y, ey))

            return f

        batch = solve_increasing(mixed(k, square), lo, hi)
        for i in range(5):
            one = slice(i, i + 1)
            solo = solve_increasing(mixed(k[one], square[one]), lo[one],
                                    hi[one])
            assert batch[i] == solo[0]
        assert batch[3] == 1.0

    def test_start_inside_and_outside_the_bracket(self):
        # a start is clipped into the bracket; a NaN start is replaced by
        # the midpoint instead of stopping its component there
        a = np.array([0.7, 0.7, 0.7, 2.5])
        start = np.array([0.5, -50.0, np.nan, np.nan])
        y = solve_increasing(_cubic(a), np.full(4, -10.0), np.full(4, 10.0),
                             start=start)
        np.testing.assert_allclose(y, a, rtol=4e-16)

    def test_scalar_bracket(self):
        y = solve_increasing(
            lambda x: (math.erf(x) - 0.5,
                       2.0 / math.sqrt(math.pi) * math.exp(-x * x)),
            0.0, 3.0)
        assert np.ndim(y) == 0
        assert math.erf(y) == pytest.approx(0.5, rel=1e-15)

    def test_overflowing_newton_point_falls_back_to_the_midpoint(self):
        # g / g' overflows a double (a tiny g' beside a large g, as in the
        # log-u window peaks at p = 4096); the inf Newton point leaves the
        # bracket, with no overflow warning, and bisection takes over
        y = solve_increasing(
            lambda x: (1e300 * (x - 0.3), np.full_like(x, 1e-20)),
            np.array([-1.0]), np.array([2.0]))
        assert y[0] == pytest.approx(0.3, rel=1e-15)

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(roots, "_MAX_STEPS", 3)
        with pytest.raises(ConvergenceFailure):
            solve_increasing(_exp_shift(np.array([10.0])), np.array([-5.0]),
                             np.array([400.0]))


class TestWalkBracket:
    def test_walks_up_and_down_to_the_sign_change(self):
        # g(x) = x - r: from 0 in steps of 1.5, each component stops at
        # the first point past r and reports the point before it
        r = np.array([4.0, -4.0, 0.7, -0.7])
        seen = []

        def g(x):
            seen.append(x.copy())
            return x - r

        lo, hi = walk_bracket(g, np.zeros(4), 1.5)
        np.testing.assert_array_equal(lo, [3.0, -4.5, 0.0, -1.5])
        np.testing.assert_array_equal(hi, [4.5, -3.0, 1.5, 0.0])
        assert np.all((lo <= r) & (r <= hi))
        # every call sees all components, stopped ones where they stopped
        assert len(seen) == 4 and all(x.shape == (4,) for x in seen)
        np.testing.assert_array_equal(seen[-1], [4.5, -4.5, 1.5, -1.5])

    def test_given_start_value_is_not_recomputed(self):
        calls = []

        def g(x):
            calls.append(1)
            return x - 2.0

        lo, hi = walk_bracket(g, np.array([0.0]), 1.0,
                              g_start=np.array([-2.0]))
        assert (lo[0], hi[0]) == (1.0, 2.0)
        assert len(calls) == 2

    def test_zero_at_the_start_does_not_move(self):
        # the first component starts on the root; the second walks down
        # onto it, which also ends its walk
        lo, hi = walk_bracket(lambda x: x - 1.0, np.array([1.0, 3.0]), 0.5)
        np.testing.assert_array_equal(lo, [1.0, 1.0])
        np.testing.assert_array_equal(hi, [1.0, 1.5])
        y = solve_increasing(lambda x: (x - 1.0, np.ones_like(x)), lo, hi)
        np.testing.assert_array_equal(y, [1.0, 1.0])

    def test_walk_then_solve(self):
        # the pattern of the phase and projection solves: bracket an
        # increasing function from a start far off, then close it
        t = np.array([0.5, 3.0, 1e40])
        f = _exp_shift(t)
        lo, hi = walk_bracket(lambda y: f(y)[0], np.full(3, 5.0),
                              math.log(4.0))
        assert np.all((lo < np.log1p(t)) & (np.log1p(t) < hi))
        y = solve_increasing(f, lo, hi)
        np.testing.assert_allclose(y, np.log1p(t), rtol=4e-16)

    def test_run_away_raises(self, monkeypatch):
        monkeypatch.setattr(roots, "_MAX_STEPS", 5)
        # 1 + e^x never changes sign: the walk down runs away
        with pytest.raises(ConvergenceFailure, match="bracket walk"):
            walk_bracket(lambda x: 1.0 + np.exp(x), np.zeros(2), 1.0)
