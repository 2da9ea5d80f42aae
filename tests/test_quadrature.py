"""Adaptive GK15 engines, called directly: closed forms, log-domain range,
early termination, budget accounting and argument checks."""

import math

import numpy as np
import pytest

from lpvol.errors import DomainError, QuadratureFailure
from lpvol.logspace import LOG_ZERO
from lpvol.quadrature import quad_gk, quad_gk_log

TIGHT = dict(rel_tol=1e-10, abs_tol=1e-14, max_subdivisions=512)


def sqrt_and_cube(x):
    return np.stack([np.sqrt(x), x ** 3])


def steep(x):
    # log of exp(1e5 x): the integral over [0, 1] overflows a double
    return 1e5 * x


LOG_STEEP = 1e5 - math.log(1e5) + math.log1p(-math.exp(-1e5))


def budget_sweep(integrate):
    """Interval counts of the runs that fit budgets 1..39.  Small budgets
    must fail and large ones succeed, so refinement is cut short by the
    budget somewhere in between."""
    counts = {}
    for budget in range(1, 40):
        try:
            counts[budget] = integrate(budget)[2]
        except QuadratureFailure:
            pass
    assert 1 not in counts and 39 in counts
    return counts


class TestLinearEngine:
    def test_vector_integrand_needs_refinement(self):
        vals, errs, ni = quad_gk(sqrt_and_cube, 0.0, 1.0, **TIGHT)
        assert ni > 1          # the sqrt singularity at 0 forces splits
        assert vals == pytest.approx([2.0 / 3.0, 0.25], rel=1e-10)
        assert np.all(errs <= 1e-10 * np.abs(vals))

    def test_single_component(self):
        vals, _, _ = quad_gk(np.cos, 0.0, math.pi / 2.0, **TIGHT)
        assert vals == pytest.approx([1.0], rel=1e-12)

    def test_budget_exhaustion(self):
        with pytest.raises(QuadratureFailure, match="budget of 4 intervals"):
            quad_gk(sqrt_and_cube, 0.0, 1.0, rel_tol=1e-14, abs_tol=0.0,
                    max_subdivisions=4)

    def test_interval_count_within_budget(self):
        counts = budget_sweep(lambda budget: quad_gk(
            sqrt_and_cube, 0.0, 1.0, rel_tol=1e-12, abs_tol=0.0,
            max_subdivisions=budget))
        assert all(ni <= budget for budget, ni in counts.items())

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 0.0)])
    def test_empty_interval(self, a, b):
        with pytest.raises(DomainError):
            quad_gk(np.cos, a, b, **TIGHT)


class TestLogEngine:
    def test_beyond_double_range(self):
        logval, logerr, ni = quad_gk_log(steep, 0.0, 1.0, rel_tol=1e-10,
                                         max_subdivisions=512)
        assert logval == pytest.approx(LOG_STEEP, abs=1e-9)
        assert logerr <= math.log(1e-10) + logval
        assert 1 < ni <= 512

    def test_log_floor_ends_refinement_early(self):
        def log_sqrt(x):
            with np.errstate(divide="ignore"):
                return 0.5 * np.log(x)

        _, _, ni_full = quad_gk_log(log_sqrt, 0.0, 1.0, rel_tol=1e-10,
                                    max_subdivisions=512)
        floor = math.log(1e-4)
        logval, logerr, ni = quad_gk_log(log_sqrt, 0.0, 1.0, rel_tol=1e-10,
                                         max_subdivisions=512,
                                         log_floor=floor)
        assert ni < ni_full
        assert logerr <= floor
        assert math.exp(logval) == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_zero_integrand(self):
        logval, _, ni = quad_gk_log(
            lambda x: np.full_like(x, LOG_ZERO), 0.0, 1.0, rel_tol=1e-10,
            max_subdivisions=512)
        assert logval == LOG_ZERO and ni == 1

    def test_budget_exhaustion(self):
        with pytest.raises(QuadratureFailure,
                           match="log-GK15 budget of 4 intervals"):
            quad_gk_log(steep, 0.0, 1.0, rel_tol=1e-10, max_subdivisions=4)

    def test_interval_count_within_budget(self):
        counts = budget_sweep(lambda budget: quad_gk_log(
            steep, 0.0, 1.0, rel_tol=1e-6, max_subdivisions=budget))
        assert all(ni <= budget for budget, ni in counts.items())

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 0.0)])
    def test_empty_interval(self, a, b):
        with pytest.raises(DomainError):
            quad_gk_log(steep, a, b, rel_tol=1e-10, max_subdivisions=512)
