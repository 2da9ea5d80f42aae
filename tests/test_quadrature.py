"""Adaptive GK15 engines, called directly: closed forms, log-domain range,
early termination, budget accounting, argument checks, and families of
log integrands on one shared mesh."""

import math

import numpy as np
import pytest

from lpvol.errors import DomainError, QuadratureFailure
from lpvol.logspace import LOG_ZERO
from lpvol.quadrature import log_theta_integral, quad_gk, quad_gk_log
from lpvol.specfun import f_family_log_interp

TIGHT = dict(rel_tol=1e-10, abs_tol=1e-14, max_subdivisions=512)


def sqrt_and_cube(x):
    return np.stack([np.sqrt(x), x ** 3])


def steep(x, idx):
    # log of exp(1e5 x), a family of one member: the integral over [0, 1]
    # overflows a double
    return 1e5 * x[:, None]


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
    """The log kernel on a family of one member."""

    def test_beyond_double_range(self):
        logval, logerr, ni = quad_gk_log(steep, 0.0, 1.0, rel_tol=1e-10,
                                         max_subdivisions=512, members=1)
        assert logval.shape == logerr.shape == (1,)
        assert logval[0] == pytest.approx(LOG_STEEP, abs=1e-9)
        assert logerr[0] <= math.log(1e-10) + logval[0]
        assert 1 < ni <= 512

    def test_log_floor_ends_refinement_early(self):
        def log_sqrt(x, idx):
            with np.errstate(divide="ignore"):
                return 0.5 * np.log(x)[:, None]

        _, _, ni_full = quad_gk_log(log_sqrt, 0.0, 1.0, rel_tol=1e-10,
                                    max_subdivisions=512, members=1)
        floor = math.log(1e-4)
        logval, logerr, ni = quad_gk_log(log_sqrt, 0.0, 1.0, rel_tol=1e-10,
                                         max_subdivisions=512, members=1,
                                         log_floor=floor)
        assert ni < ni_full
        assert logerr[0] <= floor
        assert math.exp(logval[0]) == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_zero_integrand(self):
        logval, _, ni = quad_gk_log(
            lambda x, idx: np.full((len(x), 1), LOG_ZERO), 0.0, 1.0,
            rel_tol=1e-10, max_subdivisions=512, members=1)
        assert logval[0] == LOG_ZERO and ni == 1

    def test_budget_exhaustion(self):
        with pytest.raises(QuadratureFailure,
                           match="log-GK15 budget of 4 intervals"):
            quad_gk_log(steep, 0.0, 1.0, rel_tol=1e-10, max_subdivisions=4,
                        members=1)

    def test_interval_count_within_budget(self):
        counts = budget_sweep(lambda budget: quad_gk_log(
            steep, 0.0, 1.0, rel_tol=1e-6, max_subdivisions=budget,
            members=1))
        assert all(ni <= budget for budget, ni in counts.items())

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 0.0)])
    def test_empty_interval(self, a, b):
        with pytest.raises(DomainError):
            quad_gk_log(steep, a, b, rel_tol=1e-10, max_subdivisions=512,
                        members=1)


def unit_family(p, n, js, cfg):
    """The unit route's theta integrand for V_j, j in js: powers, family
    log integrand (theta, idx) -> (T, len(idx)) and tail exponents, as
    exactvol builds them."""
    js = np.asarray(js)
    ms = n - js
    nus = np.array([0.0, p - 2.0, 2.0 * p - 2.0])

    def log_smooth(th, idx):
        tab, _ = f_family_log_interp(p, th, nus, cfg)
        return js[idx] * tab[:, :1] + (ms[idx] - 1) * tab[:, 1:2] + tab[:, 2:]

    return 0.5 * ms - 1.0, log_smooth, (js + p) / (2.0 * p - 2.0)


# theta^a (1 + theta)^-c integrates to B(a + 1, c - a - 1) on (0, inf)
BETA_A = np.array([0.0, 0.5, 2.0])
BETA_C = np.array([1.7, 4.0, 12.0])
LOG_BETA = [math.lgamma(a + 1.0) + math.lgamma(c - a - 1.0) - math.lgamma(c)
            for a, c in zip(BETA_A, BETA_C)]


def log_beta_family(th, idx):
    return -np.log1p(th)[:, None] * BETA_C[idx]


class TestVectorLogKernel:
    def test_single_member_theta_integral_matches_scalar_call(self, cfg):
        power, log_smooth, s_tail = unit_family(3.0, 60, [30], cfg)
        vec = log_theta_integral(power, log_smooth, s_tail, cfg)
        scalar = log_theta_integral(
            float(power[0]), lambda th: log_smooth(th, [0])[:, 0],
            float(s_tail[0]), cfg)
        assert isinstance(scalar[0], float) and isinstance(scalar[1], float)
        assert (vec[0][0], vec[1][0], vec[2]) == scalar

    def test_members_meet_their_own_tolerance(self):
        # members far apart in size: one absolute target for all would
        # leave the small ones unresolved
        cols = [lambda x: 0.0 * x, lambda x: -7.0 + 0.5 * np.log(x),
                lambda x: 0.5 * np.log(x)]
        seen = []

        def logf(x, idx):
            seen.append(list(idx))
            return np.stack([cols[k](x) for k in idx], axis=1)

        logval, logerr, _ = quad_gk_log(logf, 0.0, 1.0, rel_tol=1e-10,
                                        max_subdivisions=512, members=3)
        assert np.exp(logval) == pytest.approx(
            [1.0, math.exp(-7.0) * 2.0 / 3.0, 2.0 / 3.0], rel=1e-10)
        assert np.all(logerr <= math.log(1e-10) + logval)
        # the constant is exact on the first interval and is not
        # evaluated again while the sqrt members refine
        assert seen[0] == [0, 1, 2] and len(seen) > 2
        assert all(idx == [1, 2] for idx in seen[1:])

    def test_family_matches_closed_forms_and_separate_calls(self, cfg):
        logval, logerr, nodes = log_theta_integral(
            BETA_A, log_beta_family, BETA_C - BETA_A - 1.0, cfg)
        total = 0
        for k, (a, c) in enumerate(zip(BETA_A, BETA_C)):
            one_val, one_err, one_nodes = log_theta_integral(
                a, lambda th: -c * np.log1p(th), c - a - 1.0, cfg)
            total += one_nodes
            err = math.exp(logerr[k] - logval[k])
            assert err <= cfg.rel_tol
            assert abs(logval[k] - LOG_BETA[k]) <= err
            assert abs(logval[k] - one_val) <= err + math.exp(
                one_err - one_val)
        assert nodes < total

    def test_tails_close_in_different_octaves(self, cfg):
        # at p = 1.5, n = 160 the j = 1 integrand decays like theta^-2.5
        # and j = 159 like theta^-160.5: j = 159 closes its tail many
        # octaves earlier and must stop being evaluated there
        p, n = 1.5, 160
        power, log_smooth, s_tail = unit_family(p, n, [1, 159], cfg)
        largest = {0: 0.0, 1: 0.0}

        def recording(th, idx):
            for k in idx:
                largest[int(k)] = max(largest[int(k)], float(th.max()))
            return log_smooth(th, idx)

        logval, logerr, nodes = log_theta_integral(power, recording, s_tail,
                                                   cfg)
        singles = [log_theta_integral(*unit_family(p, n, [j], cfg), cfg)
                   for j in (1, 159)]
        assert largest[0] > 1e3 * largest[1]
        assert max(s[2] for s in singles) <= nodes < sum(
            s[2] for s in singles)
        for k, (one_val, one_err, _) in enumerate(singles):
            err = math.exp(logerr[k] - logval[k])
            assert err <= cfg.rel_tol
            assert abs(logval[k] - one_val[0]) <= err + math.exp(
                one_err[0] - one_val[0])

    def test_tail_exponents_checked_per_member(self, cfg):
        with pytest.raises(DomainError, match="tail exponent"):
            log_theta_integral(BETA_A, log_beta_family,
                               np.array([1.0, -0.5, 2.0]), cfg)
