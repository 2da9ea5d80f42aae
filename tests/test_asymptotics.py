"""Tests for the phase function, growth laws and the exponential profile.

The p = 2 body is the round ball, where every quantity has a classical
closed form; those cases are checked tightly.  General p is checked via
residuals, internal identities, endpoint continuity and trends.
"""

import math

import numpy as np
import pytest

from lpvol.asymptotics import (
    PhasePoint,
    _sup_crosspolytope,
    _sup_simplex,
    ProfileReferences,
    bulk_asymptotic,
    exp_profile,
    face_index,
    left_edge_asymptotic,
    phase,
    phase_maximizer,
    phase_second_derivative,
    profile_references,
    right_edge_asymptotic,
    surface_area_asymptotic,
)
from lpvol.errors import ConvergenceFailure, DomainError
from lpvol.maxwell import lambda0
from lpvol.oracles import ball_vj
from lpvol.specfun import f_family_log_table


class TestPhaseMaximizer:
    def test_each_point_is_solved_once(self, cfg, monkeypatch):
        # a bulk table over n at one beta = j/n asks for the same phase
        # point on every row
        from lpvol import asymptotics
        calls = []
        solve_step = asymptotics._log_g_and_slope
        monkeypatch.setattr(asymptotics, "_log_g_and_slope",
                            lambda *a: calls.append(a) or solve_step(*a))
        asymptotics._solve_phase.cache_clear()
        first = phase_maximizer(1.7, 0.5, cfg)
        steps = len(calls)
        assert steps > 0
        for n in (20, 40, 80):
            bulk_asymptotic(1.7, n, n // 2, cfg)
        assert len(calls) == steps
        assert phase_maximizer(np.float64(1.7), 0.5) is first

    @pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 10.0])
    def test_point_carries_its_f_row(self, p, cfg):
        for beta in (0.1, 0.5, 0.9):
            pp = phase_maximizer(p, beta, cfg)
            row = f_family_log_table(p, [pp.theta_star],
                                     [0.0, p - 2.0, 2.0 * p - 2.0], cfg)[0]
            assert (pp.log_i, pp.log_j, pp.log_k) == tuple(row)

    def test_bulk_law_reads_the_phase_row(self, cfg, monkeypatch):
        # the growth law takes I, J, K at theta* from the phase point and
        # asks the F-table for nothing once theta* is solved
        from lpvol import asymptotics
        want = bulk_asymptotic(1.7, 40, 20, cfg).log_abs

        def no_table(*args):
            raise AssertionError("unexpected F-table call")

        monkeypatch.setattr(asymptotics, "f_family_log_table", no_table)
        assert bulk_asymptotic(1.7, 40, 20, cfg).log_abs == want

    def test_round_ball_closed_form(self):
        # for p = 2 the critical equation reduces to theta = (1-b)/b
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
            pp = phase_maximizer(2.0, beta)
            assert pp.theta_star == pytest.approx(
                (1.0 - beta) / beta, rel=1e-10
            )

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 5.0])
    def test_residual_contract(self, p):
        for beta in (0.2, 0.5, 0.8):
            pp = phase_maximizer(p, beta)
            assert pp.residual <= 1e-10
            assert pp.psi2_at_star < 0.0
            assert pp.psi_at_star == pytest.approx(
                phase(p, beta, pp.theta_star), rel=1e-12
            )

    def test_maximizer_is_a_maximum(self):
        pp = phase_maximizer(3.0, 0.4)
        t = pp.theta_star
        for factor in (0.9, 1.1):
            assert phase(3.0, 0.4, factor * t) < pp.psi_at_star

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_theta_decreasing_in_beta(self, p):
        thetas = [phase_maximizer(p, b).theta_star
                  for b in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a > b for a, b in zip(thetas, thetas[1:]))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_continuity_toward_full_occupancy(self, p):
        # theta* ~ c (1-b)/b as b -> 1, so the ratio follows the linear law
        t99 = phase_maximizer(p, 0.99).theta_star
        t999 = phase_maximizer(p, 0.999).theta_star
        pred = (0.001 / 0.999) / (0.01 / 0.99)
        assert t999 / t99 == pytest.approx(pred, rel=0.02)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_continuity_toward_vanishing_occupancy(self, p):
        # b^(2(p-1)/p) theta* converges to the left-edge rate constant
        scaled = {
            a: a ** (2.0 * (p - 1.0) / p) * phase_maximizer(p, a).theta_star
            for a in (1e-2, 1e-3)
        }
        assert scaled[1e-3] == pytest.approx(lambda0(p), rel=0.05)
        err2 = abs(scaled[1e-2] / lambda0(p) - 1.0)
        err3 = abs(scaled[1e-3] / lambda0(p) - 1.0)
        assert err3 < err2

    def test_point_invariants(self):
        with pytest.raises(DomainError):
            phase_maximizer(2.0, 0.0)
        with pytest.raises(DomainError):
            phase_maximizer(2.0, 1.0)
        with pytest.raises(ConvergenceFailure):
            PhasePoint(2.0, 0.5, 1.0, -0.5, -0.1, residual=1e-6,
                       log_i=0.0, log_j=0.0, log_k=0.0)
        with pytest.raises(ConvergenceFailure):
            PhasePoint(2.0, 0.5, 1.0, -0.5, 0.1, residual=0.0,
                       log_i=0.0, log_j=0.0, log_k=0.0)


class TestPhaseSecondDerivative:
    @pytest.mark.parametrize("p,beta", [(1.5, 0.3), (2.0, 0.5), (3.0, 0.7)])
    def test_matches_maximizer_curvature(self, p, beta):
        pp = phase_maximizer(p, beta)
        direct = phase_second_derivative(p, beta, pp.theta_star)
        assert direct == pytest.approx(pp.psi2_at_star, rel=1e-10)

    @pytest.mark.parametrize("p,beta,theta", [
        (1.5, 0.3, 0.7), (2.0, 0.5, 2.0), (3.0, 0.7, 0.2),
    ])
    def test_matches_finite_differences(self, p, beta, theta):
        direct = phase_second_derivative(p, beta, theta)
        h = 1e-4 * theta
        fd = (phase(p, beta, theta + h) - 2.0 * phase(p, beta, theta)
              + phase(p, beta, theta - h)) / h**2
        assert fd == pytest.approx(direct, rel=1e-5)

    def test_validation(self):
        with pytest.raises(DomainError):
            phase_second_derivative(2.0, 0.5, -1.0)
        with pytest.raises(DomainError):
            phase(2.0, 0.5, 0.0)


class TestBulkGrowthLaw:
    def test_round_ball_accuracy_and_trend(self):
        # closed-form ball values let the ratio be checked cheaply
        errs = []
        for n in (20, 40, 80):
            j = n // 2
            ratio = math.exp(
                bulk_asymptotic(2.0, n, j).log_abs - math.log(ball_vj(n, j))
            )
            errs.append(abs(ratio - 1.0))
        assert errs[1] <= 0.10
        assert errs[0] > errs[1] > errs[2]

    def test_validation(self):
        with pytest.raises(DomainError):
            bulk_asymptotic(2.0, 10, 0)
        with pytest.raises(DomainError):
            bulk_asymptotic(2.0, 10, 10)


class TestEdgeGrowthLaws:
    def test_left_edge_round_ball(self):
        # V_1(B_2^n) = 2 kappa_n / kappa_(n-1) ~ sqrt(2 pi n)
        assert left_edge_asymptotic(2.0, 50, 1) == pytest.approx(
            math.sqrt(2.0 * math.pi * 50.0), rel=1e-12
        )
        errs = [
            abs(left_edge_asymptotic(2.0, n, 2) / ball_vj(n, 2) - 1.0)
            for n in (100, 400)
        ]
        assert errs[0] <= 0.02 and errs[1] < errs[0]

    def test_left_edge_euler_index(self):
        assert left_edge_asymptotic(3.0, 17, 0) == 1.0

    def test_right_edge_round_ball(self):
        errs = [
            abs(math.exp(right_edge_asymptotic(2.0, n, 2).log_abs
                         - math.log(ball_vj(n, n - 2))) - 1.0)
            for n in (60, 240)
        ]
        assert errs[0] <= 0.05 and errs[1] < errs[0]

    def test_validation(self):
        with pytest.raises(DomainError):
            left_edge_asymptotic(2.0, 10, -1)
        # e^1133 is beyond the double range: a typed error, not an
        # OverflowError
        with pytest.raises(DomainError, match="double range"):
            left_edge_asymptotic(3.0, 100000, 300)
        with pytest.raises(DomainError):
            right_edge_asymptotic(2.0, 10, 0)
        with pytest.raises(DomainError):
            right_edge_asymptotic(2.0, 3, 5)


class TestFaceIndex:
    """face_index is the one rule from a regime row to its face index."""

    KW = {"bulk": {"alpha": 0.5}, "left": {"j": 2}, "right": {"m": 3},
          "surface": {}}

    @pytest.mark.parametrize("regime, n, expected", [
        ("bulk", 21, 10), ("left", 21, 2), ("right", 21, 18),
        ("surface", 21, 20), ("surface", 2, 1),
    ])
    def test_index(self, regime, n, expected):
        assert face_index(regime, n, **self.KW[regime]) == expected

    def test_unknown_regime(self):
        with pytest.raises(DomainError, match="unknown regime 'edge'"):
            face_index("edge", 20, m=1)

    @pytest.mark.parametrize("regime, flag", [
        ("bulk", "--alpha"), ("left", "--j"), ("right", "--m"),
    ])
    def test_missing_parameter(self, regime, flag):
        # another regime's parameter does not stand in for it
        others = {k: v for r, kw in self.KW.items() if r != regime
                  for k, v in kw.items()}
        with pytest.raises(DomainError,
                           match=f"^{regime} regime needs {flag}$"):
            face_index(regime, 20, **others)

    @pytest.mark.parametrize("regime", ["bulk", "left", "right", "surface"])
    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_dimension_below_two(self, regime, n):
        with pytest.raises(DomainError, match=f"n >= 2, got n={n}$"):
            face_index(regime, n, **self.KW[regime])

    @pytest.mark.parametrize("regime, kw, n, message", [
        ("bulk", {"alpha": 0.01}, 20, "--alpha 0.01 gives j=0 outside "
         "1..19 at n=20"),
        ("bulk", {"alpha": 1.0}, 20, "--alpha 1.0 gives j=20 outside "
         "1..19 at n=20"),
        ("bulk", {"alpha": -0.5}, 20, "--alpha -0.5 gives j=-10 outside "
         "1..19 at n=20"),
        ("left", {"j": -1}, 20, "--j -1 gives j=-1 outside 0..19 at n=20"),
        ("left", {"j": 20}, 20, "--j 20 gives j=20 outside 0..19 at n=20"),
        ("right", {"m": 0}, 20, "--m 0 gives j=20 outside 0..19 at n=20"),
        ("right", {"m": 21}, 20, "--m 21 gives j=-1 outside 0..19 at "
         "n=20"),
    ])
    def test_index_out_of_range(self, regime, kw, n, message):
        with pytest.raises(DomainError) as exc:
            face_index(regime, n, **kw)
        assert str(exc.value) == message

    @pytest.mark.parametrize("regime, kw, n, expected", [
        ("bulk", {"alpha": 0.05}, 20, 1), ("bulk", {"alpha": 0.99}, 20, 19),
        ("left", {"j": 0}, 20, 0), ("left", {"j": 19}, 20, 19),
        ("right", {"m": 1}, 20, 19), ("right", {"m": 20}, 20, 0),
        ("surface", {}, 20, 19),
    ])
    def test_range_ends_accepted(self, regime, kw, n, expected):
        assert face_index(regime, n, **kw) == expected


class TestExpProfile:
    def test_endpoints_closed_form(self):
        for p in (1.5, 2.0, 3.0, 64.0):
            assert exp_profile(p, 0.0).g_value == 0.0
            expected = (math.log(2.0 * math.gamma(1.0 + 1.0 / p))
                        + (1.0 + math.log(p)) / p)
            assert exp_profile(p, 1.0).g_value == pytest.approx(
                expected, rel=1e-10
            )

    def test_round_ball_grid(self):
        # g_2 has the closed form used by profile_references
        for alpha in np.arange(0.05, 1.0, 0.05):
            point = exp_profile(2.0, float(alpha))
            assert point.g_value == pytest.approx(
                profile_references(alpha).g_2, rel=1e-8
            )

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_concavity_on_grid(self, p):
        grid = np.arange(0.0, 1.0 + 1e-12, 0.05)
        vals = np.array([exp_profile(p, float(a)).g_value for a in grid])
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        assert np.all(second <= 1e-6)

    def test_decomposition_consistency(self):
        point = exp_profile(3.0, 0.4)
        assert point.g_value == pytest.approx(
            point.kappa_term + point.sup_psi, abs=1e-12
        )

    def test_large_p_approaches_cube(self):
        # convergence is like log(p)/p, slowest near alpha = 1
        for alpha in (0.2, 0.5):
            g64 = exp_profile(64.0, alpha).g_value
            assert abs(g64 - profile_references(alpha).g_inf) <= 0.02
        gaps = [
            abs(exp_profile(p, 0.5).g_value - profile_references(0.5).g_inf)
            for p in (16.0, 64.0, 256.0)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_validation(self):
        with pytest.raises(DomainError):
            exp_profile(2.0, -0.1)
        with pytest.raises(DomainError):
            exp_profile(2.0, 1.1)


class TestProfileReferences:
    def test_zero_alpha(self):
        assert profile_references(0.0) == ProfileReferences(0.0, 0.0, 0.0, 0.0)

    def test_full_alpha(self):
        refs = profile_references(1.0)
        assert refs.g_inf == pytest.approx(math.log(2.0), rel=1e-14)
        assert refs.g_2 == pytest.approx(
            0.5 * math.log(2.0 * math.pi * math.e), rel=1e-12
        )
        assert refs.g_1 == pytest.approx(math.log(2.0 * math.e), rel=1e-10)
        assert refs.g_simplex == pytest.approx(1.0, rel=1e-10)

    def test_ordering_matches_volumes(self):
        # at full occupancy the scaled bodies order crosspolytope above
        # ball above cube (e > sqrt(2 pi e)/2 > 1 per unit exponent)
        refs = profile_references(1.0)
        assert refs.g_1 > refs.g_2 > refs.g_inf

    @pytest.mark.parametrize("alpha, cross, simplex", [
        # mpmath at 80 digits
        (1e-30, -6.73999191588299e-29, -6.67119032743629e-29),
        (1e-25, -5.59798431863387e-24, -5.52928717268281e-24),
        (1e-22, -4.9137296873808e-21, -4.84511832513828e-21),
        (1e-20, -4.45808049051266e-19, -4.38954082320989e-19),
    ])
    def test_small_alpha_sups(self, alpha, cross, simplex):
        # the maximizers sit near sqrt(2 log(1/alpha)), past t = 10 for
        # alpha below about 2e-22, and log(2 Phi(t) - 1) must not round
        # to 0 where erfc(t/sqrt 2) < 1.1e-16
        assert _sup_crosspolytope(alpha) == pytest.approx(cross, rel=1e-12,
                                                          abs=0.0)
        assert _sup_simplex(alpha) == pytest.approx(simplex, rel=1e-12,
                                                    abs=0.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            profile_references(-0.2)
        with pytest.raises(DomainError):
            profile_references(1.2)


class TestSurfaceGrowthLaw:
    def test_doubles_codimension_one_law(self):
        for p, n in ((1.5, 30), (3.0, 101)):
            raw = surface_area_asymptotic(p, n)
            edge = right_edge_asymptotic(p, n, 1)
            assert raw.log_abs == pytest.approx(
                edge.log_abs + math.log(2.0), abs=1e-12
            )

    def test_round_ball_raw_accuracy(self):
        # exact boundary measure of the unit round ball is n kappa_n
        errs = []
        for n in (60, 200):
            exact = math.log(n) + 0.5 * n * math.log(math.pi) - math.lgamma(
                0.5 * n + 1.0
            )
            errs.append(abs(math.exp(
                surface_area_asymptotic(2.0, n).log_abs - exact) - 1.0))
        assert errs[0] <= 0.01 and errs[1] < errs[0]

    def test_round_ball_normalized_closed_form(self):
        for n in (7, 80):
            assert surface_area_asymptotic(2.0, n, normalized=True) == (
                pytest.approx(math.sqrt(2.0 * math.pi * math.e * n), rel=1e-12)
            )

    def test_normalized_against_unit_volume_sphere(self):
        # the exact unit-volume sphere surface is n kappa_n^(1/n); the
        # growth law drops the Stirling factor (pi n)^(-1/(2n)), which is
        # still 3.5 percent at n = 80 and about 0.9 percent at n = 400
        for n, tol in ((80, 0.04), (400, 0.011)):
            exact = n * math.exp(
                0.5 * math.log(math.pi) - math.lgamma(0.5 * n + 1.0) / n
            )
            form = surface_area_asymptotic(2.0, n, normalized=True)
            assert 0.0 < form / exact - 1.0 <= tol

    def test_isoperimetric_floor(self):
        # unit-volume bodies cannot beat the round ball
        for p in (1.2, 1.5, 3.0, 64.0):
            for n in (10, 100):
                assert (
                    surface_area_asymptotic(p, n, normalized=True)
                    >= surface_area_asymptotic(2.0, n, normalized=True) - 1e-9
                )

    def test_validation(self):
        with pytest.raises(DomainError):
            surface_area_asymptotic(0.9, 10)
        with pytest.raises(DomainError):
            surface_area_asymptotic(2.0, 0)
