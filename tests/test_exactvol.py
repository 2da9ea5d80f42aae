"""Exact intrinsic volumes, moments, and derived quantities."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe

from lpvol.errors import DomainError
from lpvol.exactvol import (ExactResult, MomentRequest, PBallSpec,
                            intrinsic_volume, intrinsic_volume_weighted,
                            intrinsic_volumes, key_integral,
                            kubota_projection_factor, mean_projection_volume,
                            mixed_moment, steiner_polynomial, surface_moment,
                            volume)
from lpvol.logspace import LogValue, exp_checked
from lpvol.oracles import ball_vj, crosspolytope_vj, cube_vj
from lpvol.specfun import f_family, kappa

from .reference import SURFACE_MOMENT_DBLQUAD, pball_volume


class TestSpecValidation:
    def test_rejects_bad_weights(self):
        with pytest.raises(DomainError):
            PBallSpec(p=2.0, weights=(1.0,))
        with pytest.raises(DomainError):
            PBallSpec(p=2.0, weights=(1.0, -2.0))
        with pytest.raises(DomainError):
            PBallSpec(p=1.0, weights=(1.0, 1.0))

    @pytest.mark.parametrize("w", [1e101, 1e160, 1e-155, 1e-300, math.nan])
    def test_weights_outside_the_supported_range(self, w):
        # a_k^2 or theta a_k^2 leaves the double range beyond its ends
        with pytest.raises(DomainError, match=r"\[1e-154, 1e\+100\]"):
            PBallSpec(p=3.0, weights=(w, 1.0, 1.0))

    @pytest.mark.parametrize("w", [1e100, 1e-154])
    def test_both_ends_of_the_weight_range_are_accepted(self, w):
        assert PBallSpec(p=3.0, weights=(w, 1.0, 1.0)).weights[0] == w

    def test_gauge_and_unit_flag(self):
        spec = PBallSpec(p=3.0, weights=(1.0, 2.0))
        assert spec.gauge([0.5, 0.25]) == pytest.approx(0.25, rel=1e-15)
        assert not spec.is_unit
        assert PBallSpec.unit(3.0, 4).is_unit


class TestVolume:
    @pytest.mark.parametrize("p,n", [(1.5, 3), (2.0, 5), (3.0, 4),
                                     (7.0, 2)])
    def test_unit_closed_form(self, p, n):
        assert volume(PBallSpec.unit(p, n)).value == pytest.approx(
            pball_volume(p, n), rel=1e-12)

    def test_weights_divide_out(self):
        w = (1.0, 2.0, 0.5)
        got = volume(PBallSpec(p=2.5, weights=w)).value
        ref = pball_volume(2.5, 3) / np.prod(w)
        assert got == pytest.approx(ref, rel=1e-12)


class TestUnitIntrinsicVolumes:
    def test_round_ball_all_indices(self, cfg):
        for n in (2, 5, 9):
            spec = PBallSpec.unit(2.0, n)
            for j in range(n + 1):
                res = intrinsic_volume(spec, j, cfg)
                assert res.value.value == pytest.approx(ball_vj(n, j),
                                                        rel=1e-9)

    def test_v0_is_exactly_one(self, cfg):
        assert intrinsic_volume(PBallSpec.unit(3.0, 5), 0, cfg).value.value \
            == 1.0

    def test_top_index_is_volume(self, cfg):
        spec = PBallSpec.unit(1.7, 4)
        got = intrinsic_volume(spec, 4, cfg).value.value
        assert got == pytest.approx(volume(spec).value, rel=1e-10)

    def test_closed_form_matches_leave_one_out_engine(self, cfg):
        # a unit body is one coordinate group, integrated in closed form;
        # one weight of 1 + 2^-40 makes two groups, which go through the
        # leave-one-out engine and move V_j by about 1e-12.  At n >= 120
        # the engine's z^(m-1) coefficient sinks into subnormals unless it
        # balances z per row
        for p, n, js in ((1.7, 5, range(6)), (3.0, 120, (1,)),
                         (3.0, 160, (1,))):
            spec = PBallSpec.unit(p, n)
            split = PBallSpec(p, (1.0 + 2.0 ** -40,) + (1.0,) * (n - 1))
            for j in js:
                a = intrinsic_volume(spec, j, cfg).value.value
                b = intrinsic_volume(split, j, cfg).value.value
                assert b == pytest.approx(a, rel=1e-9)

    def test_index_out_of_range(self, cfg):
        with pytest.raises(DomainError):
            intrinsic_volume(PBallSpec.unit(2.0, 3), 4, cfg)
        with pytest.raises(DomainError):
            intrinsic_volume(PBallSpec.unit(2.0, 3), -1, cfg)

    def test_mcmullen_log_concavity(self, cfg):
        # V_r^2 >= ((r+1)/r) V_(r-1) V_(r+1)
        for p in (1.3, 2.0, 4.0):
            spec = PBallSpec.unit(p, 6)
            v = [intrinsic_volume(spec, j, cfg).value.value
                 for j in range(7)]
            for r in range(1, 6):
                lhs = v[r] ** 2
                rhs = (r + 1) / r * v[r - 1] * v[r + 1]
                assert lhs >= rhs * (1.0 - 1e-9)

    def test_monotone_in_p(self, cfg):
        # B_p inside B_q for p <= q, so V_j can only grow
        for n, j in ((4, 1), (4, 2), (6, 3)):
            vals = [intrinsic_volume(PBallSpec.unit(p, n), j, cfg)
                    .value.value for p in (1.4, 2.0, 3.0, 6.0)]
            assert all(a < b * (1.0 + 1e-12)
                       for a, b in zip(vals, vals[1:]))


class TestIntrinsicVolumeFamilies:
    @pytest.mark.parametrize("p, weights, j, nodes", [
        (3.0, (1.0,) * 60, 30, 165),
        (1.5, (1.0,) * 160, 1, 330),
        (1.5, (1.0,) * 160, 159, 105),
        (3.0, (1.0, 2.0, 0.5, 1.5, 0.8, 1.2), 3, 390),
    ])
    def test_single_index_mesh_is_unchanged(self, cfg, p, weights, j, nodes):
        # node counts of the one-integral-per-index engine: a family of
        # one must refine exactly as it did
        assert intrinsic_volume(PBallSpec(p, weights), j,
                                cfg).theta_nodes == nodes

    @pytest.mark.parametrize("weights", [(1.0,) * 5,
                                         (1.0, 2.0, 0.5, 1.5, 0.8)])
    def test_order_duplicates_and_closed_forms(self, cfg, weights):
        spec = PBallSpec(3.0, weights)
        res = intrinsic_volumes(spec, [5, 2, 0, 2], cfg)
        assert res[0] == ExactResult(volume(spec), 0.0, 0)
        assert res[2] == ExactResult(LogValue.one(), 0.0, 0)
        assert res[1] == res[3]
        assert res[1].theta_nodes > 0

    def test_index_out_of_range(self, cfg):
        with pytest.raises(DomainError, match="outside 0..4"):
            intrinsic_volumes(PBallSpec.unit(3.0, 4), [1, 5], cfg)


class TestWeightedIntrinsicVolumes:
    def test_permutation_invariance(self, cfg):
        w = (0.7, 1.9, 1.1, 3.0)
        for perm in ((1, 0, 3, 2), (3, 2, 1, 0)):
            s1 = PBallSpec(p=2.4, weights=w)
            s2 = PBallSpec(p=2.4, weights=tuple(w[i] for i in perm))
            for j in (1, 2, 3):
                a = intrinsic_volume_weighted(s1, j, cfg).value.value
                b = intrinsic_volume_weighted(s2, j, cfg).value.value
                assert b == pytest.approx(a, rel=1e-10)

    def test_scaling_law(self, cfg):
        # weights c*a shrink the body by c: V_j picks up c^(-j)
        w = np.array([1.0, 2.0, 0.8])
        c = 1.7
        s1 = PBallSpec(p=1.8, weights=w)
        s2 = PBallSpec(p=1.8, weights=c * w)
        for j in (1, 2, 3):
            a = intrinsic_volume_weighted(s1, j, cfg).value.value
            b = intrinsic_volume_weighted(s2, j, cfg).value.value
            assert b == pytest.approx(a / c ** j, rel=1e-10)

    def test_ellipse_area(self, cfg):
        spec = PBallSpec(p=2.0, weights=(1.0, 2.0))
        got = intrinsic_volume_weighted(spec, 2, cfg).value.value
        assert got == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_ellipse_half_perimeter(self, cfg):
        # semiaxes 1 and 1/2: V_1 = 2 E(3/4) in the modulus convention
        spec = PBallSpec(p=2.0, weights=(1.0, 2.0))
        got = intrinsic_volume_weighted(spec, 1, cfg).value.value
        assert got == pytest.approx(2.0 * float(ellipe(0.75)), rel=1e-10)


class TestMixedMoments:
    def test_zero_exponents_give_intrinsic_volume(self, cfg):
        spec = PBallSpec(p=2.5, weights=(1.0, 1.4, 0.9))
        for m in (1, 2, 3):
            mom = mixed_moment(spec, MomentRequest(m, ()), cfg).value.value
            ref = intrinsic_volume_weighted(spec, 3 - m, cfg).value.value
            assert mom == pytest.approx(ref, rel=1e-9)

    def test_sphere_coordinate_second_moment(self, cfg):
        # (1/2) int_(S^2) x_1^2 = (1/2)(4 pi / 3)
        spec = PBallSpec.unit(2.0, 3)
        mom = mixed_moment(spec, MomentRequest(1, (2.0,)), cfg).value.value
        assert mom == pytest.approx(2.0 * math.pi / 3.0, rel=1e-10)

    def test_sphere_symmetry_all_codimensions(self, cfg):
        # rotation invariance: moment(lambda=(2)) = V_(n-m)/n
        for n in (3, 5):
            spec = PBallSpec.unit(2.0, n)
            for m in range(1, n + 1):
                mom = mixed_moment(spec, MomentRequest(m, (2.0,)),
                                   cfg).value.value
                ref = intrinsic_volume(spec, n - m, cfg).value.value / n
                assert mom == pytest.approx(ref, rel=1e-9)

    def test_codim_one_accepts_exponents_below_one_minus_p(self, cfg):
        # lambda_1 = -0.5 <= 1 - p: valid at m = 1, where the order-0
        # coefficient needs no F(.; lambda + p - 2) column
        spec = PBallSpec.unit(1.2, 3)
        mom = mixed_moment(spec, MomentRequest(1, (-0.5, 0.3)),
                           cfg).value.value
        ref = SURFACE_MOMENT_DBLQUAD[(1.2, (1.0, 1.0, 1.0), (-0.5, 0.3, 0.0))]
        assert mom == pytest.approx(0.5 * ref, rel=1e-9)

    def test_exponent_validation(self):
        spec = PBallSpec.unit(1.5, 3)
        with pytest.raises(DomainError):
            MomentRequest(1, (-1.5,)).validate(spec)
        with pytest.raises(DomainError):
            MomentRequest(0, ()).validate(spec)
        with pytest.raises(DomainError):
            MomentRequest(2, (0.0,) * 4).validate(spec)
        # each exponent above 1 - p = -2 at m = n, their sum not above -p
        with pytest.raises(DomainError, match="sum"):
            MomentRequest(2, (-1.9, -1.9)).validate(PBallSpec.unit(3.0, 2))

    @pytest.mark.parametrize("m", [2, 5])
    def test_u_exponent_rounding_to_minus_one_is_refused(self, cfg, m):
        # -0.3 exceeds 1 - 1.3 = -0.30000000000000004, but -0.3 + 1.3 - 2
        # rounds to -1, where F(.; lambda + p - 2) diverges
        spec = PBallSpec.unit(1.3, 5)
        request = MomentRequest(m, (0.5, -0.3))
        with pytest.raises(DomainError, match="moment exponent 1"):
            request.validate(spec)
        with pytest.raises(DomainError):
            mixed_moment(spec, request, cfg)


class TestSurfaceMoments:
    def test_sphere_area(self, cfg):
        got = surface_moment(PBallSpec.unit(2.0, 3), (), cfg).value.value
        assert got == pytest.approx(4.0 * math.pi, rel=1e-10)

    def test_ellipse_perimeter(self, cfg):
        got = surface_moment(PBallSpec(p=2.0, weights=(1.0, 2.0)), (),
                             cfg).value.value
        assert got == pytest.approx(4.0 * float(ellipe(0.75)), rel=1e-9)
        assert got == pytest.approx(4.8442241, rel=1e-7)

    @pytest.mark.parametrize("key", sorted(SURFACE_MOMENT_DBLQUAD),
                             ids=lambda key: f"p={key[0]}")
    def test_against_dblquad_reference(self, cfg, key):
        p, weights, lambdas = key
        got = surface_moment(PBallSpec(p=p, weights=weights), lambdas,
                             cfg).value.value
        assert got == pytest.approx(SURFACE_MOMENT_DBLQUAD[key], rel=1e-9)

    def test_moment_weights(self, cfg):
        # int_(S^2) x_1^2 dS = (4/3) pi
        got = surface_moment(PBallSpec.unit(2.0, 3), (2.0,),
                             cfg).value.value
        assert got == pytest.approx(4.0 * math.pi / 3.0, rel=1e-9)

    @pytest.mark.parametrize("p, lam", [(1.5, -0.7), (1.2, -0.5),
                                        (1.9, -0.95)])
    def test_one_group_order_zero_matches_grouped_engine(self, cfg, p, lam):
        # lam + p - 2 <= -1, so the u column repeats v; on the unit ball
        # the closed form of one group serves, and a last weight one ulp
        # above 1 sends the same body through the leave-one-out engine
        one = surface_moment(PBallSpec.unit(p, 3), (lam,) * 3, cfg)
        grouped = surface_moment(PBallSpec(p, (1.0, 1.0, 1.0 + 2.0 ** -52)),
                                 (lam,) * 3, cfg)
        assert abs(one.value.log_abs - grouped.value.log_abs) <= (
            one.est_rel_error + grouped.est_rel_error)


class TestKeyIntegral:
    def test_unit_circle_value(self, cfg):
        # rotation-invariant case collapses to the circumference
        got = key_integral(PBallSpec.unit(2.0, 2), 1.0, (), cfg).value.value
        assert got == pytest.approx(2.0 * math.pi, rel=1e-9)

    def test_against_direct_quadrature(self, cfg):
        spec = PBallSpec(p=2.5, weights=(1.0, 1.3))
        alpha, exps = 0.8, (0.5, 0.0)
        got = key_integral(spec, alpha, exps, cfg).value.value
        a2 = spec.weights ** 2

        def smooth(th):
            out = 1.0
            for ak2, lam in zip(a2, exps):
                out *= f_family(spec.p, th * ak2, lam)
            return out

        # algebraic weight handles theta^(alpha/2 - 1) on [0, 1]
        raw = quad(smooth, 0.0, 1.0, weight="alg",
                   wvar=(alpha / 2.0 - 1.0, 0.0), epsabs=1e-12,
                   epsrel=1e-12, limit=300)[0]
        raw += quad(lambda th: th ** (alpha / 2.0 - 1.0) * smooth(th),
                    1.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=300)[0]
        mu = (2.0 + sum(exps) - alpha * (spec.p - 1.0)) / spec.p
        pre = spec.p / (math.gamma(mu) * math.gamma(alpha / 2.0)
                        * np.prod(spec.weights
                                  ** (np.array(exps) + 1.0)))
        assert got == pytest.approx(pre * raw, rel=1e-8)

    def test_strip_guard(self, cfg):
        spec = PBallSpec.unit(2.5, 2)
        # bound: sum (alpha_k + 1) / (p - 1) = 2 / 1.5
        with pytest.raises(DomainError):
            key_integral(spec, 2.0, (), cfg)
        # comfortably inside the strip the integral converges
        assert key_integral(spec, 1.0, (), cfg).value.value > 0.0

    def test_exponent_checks(self, cfg):
        spec = PBallSpec.unit(2.5, 2)
        with pytest.raises(DomainError, match="3 exponents for dimension 2"):
            key_integral(spec, 1.0, (0.0, 0.0, 0.0), cfg)
        with pytest.raises(DomainError, match="exceed -1"):
            key_integral(spec, 1.0, (-1.0,), cfg)


class TestErrorCalibration:
    """Every theta-integral record reports a positive est_rel_error that
    bounds its deviation from a closed form (by 3.6 to 23 times here)."""

    @pytest.mark.parametrize("call, exact", [
        (lambda cfg: surface_moment(PBallSpec.unit(2.0, 3), (), cfg),
         4.0 * math.pi),
        (lambda cfg: surface_moment(PBallSpec(2.0, (1.0, 2.0)), (), cfg),
         4.0 * float(ellipe(0.75))),
        (lambda cfg: surface_moment(PBallSpec.unit(2.0, 3), (2.0,), cfg),
         4.0 * math.pi / 3.0),
        (lambda cfg: mixed_moment(PBallSpec.unit(2.0, 3),
                                  MomentRequest(1, (2.0,)), cfg),
         2.0 * math.pi / 3.0),
        (lambda cfg: key_integral(PBallSpec.unit(2.0, 2), 1.0, (), cfg),
         2.0 * math.pi),
    ], ids=["sphere_area", "ellipse_perimeter", "sphere_x1_squared",
            "sphere_top_moment", "key_integral_circle"])
    def test_error_bounds_closed_form(self, cfg, call, exact):
        res = call(cfg)
        assert res.est_rel_error > 0.0 and res.theta_nodes > 0
        dev = abs(math.expm1(res.value.log_abs - math.log(exact)))
        assert dev <= res.est_rel_error

    def test_surface_is_twice_the_top_moment(self, cfg):
        # the same integral under log 2 more prefactor: same error, nodes
        spec = PBallSpec(p=1.6, weights=(1.0, 2.0))
        top = mixed_moment(spec, MomentRequest(1, (0.5, 1.5)), cfg)
        surf = surface_moment(spec, (0.5, 1.5), cfg)
        assert surf.value.log_abs == math.log(2.0) + top.value.log_abs
        assert surf.est_rel_error == top.est_rel_error
        assert surf.theta_nodes == top.theta_nodes


W5 = (1.0, 2.0, 0.5, 1.5, 0.8)
W40 = (1.0,) * 20 + (2.0,) * 20


class TestWeightedBoundaryIdentity:
    """On the boundary of a weighted ball sum_k a_k^p |x_k|^p = 1, so
    under every normalized curvature measure sum_k a_k^p E|X_k|^p = 1.
    Coordinates of equal weight have equal moments: one mixed moment per
    weight level, over V_j, serves them all.  The identity holds within
    the sum of the errors of the records it reads."""

    @pytest.mark.parametrize("p, weights, j", [
        (3.0, (1.0, 2.0, 0.5), 1), (3.0, (1.0, 2.0, 0.5), 2),
        (1.5, W5, 1), (1.5, W5, 2), (1.5, W5, 4),
        (4.0, W40, 1), (4.0, W40, 20), (4.0, W40, 39),
    ], ids=["p3-n3-j1", "p3-n3-j2", "p1.5-n5-j1", "p1.5-n5-j2", "p1.5-n5-j4",
            "p4-n40-j1", "p4-n40-j20", "p4-n40-j39"])
    def test_weighted_pth_moments_sum_to_one(self, cfg, p, weights, j):
        spec = PBallSpec(p, weights)
        vj = intrinsic_volume(spec, j, cfg)
        total, err = 0.0, vj.est_rel_error
        levels, first, counts = np.unique(spec.weights, return_index=True,
                                          return_counts=True)
        for a, k, count in zip(levels, first, counts):
            # exponent p on coordinate k, the first of its level
            mom = mixed_moment(spec, MomentRequest(spec.n - j,
                                                   (0.0,) * k + (p,)), cfg)
            total += count * a ** p * math.exp(mom.value.log_abs
                                               - vj.value.log_abs)
            err += mom.est_rel_error
        assert abs(total - 1.0) <= err


class TestDoubleRange:
    """Values beyond a double keep their log: on this body the logs are
    about 1271 to 1294, and only the float view overflows, which
    exp_checked turns into a DomainError naming the double range."""

    SPEC = dict(p=3.0, weights=[1e-3] * 200)

    @pytest.mark.parametrize("call", [
        surface_moment,
        lambda spec: mixed_moment(spec, MomentRequest(3)),
        lambda spec: key_integral(spec, 1.0),
    ], ids=["surface_moment", "mixed_moment", "key_integral"])
    def test_overflow_is_a_domain_error(self, call):
        log_val = call(PBallSpec(**self.SPEC)).value.log_abs
        with pytest.raises(DomainError, match="double range"):
            exp_checked(log_val, "the moment")

    def test_log_variant_stays_finite(self):
        spec = PBallSpec(**self.SPEC)
        for res in (surface_moment(spec), mixed_moment(spec, MomentRequest(3)),
                    key_integral(spec, 1.0)):
            assert 1200.0 < res.value.log_abs < 1300.0
            assert res.value.value == math.inf
            assert 0.0 < res.est_rel_error < 1e-6


class TestProjections:
    def test_kubota_factor(self):
        assert kubota_projection_factor(3, 2) == pytest.approx(
            kappa(2) * kappa(1) / (kappa(3) * 3.0), rel=1e-12)

    def test_ball_projects_to_disk(self, cfg):
        got = mean_projection_volume(PBallSpec.unit(2.0, 3), 2, cfg)
        assert got == pytest.approx(math.pi, rel=1e-10)

    def test_index_checks(self, cfg):
        for j in (-1, 4):
            with pytest.raises(DomainError, match="outside 0..3"):
                kubota_projection_factor(3, j)
            with pytest.raises(DomainError, match="outside 0..3"):
                mean_projection_volume(PBallSpec.unit(2.0, 3), j, cfg)

    def test_mean_width_of_ball(self, cfg):
        for n in (2, 4, 7):
            got = mean_projection_volume(PBallSpec.unit(2.0, n), 1, cfg)
            assert got == pytest.approx(2.0, rel=1e-9)


class TestSteinerPolynomial:
    def test_disk_parallel_area(self, cfg):
        spec = PBallSpec.unit(2.0, 2)
        for t in (0.0, 0.5, 2.0):
            assert steiner_polynomial(spec, t, cfg) == pytest.approx(
                math.pi * (1.0 + t) ** 2, rel=1e-9)

    def test_ball_parallel_volume(self, cfg):
        spec = PBallSpec.unit(2.0, 3)
        assert steiner_polynomial(spec, 0.5, cfg) == pytest.approx(
            4.0 * math.pi / 3.0 * 1.5 ** 3, rel=1e-9)

    def test_rejects_negative_offset(self, cfg):
        with pytest.raises(DomainError):
            steiner_polynomial(PBallSpec.unit(2.0, 2), -0.1, cfg)

    def test_overflow_is_a_domain_error(self, cfg):
        # t^3 alone is 1e330
        with pytest.raises(DomainError, match="double range"):
            steiner_polynomial(PBallSpec.unit(3.0, 3), 1e110, cfg)

    @pytest.mark.parametrize("p, weights, t, value", [
        (2.0, (1.0, 1.0), 0.5, 7.068583470522154),
        (2.0, (1.0, 1.0, 1.0), 0.5, 14.137166941074069),
        (3.0, (1.0, 1.0), 0.5, 7.691172233986194),
        (1.5, (1.0, 1.0, 1.0), 1.0, 28.640892342610208),
        (1.5, (1.0, 2.0), 0.5, 4.469772541302951),
        (1.5, (1.0, 2.0, 1.0), 1.0, 22.57078840181511),
        (3.0, (0.5, 1.0, 2.0), 0.3, 13.177904657248273),
    ])
    def test_values_of_one_integral_per_index(self, cfg, p, weights, t,
                                              value):
        # one shared mesh per body must give the polynomial of one theta
        # integral per index; V_0 = 1 is exact on every body
        assert steiner_polynomial(PBallSpec(p, weights), t, cfg) == \
            pytest.approx(value, rel=1e-12)


class TestPolytopeLimits:
    """First-order convergence toward the cube and the crosspolytope.

    The unit ball nests monotonically in p, so every V_j approaches the
    limit polytope's value from below (cube) or above (crosspolytope).
    The worst-over-j relative gap shrinks at first order: roughly 3.6/p
    on the cube side and 10(p-1) on the crosspolytope side at n = 4.
    These distances are genuine geometry, not quadrature error (the
    quadrature reports ~1e-11 relative error here).  These checks pin
    the continuity itself at n = 4; acceptance criterion 3 runs the
    same ladders further (p = 64..256 and p = 1.02..1.005) over n <= 6.
    The F-table matches mpmath down to p = 1.003 (TestNearOne in
    test_specfun.py) and the nesting check below runs at p = 1.001, so
    the p = 1.05 end of the crosspolytope ladder here is a choice of
    range, not a limit of the quadrature.
    """

    def _worst_gap(self, p, n, refs, loose_cfg):
        spec = PBallSpec.unit(p, n)
        gaps = []
        for j, ref in enumerate(refs):
            got = intrinsic_volume(spec, j, loose_cfg).value.value
            gaps.append(abs(got - ref) / ref)
        return max(gaps)

    def test_cube_gap_halves_when_p_doubles(self, loose_cfg):
        n = 4
        refs = [cube_vj(n, j) for j in range(n + 1)]
        gaps = [self._worst_gap(p, n, refs, loose_cfg)
                for p in (64.0, 128.0, 256.0)]
        assert gaps[0] <= 0.03
        for lo, hi in zip(gaps[1:], gaps[:-1]):
            assert 0.40 <= lo / hi <= 0.60

    def test_cube_approached_from_below(self, loose_cfg):
        n = 4
        spec = PBallSpec.unit(64.0, n)
        for j in range(1, n + 1):
            got = intrinsic_volume(spec, j, loose_cfg).value.value
            assert got < cube_vj(n, j)

    def test_crosspolytope_gap_tracks_p_minus_one(self, loose_cfg):
        n = 4
        refs = [crosspolytope_vj(n, j, loose_cfg) for j in range(n + 1)]
        gaps = [self._worst_gap(p, n, refs, loose_cfg)
                for p in (1.2, 1.1, 1.05)]
        for lo, hi in zip(gaps[1:], gaps[:-1]):
            assert 0.40 <= lo / hi <= 0.60

    def test_crosspolytope_approached_from_above(self, loose_cfg):
        n = 4
        spec = PBallSpec.unit(1.05, n)
        for j in range(1, n + 1):
            ref = crosspolytope_vj(n, j, loose_cfg)
            got = intrinsic_volume(spec, j, loose_cfg).value.value
            assert got > ref

    # Weighted bodies {sum |a_i x_i|^p <= 1} tend to the box
    # prod [-1/a_i, 1/a_i] as p -> inf and to the crosspolytope
    # conv{+-e_i / a_i} as p -> 1, through the leave-one-out engine at
    # both ends of the p range.  Worst gaps over j at n = 4: 0.0254, 0.0127,
    # 0.0064 (box, p = 64, 128, 256) and 0.0885, 0.0438, 0.0218
    # (crosspolytope, p = 1.02, 1.01, 1.005).
    WEIGHTS = (1.0, 2.0, 0.5, 1.5)

    def _weighted_ladder(self, ps, refs, loose_cfg):
        """V_1..V_n along the p ladder, (len(ps), n), and the worst
        relative gap to refs at each p."""
        n = len(self.WEIGHTS)
        vals = np.array([[intrinsic_volume_weighted(
            PBallSpec(p, self.WEIGHTS), j, loose_cfg).value.value
            for j in range(1, n + 1)] for p in ps])
        gaps = (np.abs(vals - refs[1:]) / refs[1:]).max(axis=1)
        for lo, hi in zip(gaps[1:], gaps[:-1]):
            assert 0.40 <= lo / hi <= 0.60
        return vals, gaps

    def test_weighted_box_gap_halves_when_p_doubles(self, loose_cfg):
        n = len(self.WEIGHTS)
        half = [1.0 / a for a in self.WEIGHTS]
        refs = np.array([cube_vj(n, j, half) for j in range(n + 1)])
        vals, gaps = self._weighted_ladder((64.0, 128.0, 256.0), refs,
                                           loose_cfg)
        assert gaps[0] <= 0.03
        # the bodies grow with p toward the box
        assert np.all(vals[:-1] < vals[1:])
        assert np.all(vals[-1] < refs[1:])

    def test_weighted_crosspolytope_gap_halves_with_p_minus_one(
            self, loose_cfg):
        n = len(self.WEIGHTS)
        refs = np.array([crosspolytope_vj(n, j, loose_cfg,
                                          weights=self.WEIGHTS)
                         for j in range(n + 1)])
        vals, gaps = self._weighted_ladder((1.02, 1.01, 1.005), refs,
                                           loose_cfg)
        assert gaps[0] <= 0.1
        # the bodies shrink with p toward the crosspolytope
        assert np.all(vals[:-1] > vals[1:])
        assert np.all(vals[-1] > refs[1:])

    @pytest.mark.parametrize("p", [1.003, 1.001])
    def test_nested_between_crosspolytope_and_p_1_01(self, p, loose_cfg):
        for n in range(2, 7):
            for j in range(1, n + 1):
                inner = crosspolytope_vj(n, j, loose_cfg)
                outer = intrinsic_volume(PBallSpec.unit(1.01, n), j,
                                         loose_cfg).value.value
                got = intrinsic_volume(PBallSpec.unit(p, n), j,
                                       loose_cfg).value.value
                assert inner < got < outer
