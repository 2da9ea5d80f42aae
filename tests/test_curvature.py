"""Tests for boundary geometry: curvatures, Gauss map, support function.

The round sphere and the ellipse give exact references; general bodies
are checked through the secular equation, Vieta identities against the
leave-one-out closed form, scaling covariance, and the recovery of
intrinsic volumes from curvature densities integrated over arclength.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe, logsumexp

from lpvol.curvature import (
    BoundaryPoint,
    boundary_point,
    curvature_density,
    gauss_curvature,
    gauss_map,
    inverse_gauss_map,
    principal_curvatures,
    sigma_curvatures,
    support_function,
)
from lpvol.errors import DegenerateInput, DomainError
from lpvol.exactvol import PBallSpec, intrinsic_volume_weighted
from lpvol.specfun import kappa
from lpvol.symfun import elementary_symmetric


def _random_boundary_point(spec, rng):
    x = rng.normal(size=spec.n)
    x[np.abs(x) < 1e-3] = 1e-3
    return boundary_point(spec, x)


class TestBoundaryPoint:
    def test_radial_lift(self):
        spec = PBallSpec(3.0, (1.0, 2.0, 0.5))
        pt = boundary_point(spec, [4.0, -1.0, 2.5])
        assert abs(float(spec.gauge(pt.coords)) - 1.0) <= 1e-12
        # lift preserves direction
        ratio = pt.coords / np.array([4.0, -1.0, 2.5])
        assert np.allclose(ratio, ratio[0])

    def test_already_on_boundary_is_fixed(self):
        spec = PBallSpec.unit(2.0, 3)
        x = np.array([0.6, 0.8, 0.0])
        pt = boundary_point(spec, x)
        np.testing.assert_allclose(pt.coords, x, atol=1e-15)

    def test_coords_read_only(self):
        pt = boundary_point(PBallSpec.unit(2.0, 2), [1.0, 1.0])
        with pytest.raises(ValueError):
            pt.coords[0] = 0.0

    def test_validation(self):
        spec = PBallSpec.unit(2.0, 2)
        with pytest.raises(DegenerateInput):
            boundary_point(spec, [0.0, 0.0])
        with pytest.raises(DomainError):
            boundary_point(spec, [1.0, np.inf])
        with pytest.raises(DomainError):
            boundary_point(spec, [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            BoundaryPoint(spec, np.array([1.0, 1.0]))


class TestRoundSphere:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_unit_curvatures(self, n, rng):
        pt = _random_boundary_point(PBallSpec.unit(2.0, n), rng)
        np.testing.assert_allclose(
            principal_curvatures(pt), np.ones(n - 1), atol=1e-12
        )
        assert gauss_curvature(pt) == pytest.approx(1.0, rel=1e-12)

    def test_sigma_binomials(self, rng):
        n = 5
        pt = _random_boundary_point(PBallSpec.unit(2.0, n), rng)
        for m in range(1, n + 1):
            assert sigma_curvatures(pt, m) == pytest.approx(
                math.comb(n - 1, m - 1), rel=1e-12
            )

    def test_densities(self, rng):
        n = 4
        pt = _random_boundary_point(PBallSpec.unit(2.0, n), rng)
        for m in range(1, n + 1):
            expected = math.comb(n - 1, m - 1) / (m * kappa(m))
            assert curvature_density(pt, m) == pytest.approx(
                expected, rel=1e-12
            )

    def test_normal_is_position(self, rng):
        pt = _random_boundary_point(PBallSpec.unit(2.0, 4), rng)
        np.testing.assert_allclose(gauss_map(pt), pt.coords, atol=1e-14)


class TestEllipse:
    # weights (1, 2) give the ellipse x^2 + 4 y^2 = 1, semiaxes (1, 1/2)
    SPEC = PBallSpec(2.0, (1.0, 2.0))

    def test_parametric_curvature(self):
        for t in (0.2, 0.8, 1.3, 2.5, 4.0):
            pt = BoundaryPoint(
                self.SPEC, np.array([math.cos(t), 0.5 * math.sin(t)])
            )
            expected = 0.5 / (
                math.sin(t) ** 2 + 0.25 * math.cos(t) ** 2
            ) ** 1.5
            k = principal_curvatures(pt)
            assert k.shape == (1,)
            assert k[0] == pytest.approx(expected, rel=1e-12)
            assert gauss_curvature(pt) == pytest.approx(expected, rel=1e-12)

    def test_axis_point_limit(self):
        # the tip (1, 0) is a curvature-degenerate parametrization point,
        # but the curvature extends continuously with value 4 - 72 e^2
        for eps in (1e-2, 1e-3, 1e-4):
            x = np.array([math.sqrt(1.0 - 4.0 * eps * eps), eps])
            k = gauss_curvature(BoundaryPoint(self.SPEC, x))
            assert abs(k - 4.0) <= 80.0 * eps * eps + 1e-9

    def test_axis_point_is_degenerate(self):
        pt = BoundaryPoint(self.SPEC, np.array([1.0, 0.0]))
        with pytest.raises(DegenerateInput):
            principal_curvatures(pt)
        with pytest.raises(DegenerateInput):
            gauss_curvature(pt)


class TestSecularAndVieta:
    @pytest.mark.parametrize("p", [1.7, 2.0, 3.5])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_symmetric_functions_match_roots(self, p, n, rng):
        # sigma_curvatures never touches the roots, so agreement is a
        # genuine cross-check of the secular solve
        weights = rng.uniform(0.5, 2.0, size=n)
        pt = _random_boundary_point(PBallSpec(p, weights), rng)
        lam = principal_curvatures(pt)
        es = elementary_symmetric(lam)
        for m in range(1, n + 1):
            assert sigma_curvatures(pt, m) == pytest.approx(
                float(es[m - 1]), rel=1e-8
            )
        assert gauss_curvature(pt) == pytest.approx(
            float(np.prod(lam)), rel=1e-10
        )

    @pytest.mark.parametrize("p", [1.7, 3.0])
    def test_secular_residual(self, p, rng):
        n = 5
        spec = PBallSpec(p, rng.uniform(0.5, 2.0, size=n))
        pt = _random_boundary_point(spec, rng)
        ax = np.abs(pt.coords)
        apow = spec.weights**p
        w = apow * ax ** (p - 2.0)
        c = (apow * ax ** (p - 1.0)) ** 2
        s = math.sqrt(float(np.sum(c)))
        d = (p - 1.0) * w
        for lam in principal_curvatures(pt):
            mu = lam * s
            resid = sum(
                c[i] * np.prod(np.delete(d, i) - mu) for i in range(n)
            )
            scale = sum(
                c[i] * np.prod(np.abs(np.delete(d, i)) + abs(mu))
                for i in range(n)
            )
            assert abs(resid) <= 1e-9 * scale

    @pytest.mark.parametrize("p, v, weights", [
        (50.0, [0.5, 1.0], None),
        (400.0, [0.01, 0.02, 0.03], None),
        (1.5, [0.3, -1.2, 0.7, 2.0], (1.0, 2.0, 0.5, 1.5)),
        (3.0, [0.3, -1.2, 0.7, 2.0], (1.0, 2.0, 0.5, 1.5)),
    ])
    def test_roots_accurate_relative_to_their_size(self, p, v, weights):
        # a root next to a small pole once carried an absolute error of
        # 4 ulp of the largest pole: 25% at p = 50, and a product 1e55
        # times the Gauss curvature at p = 400
        spec = (PBallSpec(p, weights) if weights
                else PBallSpec.unit(p, len(v)))
        pt = boundary_point(spec, v)
        k = principal_curvatures(pt)
        assert float(np.prod(k)) == pytest.approx(gauss_curvature(pt),
                                                  rel=1e-12, abs=0.0)
        assert float(k.sum()) == pytest.approx(sigma_curvatures(pt, 2),
                                               rel=1e-12, abs=0.0)

    def test_repeated_directions(self, rng):
        # equal weights and mirrored coordinates force d multiplicities
        spec = PBallSpec(3.0, (1.0, 1.0, 2.0, 2.0))
        x = np.array([0.4, -0.4, 0.15, 0.15])
        pt = boundary_point(spec, x)
        lam = principal_curvatures(pt)
        assert lam.shape == (3,)
        assert np.all(np.diff(lam) >= 0.0)
        es = elementary_symmetric(lam)
        for m in range(1, 5):
            assert sigma_curvatures(pt, m) == pytest.approx(
                float(es[m - 1]), rel=1e-8
            )

    def test_interlacing(self, rng):
        # each bisected root lies inside a gap of the d/S ladder
        p = 2.6
        spec = PBallSpec(p, (1.0, 0.7, 1.9))
        pt = _random_boundary_point(spec, rng)
        ax = np.abs(pt.coords)
        w = spec.weights**p * ax ** (p - 2.0)
        c = (spec.weights**p * ax ** (p - 1.0)) ** 2
        s = math.sqrt(float(np.sum(c)))
        ladder = np.sort((p - 1.0) * w) / s
        lam = principal_curvatures(pt)
        assert np.all(lam >= ladder[0] - 1e-12)
        assert np.all(lam <= ladder[-1] + 1e-12)


class TestScalingCovariance:
    def test_curvatures_scale_inversely(self, rng):
        # shrinking the weights by c dilates the body by c, so every
        # curvature scales by 1/c and sigma_(m-1) by c^(1-m)
        p, n, c = 2.5, 4, 3.0
        weights = rng.uniform(0.5, 2.0, size=n)
        pt = _random_boundary_point(PBallSpec(p, weights), rng)
        big = BoundaryPoint(PBallSpec(p, weights / c), c * pt.coords)
        np.testing.assert_allclose(
            principal_curvatures(big), principal_curvatures(pt) / c,
            rtol=1e-10,
        )
        for m in range(1, n + 1):
            assert sigma_curvatures(big, m) == pytest.approx(
                sigma_curvatures(pt, m) / c ** (m - 1), rel=1e-10
            )
        assert gauss_curvature(big) == pytest.approx(
            gauss_curvature(pt) / c ** (n - 1), rel=1e-10
        )


class TestGaussMapAndSupport:
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_round_trip(self, p, rng):
        spec = PBallSpec(p, (1.0, 2.0, 0.7))
        pt = _random_boundary_point(spec, rng)
        u = gauss_map(pt)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        back = inverse_gauss_map(spec, u)
        np.testing.assert_allclose(back.coords, pt.coords, atol=1e-10)

    def test_support_attained_at_preimage(self, rng):
        spec = PBallSpec(3.0, (1.0, 0.5, 2.0))
        pt = _random_boundary_point(spec, rng)
        u = gauss_map(pt)
        # <x, nu(x)> equals the support value h(nu(x))
        assert float(pt.coords @ u) == pytest.approx(
            support_function(spec, u), rel=1e-12
        )

    def test_support_dominates_inner_products(self, rng):
        spec = PBallSpec(2.5, (1.0, 1.5))
        u = rng.normal(size=2)
        h = support_function(spec, u)
        for _ in range(50):
            pt = _random_boundary_point(spec, rng)
            assert float(pt.coords @ u) <= h + 1e-12

    def test_round_ball_support_is_euclidean(self):
        spec = PBallSpec.unit(2.0, 3)
        u = np.array([1.0, -2.0, 2.0])
        assert support_function(spec, u) == pytest.approx(3.0, rel=1e-14)

    def test_homogeneity(self):
        spec = PBallSpec(1.8, (1.0, 3.0))
        u = np.array([0.3, -0.9])
        assert support_function(spec, 5.0 * u) == pytest.approx(
            5.0 * support_function(spec, u), rel=1e-13
        )

    def test_validation(self):
        spec = PBallSpec.unit(2.0, 2)
        with pytest.raises(DomainError):
            support_function(spec, [0.0, 0.0])
        with pytest.raises(DomainError):
            support_function(spec, [1.0])
        with pytest.raises(DomainError):
            inverse_gauss_map(spec, [1.0, 1.0])
        with pytest.raises(DomainError):
            inverse_gauss_map(spec, [np.nan, 0.0])

    @pytest.mark.parametrize("p, weights", [
        (1.0001, (1e-3, 1.0)),     # a_1^(-q) and h^(q-1) overflow
        (1.1, (1e-30, 1.0)),       # a_1^(-q) overflows, x = (1e30, 1.8e-299)
    ])
    def test_preimage_near_p_one(self, p, weights):
        spec = PBallSpec(p, weights)
        pt = inverse_gauss_map(spec, (0.6, 0.8))
        assert float(spec.gauge(pt.coords)) == pytest.approx(1.0, abs=1e-12)
        assert pt.coords[0] == pytest.approx(1.0 / weights[0], rel=1e-12)
        if pt.coords[1] > 0.0:
            np.testing.assert_allclose(gauss_map(pt), (0.6, 0.8), rtol=1e-12)


class TestDensityRecoversIntrinsicVolumes:
    """In the plane, integrating the codimension-m density over arclength
    must return V_(2-m); parametrizing by the normal angle turns ds into
    (1/Gauss curvature) d phi."""

    @staticmethod
    def _arclength_integral(spec, m):
        def f(phi):
            pt = inverse_gauss_map(spec, (math.cos(phi), math.sin(phi)))
            return curvature_density(pt, m) / gauss_curvature(pt)

        return sum(
            quad(f, 0.5 * k * math.pi, 0.5 * (k + 1) * math.pi,
                 epsabs=1e-12, epsrel=1e-12, limit=200)[0]
            for k in range(4)
        )

    def test_ellipse_half_perimeter(self):
        spec = PBallSpec(2.0, (1.0, 2.0))
        assert self._arclength_integral(spec, 1) == pytest.approx(
            2.0 * ellipe(0.75), rel=1e-9
        )

    def test_ellipse_euler(self):
        spec = PBallSpec(2.0, (1.0, 2.0))
        assert self._arclength_integral(spec, 2) == pytest.approx(
            1.0, rel=1e-9
        )

    def test_cubic_body(self, cfg):
        spec = PBallSpec(3.0, (1.0, 2.0))
        v1 = intrinsic_volume_weighted(spec, 1, cfg).value.value
        assert self._arclength_integral(spec, 1) == pytest.approx(
            v1, rel=1e-6
        )
        assert self._arclength_integral(spec, 2) == pytest.approx(
            1.0, rel=1e-9
        )


class TestArgumentChecks:
    def test_order_range(self, rng):
        pt = _random_boundary_point(PBallSpec.unit(2.0, 3), rng)
        for m in (0, 4):
            with pytest.raises(DomainError):
                sigma_curvatures(pt, m)
            with pytest.raises(DomainError):
                curvature_density(pt, m)


def _max_scaled_norm(z, p):
    """(sum z_i^p)^(1/p) of z >= 0 in Python floats, as m (sum (z_i/m)^p)^(1/p)
    with m = max z."""
    top = max(z)
    return top * math.fsum((v / top) ** p for v in z) ** (1.0 / p)


class TestLargeExponent:
    """At large p the plain sum sum |a_i v_i|^p over- or underflows, and so
    do the powers of the small coordinates in the curvature data."""

    @pytest.mark.parametrize("p", [1.001, 400.0, 1000.0])
    @pytest.mark.parametrize("v", [[3.0, 1.0], [0.1, 0.05],
                                   [0.01, -0.02, 0.03], [2.0, 1e-3, -5.0]])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_lift_and_support_match_the_closed_form(self, p, v, weighted):
        a = 1.0 + 0.5 * np.arange(len(v)) if weighted else np.ones(len(v))
        spec = PBallSpec(p, a)
        z = np.abs(v) * a
        pt = boundary_point(spec, v)
        np.testing.assert_allclose(
            pt.coords, np.array(v) / _max_scaled_norm(z, p), rtol=1e-14,
            atol=0.0)
        q = p / (p - 1.0)
        assert support_function(spec, v) == pytest.approx(
            _max_scaled_norm(np.abs(v) / a, q), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p, v, m", [(1000.0, [3.0, 1.0], 1),
                                         (400.0, [0.01, 0.02, 0.03], 2)])
    def test_curvatures_stay_finite(self, p, v, m):
        # c_i and w_i of the small coordinates underflow to 0; the closed
        # forms, taken here in logs, round to what the functions return
        pt = boundary_point(PBallSpec.unit(p, len(v)), v)
        n = len(v)
        log_x = np.log(np.abs(pt.coords))
        log_c = 2.0 * (p - 1.0) * log_x
        log_w = (p - 2.0) * log_x
        log_s = 0.5 * logsumexp(log_c)
        assert gauss_curvature(pt) == pytest.approx(math.exp(
            (n - 1) * math.log(p - 1.0) + log_w.sum() - (n + 1) * log_s),
            rel=1e-12, abs=0.0)
        # sum_i c_i e_(m-1)(w without i), with e_0 = 1 and e_1 a sum
        terms = [log_c[i] + (0.0 if m == 1 else
                             logsumexp(np.delete(log_w, i)))
                 for i in range(n)]
        sigma = sigma_curvatures(pt, m)
        assert sigma == pytest.approx(math.exp(
            (m - 1) * math.log(p - 1.0) - (m + 1) * log_s
            + logsumexp(terms)), rel=1e-12, abs=0.0)
        assert curvature_density(pt, m) == sigma / (m * kappa(m))
        k = principal_curvatures(pt)
        assert k.shape == (n - 1,) and np.all(np.isfinite(k))
        assert np.all(k >= 0.0) and np.all(np.diff(k) >= 0.0)
        assert k.sum() == pytest.approx(sigma_curvatures(pt, 2), rel=1e-12,
                                        abs=0.0)

    def test_curvature_beyond_the_double_range_is_degenerate(self):
        # near the axes at p near 1 the w_i grow like |x_i|^(p-2)
        pt = boundary_point(PBallSpec.unit(1.01, 3), [1.0, 1e-300, 1e-300])
        with pytest.raises(DegenerateInput, match="double range"):
            gauss_curvature(pt)
        with pytest.raises(DegenerateInput, match="double range"):
            sigma_curvatures(pt, 3)
