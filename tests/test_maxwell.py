"""Tests for the coordinate limit laws, finite-n moment tables and the
skeleton samplers.

For p = 2 every curvature measure of the round ball is proportional to
surface measure, so scaled moments are exactly at their limits for every
n; these cases pin the machinery to machine precision, while general p
is checked through quadrature cross-checks, continuity across regimes
and distributional distance of the samplers.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from lpvol import maxwell
from lpvol.errors import DomainError
from lpvol.maxwell import (
    EmpiricalSample,
    LimitLaw,
    convergence_table,
    finite_n_moment_ratio,
    kolmogorov_distance,
    lambda0,
    limit_density,
    limit_moment,
    nu_1_cdf,
    nu_inf_cdf,
    sample_crosspolytope_skeleton,
    sample_cube_skeleton,
)
from lpvol.specfun import QuadConfig


class TestLambda0:
    def test_round_ball_value(self):
        assert lambda0(2.0) == pytest.approx(1.0, rel=1e-14)

    def test_closed_form(self):
        for p in (1.5, 3.0, 5.0):
            base = p * math.gamma((2.0 * p - 1.0) / (2.0 * p - 2.0))
            expected = (base / math.sqrt(math.pi)) ** (2.0 * (p - 1.0) / p)
            assert lambda0(p) == pytest.approx(expected, rel=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            lambda0(1.0)

    def test_near_one_is_finite(self):
        # Gamma((2p-1)/(2p-2)) alone is beyond the double range here,
        # while lambda0 tends to 1/(2e(p-1)) as p -> 1
        assert lambda0(1.001) == pytest.approx(500.0 / math.e, rel=0.01)


class TestLimitLawConstruction:
    def test_bulk_factory(self):
        law = LimitLaw.bulk(2.5, 0.4)
        assert law.regime == "bulk"
        assert law.scale == pytest.approx((2.5 / 0.4) ** 0.4, rel=1e-14)
        assert law.phase_point.residual <= 1e-10

    def test_edge_scales(self):
        assert LimitLaw.left_edge(3.0).scale == pytest.approx(3.0 ** (1 / 3))
        assert LimitLaw.right_edge(3.0).scale == pytest.approx(3.0 ** (1 / 3))

    def test_validation(self):
        with pytest.raises(DomainError):
            LimitLaw("middle", 2.0)
        with pytest.raises(DomainError):
            LimitLaw("bulk", 2.0, alpha=1.5)
        with pytest.raises(DomainError):
            LimitLaw("bulk", 2.0, alpha=0.5)


class TestDensities:
    def test_round_ball_bulk_is_gaussian(self):
        # for p = 2 the bulk law collapses to N(0, alpha/2)
        alpha = 0.37
        law = LimitLaw.bulk(2.0, alpha)
        assert law.phase_point.theta_star == pytest.approx(
            (1.0 - alpha) / alpha, rel=1e-10
        )
        u = np.linspace(-3.0, 3.0, 61)
        expected = np.exp(-u * u / alpha) / math.sqrt(math.pi * alpha)
        np.testing.assert_allclose(limit_density(law, u), expected, rtol=1e-9)

    def test_round_ball_left_equals_right(self):
        left = LimitLaw.left_edge(2.0)
        right = LimitLaw.right_edge(2.0)
        u = np.linspace(-2.5, 2.5, 41)
        np.testing.assert_allclose(
            limit_density(left, u), limit_density(right, u), rtol=1e-13
        )
        for lam in (0.0, 1.0, 2.0, 4.0):
            assert limit_moment(left, lam) == pytest.approx(
                limit_moment(right, lam), rel=1e-13
            )

    def test_scalar_and_symmetry(self):
        law = LimitLaw.right_edge(3.0)
        v = limit_density(law, 0.7)
        assert isinstance(v, float)
        assert v == limit_density(law, -0.7)

    def test_singularity_reported_at_zero(self):
        # p < 2 carries an integrable |u|^(p-2) factor
        assert limit_density(LimitLaw.left_edge(1.5), 0.0) == np.inf
        assert np.isfinite(limit_density(LimitLaw.right_edge(1.5), 0.0))

    # lam = 0 checks each law's mass against QUADPACK, over criterion
    # 11's p and alpha grid and both edges at the same p
    @pytest.mark.parametrize("make", [
        lambda: LimitLaw.bulk(1.5, 0.3),
        lambda: LimitLaw.bulk(3.0, 0.7),
        lambda: LimitLaw.left_edge(2.5),
        lambda: LimitLaw.right_edge(1.3),
        *(lambda p=p, a=a: LimitLaw.bulk(p, a)
          for p in (1.5, 2.0, 3.0) for a in (0.1, 0.5, 0.9)),
        *(lambda p=p: LimitLaw.left_edge(p) for p in (1.5, 2.0, 3.0)),
        *(lambda p=p: LimitLaw.right_edge(p) for p in (1.5, 2.0, 3.0)),
    ])
    def test_moments_match_quadrature(self, make):
        law = make()
        for lam in (0.0, 1.0, 2.0, 3.5):
            direct, _ = quad(
                lambda u: 2.0 * u**lam * limit_density(law, u),
                0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400,
            )
            assert limit_moment(law, lam) == pytest.approx(direct, rel=1e-8)

    def test_zeroth_moment_is_one(self):
        for law in (LimitLaw.bulk(2.2, 0.6), LimitLaw.left_edge(1.7),
                    LimitLaw.right_edge(4.0)):
            assert limit_moment(law, 0.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("p, alpha", [(1.2, 0.7), (1.5, 0.3)])
    def test_zeroth_moment_uses_the_law_config(self, p, alpha):
        # the moment's F-table and its normalisers are one row, so their
        # ratio is not off 1 by the quadrature error
        cfg = QuadConfig(rel_tol=1e-6)
        law = LimitLaw.bulk(p, alpha, cfg)
        assert abs(limit_moment(law, 0.0, cfg) - 1.0) <= 1e-15

    @pytest.mark.parametrize("p, alpha", [(1.2, 0.05), (1.5, 0.3),
                                          (3.0, 0.5), (4.0, 0.9)])
    def test_zeroth_moment_is_exactly_one_for_any_config(self, p, alpha,
                                                         cfg, loose_cfg):
        law = LimitLaw.bulk(p, alpha, cfg)
        for moment_cfg in (cfg, loose_cfg, QuadConfig(rel_tol=1e-6)):
            assert limit_moment(law, 0.0, moment_cfg) == 1.0

    def test_bulk_law_reads_its_phase_point(self, cfg, monkeypatch):
        # once theta* is solved, the law and its density ask the F-table
        # for nothing: I(theta*) and J(theta*) come with the phase point
        from lpvol import asymptotics, maxwell
        pp = asymptotics.phase_maximizer(2.5, 0.4, cfg)

        def no_table(*args):
            raise AssertionError("unexpected F-table call")

        monkeypatch.setattr(asymptotics, "f_family_log_table", no_table)
        monkeypatch.setattr(maxwell, "f_family_log_table", no_table)
        law = LimitLaw.bulk(2.5, 0.4, cfg)
        assert law.phase_point is pp
        u = np.array([0.0, 0.5, 2.0])
        t = pp.theta_star
        base = np.exp(-u ** 2.5 - t * u ** 3.0)
        want = (0.4 * math.exp(-pp.log_i) * base
                + 0.6 * math.exp(-pp.log_j) * u ** 0.5 * base)
        assert limit_density(law, u) == pytest.approx(want, rel=1e-14)

    def test_moment_validation(self):
        with pytest.raises(DomainError):
            limit_moment(LimitLaw.right_edge(2.0), -1.0)


class TestRegimeContinuity:
    """The bulk law must reach the edge laws continuously in alpha; the
    checks are tolerance plus trend based, since the approach is linear
    in the vanishing parameter."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_scaled_moment_continuity_toward_right_edge(self, p):
        right = LimitLaw.right_edge(p)
        ref = right.scale**2 * limit_moment(right, 2.0)
        gaps = {}
        for a in (0.99, 0.999):
            law = LimitLaw.bulk(p, a)
            gaps[a] = abs(law.scale**2 * limit_moment(law, 2.0) / ref - 1.0)
        assert gaps[0.99] <= 0.02
        assert gaps[0.999] <= 0.2 * gaps[0.99] + 1e-12

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_scaled_moment_continuity_toward_left_edge(self, p):
        left = LimitLaw.left_edge(p)
        ref = left.scale**2 * limit_moment(left, 2.0)
        gaps = {}
        for a in (0.01, 0.001):
            law = LimitLaw.bulk(p, a)
            gaps[a] = abs(law.scale**2 * limit_moment(law, 2.0) / ref - 1.0)
        assert gaps[0.01] <= 0.02
        assert gaps[0.001] <= 0.2 * gaps[0.01] + 1e-12

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_density_continuity_toward_right_edge(self, p):
        # compare away from zero, where p < 2 laws have their singularity
        u = np.concatenate(
            [np.linspace(-1.2, -0.05, 100), np.linspace(0.05, 1.2, 100)]
        )
        right = limit_density(LimitLaw.right_edge(p), u)
        devs = {
            a: float(np.max(np.abs(
                limit_density(LimitLaw.bulk(p, a), u) - right)))
            for a in (0.99, 0.999)
        }
        assert devs[0.99] <= 0.05
        assert devs[0.999] < devs[0.99]

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_density_continuity_toward_left_edge(self, p):
        # the rescaled bulk density a^(1/p) f(a^(1/p) u) approaches the
        # left-edge law
        u = np.array([0.5, 1.0, 1.5])
        ref = limit_density(LimitLaw.left_edge(p), u)
        devs = {}
        for a in (1e-2, 1e-3):
            law = LimitLaw.bulk(p, a)
            resc = a ** (1.0 / p) * limit_density(law, a ** (1.0 / p) * u)
            devs[a] = float(np.max(np.abs(resc / ref - 1.0)))
        if p == 2.0:
            # I = J and theta* = (1 - alpha)/alpha: the rescaled bulk
            # density is the left-edge law at every alpha, so both
            # deviations are rounding and have no order
            assert max(devs.values()) <= 1e-14
        else:
            assert devs[1e-3] <= 0.02
            assert devs[1e-3] < devs[1e-2]


class TestFiniteNMomentRatio:
    def test_round_ball_second_moment_exact(self, loose_cfg):
        # every curvature measure of the ball is rotation invariant, so
        # E X_1^2 = 1/n at each codimension
        for n in (6, 11):
            for j in (0, n // 2, n - 1):
                ratio = finite_n_moment_ratio(2.0, n, j, (2.0,), loose_cfg)
                assert ratio == pytest.approx(1.0 / n, rel=5e-8)

    def test_scaled_flag(self, loose_cfg):
        raw = finite_n_moment_ratio(2.0, 8, 4, (2.0,), loose_cfg)
        scaled = finite_n_moment_ratio(
            2.0, 8, 4, (2.0,), loose_cfg, scaled=True
        )
        assert scaled == pytest.approx(raw * 8.0, rel=1e-12)

    def test_validation(self, loose_cfg):
        with pytest.raises(DomainError):
            finite_n_moment_ratio(2.0, 5, 5, (2.0,), loose_cfg)

    def test_top_measure_accepts_exponent_below_one_minus_p(self):
        # j = n - 1 is codimension 1, where any lambda > -1 converges,
        # also lambda <= 1 - p
        ratio = finite_n_moment_ratio(1.5, 10, 9, (-0.7,))
        assert math.isfinite(ratio) and ratio > 0.0


class TestConvergenceTables:
    def test_round_ball_gaps_vanish(self, loose_cfg):
        # exact-at-every-n cases: scaled second moments sit on the limit
        rows = convergence_table(
            2.0, "bulk", [2.0], [10, 30], alpha=0.5, cfg=loose_cfg
        )
        assert all(r.rel_gap <= 1e-9 for r in rows)
        rows = convergence_table(
            2.0, "right", [2.0], [10, 30], m=1, cfg=loose_cfg
        )
        assert all(r.rel_gap <= 1e-9 for r in rows)

    def test_round_ball_fourth_moment_gap_law(self, loose_cfg):
        # surface measure on the sphere has E X_1^4 = 3/(n(n+2)), so the
        # relative gap to the limit 3 is exactly 2/(n+2)
        rows = convergence_table(
            2.0, "right", [4.0], [20, 50, 100], m=1, cfg=loose_cfg
        )
        for row in rows:
            assert row.limit == pytest.approx(3.0, rel=1e-12)
            assert row.rel_gap == pytest.approx(2.0 / (row.n + 2.0), rel=1e-9)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_left_edge_gap_shrinks(self, p, loose_cfg):
        rows = convergence_table(
            2.0 if p is None else p, "left", [2.0], [8, 16, 32],
            j=1, cfg=loose_cfg,
        )
        gaps = [r.rel_gap for r in rows]
        assert all(b < a + 1e-9 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.1

    @pytest.mark.parametrize("regime, kw", [
        ("right", {"m": 1}), ("left", {"j": 1}), ("bulk", {"alpha": 0.5}),
    ])
    def test_est_rel_error_bounds_round_ball_error(self, regime, kw):
        # at p = 2 every normalized curvature measure is uniform on the
        # sphere: E|X_1|^lam = G(n/2) G((lam+1)/2) / (sqrt(pi) G((n+lam)/2)),
        # times n^(lam/2) when scaled
        for lam in (2.0, 3.0):
            rows = convergence_table(2.0, regime, [lam], [10, 30, 64], **kw)
            for row in rows:
                n = row.n
                log_exact = (math.lgamma(n / 2.0)
                             + math.lgamma((lam + 1.0) / 2.0)
                             - 0.5 * math.log(math.pi)
                             - math.lgamma((n + lam) / 2.0)
                             + 0.5 * lam * math.log(n))
                actual = abs(row.scaled_moment / math.exp(log_exact) - 1.0)
                assert 0.0 < row.est_rel_error <= 1e-6
                assert row.est_rel_error >= actual, (regime, lam, n)
            # each row reports its own estimate, not a placeholder
            assert len({row.est_rel_error for row in rows}) == len(rows)

    def test_validation(self, loose_cfg):
        with pytest.raises(DomainError):
            convergence_table(2.0, "bulk", [2.0], [10], cfg=loose_cfg)
        with pytest.raises(DomainError):
            convergence_table(2.0, "left", [2.0], [10], cfg=loose_cfg)
        with pytest.raises(DomainError):
            convergence_table(2.0, "right", [2.0], [10], cfg=loose_cfg)
        with pytest.raises(DomainError):
            convergence_table(2.0, "edge", [2.0], [10], m=1, cfg=loose_cfg)


    @pytest.mark.parametrize("regime, kw, ns, message", [
        ("left", {"j": 30}, [2000, 20], "outside 0..19 at n=20"),
        ("right", {"m": 30}, [40, 20], "outside 0..19 at n=20"),
        ("bulk", {"alpha": 0.01}, [40, 20], "outside 1..39 at n=40"),
        ("bulk", {"alpha": 0.5}, [64, 1], "n >= 2"),
    ])
    def test_rows_checked_before_anything_is_computed(
            self, monkeypatch, regime, kw, ns, message):
        # neither the limit (nor its phase point) nor any row is computed
        # when one row's face index is out of range
        computed = []

        def record(*args, **kwargs):
            computed.append(args)

        for name in ("_moment_ratio_log", "limit_moment", "phase_maximizer"):
            monkeypatch.setattr(maxwell, name, record)
        with pytest.raises(DomainError, match=message):
            convergence_table(3.0, regime, [2.0], ns, **kw)
        assert computed == []

    def test_bulk_without_alpha_is_refused_with_no_rows(self):
        # no row asks face_index for alpha, but the bulk law needs it
        with pytest.raises(DomainError, match="got None"):
            convergence_table(3.0, "bulk", [2.0], [])


class TestDoubleRange:
    """Moments of high order overflow a double: each is checked in log
    form first and raises a DomainError naming lambda (and n)."""

    @pytest.mark.parametrize("law, lam", [
        (LimitLaw.right_edge(3.0), 1000.0),
        (LimitLaw.left_edge(3.0), 1000.0),
        (LimitLaw.left_edge(2.0), 700.0),
    ])
    def test_limit_moment_raises(self, law, lam):
        with pytest.raises(DomainError, match=f"E\\|xi\\|\\^{lam:g}"):
            limit_moment(law, lam)

    def test_finite_n_ratio_raises(self):
        # the unscaled value e^-82.6 is in range, the scaled e^1304 is not
        assert finite_n_moment_ratio(3.0, 64, 61, (1000.0,)) > 0.0
        with pytest.raises(DomainError, match="lambda=.*1000.* n=64"):
            finite_n_moment_ratio(3.0, 64, 61, (1000.0,), scaled=True)

    @pytest.mark.parametrize("regime, kw, lam", [
        ("right", {"m": 3}, 1000.0), ("left", {"j": 2}, 1000.0),
        ("right", {"m": 3}, 500.0),
    ])
    def test_convergence_table_raises(self, regime, kw, lam):
        # at lambda = 500 the moment e^684.7 is in range, the limit with
        # its scale^lambda e^183.1 is not
        with pytest.raises(DomainError, match=f"{lam:g}"):
            convergence_table(3.0, regime, [lam], [64], **kw)

    def test_rows_in_range_are_finite(self):
        rows = convergence_table(3.0, "right", [400.0], [64, 256], m=3)
        for row in rows:
            assert all(math.isfinite(v) for v in row)


class TestCubeSkeletonSampler:
    def test_deterministic(self):
        a = sample_cube_skeleton(6, 3, 1000, seed=42)
        b = sample_cube_skeleton(6, 3, 1000, seed=42)
        assert np.array_equal(a.draws, b.draws)
        assert a.source == "cube-skeleton n=6 j=3"
        c = sample_cube_skeleton(6, 3, 1000, seed=43)
        assert not np.array_equal(a.draws, c.draws)

    def test_extra_coordinates_consistent(self):
        # r picks output columns without touching the stream
        one = sample_cube_skeleton(6, 3, 500, seed=9, r=1)
        two = sample_cube_skeleton(6, 3, 500, seed=9, r=2)
        assert np.array_equal(one.draws[:, 0], two.draws[:, 0])
        assert two.draws.shape == (500, 2)

    def test_draws_live_on_skeleton(self):
        s = sample_cube_skeleton(5, 2, 2000, seed=1, r=5)
        assert np.all(np.abs(s.draws) <= 1.0)
        # exactly n - j coordinates pinned at +-1 in every draw
        pinned = np.sum(np.abs(s.draws) == 1.0, axis=1)
        assert np.all(pinned == 3)

    def test_full_skeleton_is_uniform(self):
        s = sample_cube_skeleton(4, 4, 100000, seed=2)
        x = s.draws[:, 0]
        n = x.size
        assert abs(x.mean()) <= 3.0 / math.sqrt(3.0 * n)
        assert abs((x * x).mean() - 1.0 / 3.0) <= 3.0 * math.sqrt(
            4.0 / 45.0 / n
        )

    def test_vertices_are_signs(self):
        s = sample_cube_skeleton(3, 0, 5000, seed=3)
        assert set(np.unique(s.draws)) == {-1.0, 1.0}

    def test_marginal_matches_mixture_law(self):
        # the first coordinate is exactly nu_(inf, j/n): uniform with
        # probability j/n, a symmetric sign otherwise
        s = sample_cube_skeleton(10, 4, 40000, seed=5)
        dist = kolmogorov_distance(
            s.draws[:, 0],
            lambda x: nu_inf_cdf(x, 0.4),
            atoms=((-1.0, 0.3), (1.0, 0.3)),
        )
        assert dist <= 0.02

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_cube_skeleton(4, 5, 100, seed=0)
        with pytest.raises(DomainError):
            sample_cube_skeleton(4, 2, 0, seed=0)
        with pytest.raises(DomainError):
            sample_cube_skeleton(4, 2, 100, seed=0, r=5)


class TestCrosspolytopeSkeletonSampler:
    def test_deterministic(self):
        a = sample_crosspolytope_skeleton(8, 3, 1000, seed=4)
        b = sample_crosspolytope_skeleton(8, 3, 1000, seed=4)
        assert np.array_equal(a.draws, b.draws)

    def test_draws_live_on_skeleton(self):
        s = sample_crosspolytope_skeleton(6, 2, 2000, seed=1, r=6)
        # support size j + 1 and coordinates summing to n in size
        support = np.sum(s.draws != 0.0, axis=1)
        assert np.all(support == 3)
        np.testing.assert_allclose(
            np.sum(np.abs(s.draws), axis=1), 6.0, rtol=1e-12
        )

    def test_planar_edge_is_uniform(self):
        # n = 2, j = 1: the boundary of the scaled rhombus projects to
        # an exactly uniform first coordinate on [-2, 2]
        s = sample_crosspolytope_skeleton(2, 1, 30000, seed=5)
        dist = kolmogorov_distance(
            s.draws[:, 0], lambda x: np.clip((x + 2.0) / 4.0, 0.0, 1.0)
        )
        assert dist <= 0.02

    def test_marginal_approaches_mixture_law(self):
        # half-fraction skeleton in high dimension against nu_(1, 1/2)
        s = sample_crosspolytope_skeleton(200, 100, 30000, seed=5)
        dist = kolmogorov_distance(
            s.draws[:, 0], lambda x: nu_1_cdf(x, 0.5), atoms=((0.0, 0.5),)
        )
        assert dist <= 0.02

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_crosspolytope_skeleton(4, 4, 100, seed=0)
        with pytest.raises(DomainError):
            sample_crosspolytope_skeleton(4, 1, 100, seed=0, r=0)


class TestEmpiricalSample:
    def test_read_only_and_count(self):
        s = sample_cube_skeleton(3, 1, 50, seed=0)
        assert s.count == 50
        with pytest.raises(ValueError):
            s.draws[0, 0] = 2.0

    def test_validation(self):
        with pytest.raises(DomainError):
            EmpiricalSample(np.zeros(5), seed=0, source="flat")


class TestKolmogorovDistance:
    def test_exact_grid(self):
        # empirical midpoints of the uniform law sit within 1/(2N)
        n = 1000
        v = (np.arange(n) + 0.5) / n
        d = kolmogorov_distance(v, lambda x: np.clip(x, 0.0, 1.0))
        assert d == pytest.approx(0.5 / n, abs=1e-12)

    def test_detects_mismatch(self):
        v = np.linspace(0.0, 1.0, 500)
        d = kolmogorov_distance(v, lambda x: np.clip(x / 2.0, 0.0, 1.0))
        assert d >= 0.45

    def test_atom_bookkeeping(self):
        # two-thirds of the data on an atom of mass one: the deficit is
        # seen from the right, the left limit is clean
        v = np.array([0.0, 0.0, 1.0])
        d = kolmogorov_distance(
            v, lambda x: (np.asarray(x) >= 0.0).astype(float),
            atoms=((0.0, 1.0),),
        )
        assert d == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            kolmogorov_distance([], lambda x: x)


class TestMixtureCdfs:
    def test_cube_law_values(self):
        assert nu_inf_cdf(-1.5, 0.4) == 0.0
        assert nu_inf_cdf(-1.0, 0.4) == pytest.approx(0.3)
        assert nu_inf_cdf(0.0, 0.4) == pytest.approx(0.5)
        assert nu_inf_cdf(1.0, 0.4) == pytest.approx(1.0)
        assert nu_inf_cdf(math.inf, 0.4) == 1.0

    def test_crosspolytope_law_values(self):
        # mass 1 - alpha at zero plus a rate-alpha Laplace
        a = 0.5
        assert nu_1_cdf(-math.inf, a) == 0.0
        assert nu_1_cdf(0.0, a) == pytest.approx(1.0 - a + 0.5 * a)
        assert nu_1_cdf(math.inf, a) == 1.0
        # Laplace tail: 1 - F(x) = (a/2) exp(-a x) for x > 0
        assert 1.0 - nu_1_cdf(3.0, a) == pytest.approx(
            0.5 * a * math.exp(-a * 3.0), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            nu_inf_cdf(0.0, 1.5)
        with pytest.raises(DomainError):
            nu_1_cdf(0.0, 0.0)
