"""Tests for the reference oracles: closed-form bodies, projection, Monte Carlo.

The oracles are the independent side of the cross-validation story, so they are
tested against hand-derived constants and brute-force enumeration only, never
against the quadrature pipeline they are meant to check.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ellipe

from lpvol import oracles
from lpvol.cli import _STEINER_N2, _STEINER_N3
from lpvol.errors import DomainError
from lpvol.exactvol import PBallSpec, steiner_polynomial
from lpvol.oracles import (
    McConfig,
    ball_vj,
    crosspolytope_vj,
    cube_vj,
    ellipsoid_vj,
    project_lp_ball,
    steiner_mc_volume,
)
from lpvol.rng import batches, stream
from lpvol.symfun import elementary_symmetric

from .reference import ball_volume

# (body, t) of the four `validate steiner-n2 steiner-n3` checks
_VALIDATE_BODIES = [(spec, t) for _, spec, t, _ in _STEINER_N2 + _STEINER_N3]
_VALIDATE_IDS = [f"p{spec.p:g}-n{spec.n}-t{t:g}"
                 for spec, t in _VALIDATE_BODIES]


class TestBallOracle:
    def test_closed_form(self):
        # V_j(B_2^n) = C(n, j) kappa_n / kappa_{n-j}
        for n in range(1, 8):
            for j in range(n + 1):
                expected = (
                    math.comb(n, j) * ball_volume(n) / ball_volume(n - j)
                )
                assert ball_vj(n, j) == pytest.approx(expected, rel=1e-13)

    def test_endpoints(self):
        assert ball_vj(4, 0) == 1.0
        assert ball_vj(3, 3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
        # mean width of the unit ball is 2, so V_1 = n kappa_n / kappa_{n-1}
        assert ball_vj(2, 1) == pytest.approx(math.pi, rel=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            ball_vj(3, 5)
        with pytest.raises(DomainError):
            ball_vj(0, 0)


class TestCubeOracle:
    def test_unit_half_sides(self):
        # [-1, 1]^n has V_j = C(n, j) 2^j
        for n in range(1, 7):
            for j in range(n + 1):
                assert cube_vj(n, j) == pytest.approx(
                    math.comb(n, j) * 2.0**j, rel=1e-14
                )

    def test_weighted_box(self):
        # box with half sides s has V_j = e_j(s) 2^j; brute-force e_j
        s = (0.5, 1.0, 2.0, 0.7)
        for j in range(5):
            ej = sum(
                math.prod(c) for c in itertools.combinations(s, j)
            )
            assert cube_vj(4, j, s) == pytest.approx(ej * 2.0**j, rel=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            cube_vj(3, -1)
        with pytest.raises(DomainError):
            cube_vj(3, 2, (1.0, -1.0, 1.0))
        with pytest.raises(DomainError):
            cube_vj(3, 2, (1.0, 1.0))


class TestCrosspolytopeOracle:
    def test_volume_and_euler(self):
        for n in range(1, 7):
            assert crosspolytope_vj(n, n) == pytest.approx(
                2.0**n / math.factorial(n), rel=1e-12
            )
            assert crosspolytope_vj(n, 0) == pytest.approx(1.0, rel=1e-12)

    def test_half_surface(self):
        # 2^n congruent simplex facets, each of area sqrt(n)/(n-1)!
        for n in (2, 3, 4, 5):
            expected = 2.0 ** (n - 1) * math.sqrt(n) / math.factorial(n - 1)
            assert crosspolytope_vj(n, n - 1) == pytest.approx(
                expected, rel=1e-12
            )

    def test_square_mean_width(self):
        # the planar crosspolytope is a square of diagonal 2
        assert crosspolytope_vj(2, 1) == pytest.approx(
            2.0 * math.sqrt(2.0), rel=1e-12
        )

    def test_weighted_rhombus(self):
        # gauge a1|x| + a2|y| <= 1 is a rhombus with vertices at 1/a_i
        a = (2.0, 1.0)
        v1 = crosspolytope_vj(2, 1, weights=a)
        assert v1 == pytest.approx(2.0 * math.hypot(0.5, 1.0), rel=1e-12)
        v2 = crosspolytope_vj(2, 2, weights=a)
        assert v2 == pytest.approx(2.0 / (a[0] * a[1]), rel=1e-12)

    def test_weighted_volume(self):
        a = (1.0, 2.0, 0.5, 3.0)
        assert crosspolytope_vj(4, 4, weights=a) == pytest.approx(
            2.0**4 / (math.factorial(4) * math.prod(a)), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            crosspolytope_vj(3, 2, weights=(1.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            crosspolytope_vj(3, 4)


class TestEllipsoidOracle:
    def test_forms_agree(self):
        semiaxes = (1.0, 2.0, 4.0)
        for j in (1, 2):
            va = ellipsoid_vj(semiaxes, j, form="A")
            vb = ellipsoid_vj(semiaxes, j, form="B")
            assert va == pytest.approx(vb, rel=1e-8)

    def test_unit_semiaxes_are_ball(self):
        # form A covers j <= n-1, form B covers j >= 1
        for n in (2, 3, 4):
            for j in range(n + 1):
                form = "A" if j < n else "B"
                assert ellipsoid_vj((1.0,) * n, j, form=form) == pytest.approx(
                    ball_vj(n, j), rel=1e-9
                )

    def test_ellipse_perimeter(self):
        # V_1 of the (1, 2) ellipse is half its perimeter, 4 E(3/4)
        assert ellipsoid_vj((1.0, 2.0), 1) == pytest.approx(
            4.0 * ellipe(0.75), rel=1e-9
        )

    def test_volume_and_euler(self):
        semiaxes = (0.5, 1.5, 2.5)
        assert ellipsoid_vj(semiaxes, 3, form="B") == pytest.approx(
            ball_volume(3) * math.prod(semiaxes), rel=1e-9
        )
        assert ellipsoid_vj(semiaxes, 0) == pytest.approx(1.0, rel=1e-12)

    def test_axis_permutation_invariance(self):
        a = (0.7, 1.3, 2.9)
        base = ellipsoid_vj(a, 2)
        for perm in itertools.permutations(a):
            assert ellipsoid_vj(perm, 2) == pytest.approx(base, rel=1e-10)

    def test_validation(self):
        with pytest.raises(DomainError):
            ellipsoid_vj((1.0, 2.0), 1, form="C")
        with pytest.raises(DomainError):
            ellipsoid_vj((1.0, -2.0), 1)
        with pytest.raises(DomainError):
            ellipsoid_vj((1.0, 2.0, 3.0), 3, form="A")
        with pytest.raises(DomainError):
            ellipsoid_vj((1.0, 2.0, 3.0), 0, form="B")


class TestElementarySymmetric:
    def test_against_enumeration(self, rng):
        # summation DP versus brute-force subset enumeration up to n = 12
        for n in (1, 3, 7, 12):
            vals = rng.uniform(0.1, 3.0, size=n)
            es = elementary_symmetric(vals)
            assert es.shape == (n + 1,)
            assert es[0] == 1.0
            for j in range(n + 1):
                brute = sum(
                    math.prod(c) for c in itertools.combinations(vals, j)
                )
                assert es[j] == pytest.approx(brute, rel=1e-12)

    def test_wide_dynamic_range(self):
        vals = np.array([1e-8, 1.0, 1e8, 3.0])
        es = elementary_symmetric(vals)
        for j in range(5):
            brute = sum(
                math.prod(c) for c in itertools.combinations(vals, j)
            )
            assert es[j] == pytest.approx(brute, rel=1e-12)


class TestProjection:
    def test_interior_point_fixed(self):
        spec = PBallSpec(1.5, (1.0, 2.0))
        x = np.array([0.1, 0.05])
        assert np.array_equal(project_lp_ball(spec, x), x)

    def test_round_ball_is_radial(self, rng):
        spec = PBallSpec.unit(2.0, 4)
        x = rng.normal(size=4) * 3.0
        y = project_lp_ball(spec, x)
        np.testing.assert_allclose(y, x / np.linalg.norm(x), rtol=1e-12)

    @pytest.mark.parametrize("p", [1.2, 2.0, 3.5])
    def test_boundary_residual(self, p, rng):
        spec = PBallSpec(p, (1.0, 0.5, 2.0))
        for _ in range(20):
            x = rng.normal(size=3) * 2.0
            if spec.gauge(x) <= 1.0:
                continue
            y = project_lp_ball(spec, x)
            assert abs(spec.gauge(y) - 1.0) <= 1e-10

    @pytest.mark.parametrize("p", [1.3, 2.0, 4.0])
    def test_kkt_alignment(self, p, rng):
        # at the projection, x - y is parallel to the outward gauge gradient
        spec = PBallSpec(p, (1.0, 2.0, 0.7))
        a = np.asarray(spec.weights)
        for _ in range(10):
            x = rng.normal(size=3) * 3.0
            if spec.gauge(x) <= 1.0 + 1e-9:
                continue
            y = project_lp_ball(spec, x)
            grad = a**p * np.abs(y) ** (p - 1.0) * np.sign(y)
            r = x - y
            cos = (r @ grad) / (np.linalg.norm(r) * np.linalg.norm(grad))
            assert cos == pytest.approx(1.0, abs=1e-8)

    def test_optimality_against_boundary_sweep(self):
        # brute-force check in the plane: no boundary point is closer
        spec = PBallSpec(3.0, (1.0, 2.0))
        x = np.array([1.7, -0.9])
        y = project_lp_ball(spec, x)
        best = np.linalg.norm(x - y)
        t = np.linspace(0.0, 2.0 * math.pi, 20001)
        u = np.column_stack([np.cos(t), np.sin(t)])
        scale = np.array([spec.gauge(row) for row in u])
        pts = u / scale[:, None]
        dists = np.linalg.norm(pts - x, axis=1)
        assert best <= dists.min() + 1e-8

    @pytest.mark.parametrize("p", [1.0005, 1.005, 64.0, 512.0])
    @pytest.mark.parametrize("weights", [(1.0, 1.0), (1e-3, 1e3)])
    def test_edge_inputs_land_on_boundary(self, p, weights):
        # zero and 1e-300 coordinates and points at norm 1e12, all outside
        # both bodies; any RuntimeWarning fails the test
        spec = PBallSpec(p, weights)
        for x in ([0.0, 3e3], [3e3, 0.0], [1e-300, 3e3], [-3e3, -1e-300],
                  [0.6e12, -0.8e12], [1e-300, 1e12], [2.0, 0.5]):
            x = np.array(x)
            y = project_lp_ball(spec, x)
            assert np.all(np.isfinite(y))
            assert abs(spec.gauge(y) - 1.0) <= 1e-10
            assert np.all(y * x >= 0.0) and np.all(y[x == 0.0] == 0.0)

    def test_large_p_no_overflow(self):
        # sum |a x|^2000 overflows unscaled; the body is nearly the cube,
        # and the projection clips the first coordinate to (almost) 1
        spec = PBallSpec(2000.0, (1.0, 1.0, 1.0))
        y = project_lp_ball(spec, [2.0, 0.5, 0.1])
        np.testing.assert_allclose(y, [1.0, 0.5, 0.1], rtol=1e-12)
        assert abs(spec.gauge(y) - 1.0) <= 1e-10

    def test_validation(self):
        spec = PBallSpec(2.0, (1.0, 1.0))
        with pytest.raises(DomainError):
            project_lp_ball(spec, [1.0, np.nan])
        with pytest.raises(DomainError):
            project_lp_ball(spec, [1.0, 2.0, 3.0])


def _reference_project_outside(spec, x):
    """The projection by nested fixed-step bisection: 54 sweeps per inner
    solve of y + c y^(p-1) = x on [0, x], inside a doubling walk and 64
    bisection steps on the multiplier mu over [0, mu_hi]."""
    p = spec.p
    apow = np.asarray(spec.weights) ** p

    def resid(mu):
        c = (p * mu)[:, None] * apow[None, :]
        if p == 2.0:
            y = x / (1.0 + c)
        else:
            lo, hi = np.zeros_like(x), x.copy()
            for _ in range(54):
                mid = 0.5 * (lo + hi)
                above = mid + c * mid ** (p - 1.0) > x
                hi = np.where(above, mid, hi)
                lo = np.where(above, lo, mid)
            y = 0.5 * (lo + hi)
        return np.sum((np.asarray(spec.weights) * y) ** p, axis=1) - 1.0, y

    mu_lo, mu_hi = np.zeros(len(x)), np.ones(len(x))
    while True:
        open_ = resid(mu_hi)[0] > 0.0
        if not open_.any():
            break
        mu_lo = np.where(open_, mu_hi, mu_lo)
        mu_hi = np.where(open_, 2.0 * mu_hi, mu_hi)
    for _ in range(64):
        mid = 0.5 * (mu_lo + mu_hi)
        pos = resid(mid)[0] > 0.0
        mu_lo = np.where(pos, mid, mu_lo)
        mu_hi = np.where(pos, mu_hi, mid)
    return resid(0.5 * (mu_lo + mu_hi))[1]


class TestProjectionAgainstReference:
    @pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 2.0, 3.0, 3.5, 8.0])
    def test_offset_hit_flags(self, p, monkeypatch):
        # seeded draws over each bounding box, as steiner_mc_volume makes
        # them, with the support-direction stage switched off so that
        # every draw outside B the cheap bounds leave open is projected;
        # a hit flag may differ only within 1e-10 of the boundary of the
        # parallel body
        project = oracles._project_outside
        projected = []

        def counting(spec, x):
            projected.append(len(x))
            return project(spec, x)

        def no_support(spec, x, gauge, t_miss, t_hit):
            return np.zeros(x.shape[1], bool), np.ones(x.shape[1], bool)

        monkeypatch.setattr(oracles, "_support_search", no_support)
        differing = 0
        for weights in ((1.0, 1.0), (1.0, 2.0), (1.0, 1.0, 1.0),
                        (1.0, 2.0, 0.5)):
            spec = PBallSpec(p, weights)
            for k, t in enumerate((0.3, 0.5, 1.0)):
                half = 1.0 / np.asarray(spec.weights) + t
                pts = (2.0 * stream(17, k).random((2_000, spec.n)) - 1.0
                       ) * half
                with monkeypatch.context() as m:
                    m.setattr(oracles, "_project_outside", counting)
                    got = oracles._offset_contains(spec, pts, t)
                with monkeypatch.context() as m:
                    m.setattr(oracles, "_project_outside",
                              _reference_project_outside)
                    want = oracles._offset_contains(spec, pts, t)
                off = np.abs(pts[got != want])
                if len(off):
                    near = _reference_project_outside(spec, off)
                    dist = np.linalg.norm(off - near, axis=1)
                    assert np.all(np.abs(dist - t) <= 1e-10)
                differing += len(off)
        assert sum(projected) > 0
        print(f"p={p}: {differing} of 24000 hit flags differ, "
              f"{sum(projected)} draws projected")


class TestClassifier:
    """The membership test of steiner_mc_volume: certified radii first,
    then gauge, support-plane bound and projection."""

    @pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 64.0])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_radii_bracket_boundary(self, p, n, weighted, rng):
        # boundary points u / gauge(u) in random, axis and diagonal
        # directions; with unit weights both radii are attained
        spec = PBallSpec(p, (1.0, 2.0, 0.5)[:n] if weighted else (1.0,) * n)
        r_in, r_out = oracles._radii(spec, 0.0)
        u = np.concatenate([rng.normal(size=(20_000, n)), np.eye(n),
                            np.ones((1, n))])
        y = u / oracles._pnorm(np.abs(u) * spec.weights, p)[:, None]
        norm = np.linalg.norm(y, axis=1)
        assert np.all((r_in <= norm) & (norm <= r_out))
        if not weighted:
            assert norm.min() <= r_in * (1.0 + 1e-13)
            assert norm.max() >= r_out * (1.0 - 1e-13)

    @pytest.mark.parametrize("p", [1.05, 1.5, 3.0, 8.0, 64.0])
    def test_flags_match_projection_only_route(self, p):
        # every draw outside B projected; a flag may differ only within
        # 1e-10 of the boundary of the parallel body
        for weights in ((1.0, 1.0), (1.0, 2.0, 0.5)):
            spec = PBallSpec(p, weights)
            for k, t in enumerate((0.0, 0.1, 1.0)):
                half = 1.0 / np.asarray(spec.weights) + t
                pts = (2.0 * stream(23, k).random((20_000, spec.n)) - 1.0
                       ) * half
                got = oracles._offset_contains(spec, pts, t)
                dist = np.linalg.norm(
                    pts - oracles._project_batch(spec, pts), axis=1)
                off = got != (dist <= t)
                assert np.all(np.abs(dist[off] - t) <= 1e-10)


    @pytest.mark.parametrize("weights, t, open_after_box, open_at_most", [
        ((1e-3, 1e3), 100.0, 0, 0),
        ((1e-2, 1.0, 1e2), 0.5, 6_697, 10),
    ])
    def test_reach_near_p_one(self, weights, t, open_after_box,
                              open_at_most, monkeypatch):
        # a needle and a slab at p = 1.0005, where 9,249 and 9,969 of
        # these draws reached the projection before the box and axis
        # segment bounds; counted once with the support-direction stage
        # switched off, then with it
        spec = PBallSpec(1.0005, weights)
        half = 1.0 / np.asarray(spec.weights) + t
        pts = (2.0 * stream(29, 0).random((10_000, spec.n)) - 1.0) * half
        project = oracles._project_outside
        projected = []

        def counting(spec, x):
            projected.append(len(x))
            return project(spec, x)

        def no_support(spec, x, gauge, t_miss, t_hit):
            return np.zeros(x.shape[1], bool), np.ones(x.shape[1], bool)

        with monkeypatch.context() as m:
            m.setattr(oracles, "_project_outside", counting)
            m.setattr(oracles, "_support_search", no_support)
            before = oracles._offset_contains(spec, pts, t)
            assert sum(projected) == open_after_box
            m.undo()
            m.setattr(oracles, "_project_outside", counting)
            projected.clear()
            got = oracles._offset_contains(spec, pts, t)
            assert sum(projected) <= open_at_most
        assert np.array_equal(got, before)
        dist = np.linalg.norm(pts - oracles._project_batch(spec, pts), axis=1)
        off = got != (dist <= t)
        assert np.all(np.abs(dist[off] - t) <= 1e-10)


class TestSteinerMonteCarlo:
    def test_deterministic_given_seed(self):
        spec = PBallSpec(3.0, (1.0, 1.0, 1.0))
        mc = McConfig(sample_count=20000, seed=7)
        assert steiner_mc_volume(spec, 0.5, mc) == steiner_mc_volume(
            spec, 0.5, mc
        )

    def test_seed_changes_draws(self):
        spec = PBallSpec(3.0, (1.0, 1.0, 1.0))
        a = steiner_mc_volume(spec, 0.5, McConfig(sample_count=20000, seed=7))
        b = steiner_mc_volume(spec, 0.5, McConfig(sample_count=20000, seed=8))
        assert a[0] != b[0]

    def test_disk_parallel_area(self):
        # area of the unit disk grown by t = 1 is 4 pi
        est, se = steiner_mc_volume(
            PBallSpec(2.0, (1.0, 1.0)), 1.0, McConfig(sample_count=200000, seed=11)
        )
        assert abs(est - 4.0 * math.pi) <= 3.0 * se

    def test_cubic_ball_parallel_volume(self, cfg):
        spec = PBallSpec(3.0, (1.0, 1.0, 1.0))
        exact = steiner_polynomial(spec, 0.5, cfg)
        est, se = steiner_mc_volume(
            spec, 0.5, McConfig(sample_count=200000, seed=11)
        )
        assert abs(est - exact) <= 3.0 * se

    def test_weighted_body_parallel_area(self, cfg):
        spec = PBallSpec(1.5, (1.0, 2.0))
        exact = steiner_polynomial(spec, 0.3, cfg)
        est, se = steiner_mc_volume(
            spec, 0.3, McConfig(sample_count=200000, seed=11)
        )
        assert abs(est - exact) <= 3.0 * se

    def test_standard_error_scaling(self):
        # quadrupling the sample count should halve the standard error
        disk = PBallSpec(2.0, (1.0, 1.0))
        _, se1 = steiner_mc_volume(disk, 1.0, McConfig(sample_count=50000, seed=3))
        _, se4 = steiner_mc_volume(disk, 1.0, McConfig(sample_count=200000, seed=3))
        assert 1.4 <= se1 / se4 <= 2.9

    def test_large_p_against_cube(self):
        # p = 2000 is within 1e-3 of the cube [-1, 1]^3, whose parallel
        # volume is sum_j kappa_(3-j) t^(3-j) V_j; no power may overflow
        t = 0.5
        est, se = steiner_mc_volume(
            PBallSpec.unit(2000.0, 3), t, McConfig(sample_count=20000, seed=5)
        )
        cube = sum(
            ball_volume(3 - j) * t ** (3 - j) * cube_vj(3, j) for j in range(4)
        )
        assert abs(est - cube) <= 3.0 * se + 1e-3 * cube

    def test_batches_split_the_count_over_fixed_substreams(self):
        split = list(batches(3, 10, 4))
        assert [k for _, k in split] == [4, 4, 2]
        for b, (gen, _) in enumerate(split):
            assert gen.random() == stream(3, b).random()

    @pytest.mark.parametrize("spec, t", _VALIDATE_BODIES, ids=_VALIDATE_IDS)
    def test_block_size_changes_nothing(self, spec, t, monkeypatch):
        mc = McConfig(sample_count=200_000, seed=11)
        runs = set()
        for block in (1_000, 8_192, oracles._BATCH):
            monkeypatch.setattr(oracles, "_BLOCK", block)
            runs.add(steiner_mc_volume(spec, t, mc))
        assert len(runs) == 1

    def test_blocks_are_the_batch_stream(self, monkeypatch):
        # 100,003 draws: a full batch and a short one, neither a multiple
        # of the block; the blocks of batch b, joined, are bit for bit
        # the one draw (2 U - 1) half from substream (seed, b)
        spec, t = _VALIDATE_BODIES[3]
        mc = McConfig(sample_count=100_003, seed=11)
        half = 1.0 / np.asarray(spec.weights) + t
        contains = oracles._offset_contains
        blocks = []

        def recording(spec, pts, t):
            blocks.append(pts.copy())
            return contains(spec, pts, t)

        runs = set()
        for block in (1_000, 8_192, oracles._BATCH):
            monkeypatch.setattr(oracles, "_BLOCK", block)
            monkeypatch.setattr(oracles, "_offset_contains", recording)
            blocks.clear()
            runs.add(steiner_mc_volume(spec, t, mc))
            drawn = np.concatenate(blocks)
            done = 0
            for gen, size in batches(mc.seed, mc.sample_count,
                                     oracles._BATCH):
                whole = (2.0 * gen.random((size, spec.n)) - 1.0) * half
                assert np.array_equal(drawn[done:done + size], whole)
                done += size
            assert done == len(drawn)
        assert len(runs) == 1

    @pytest.mark.parametrize("spec, t", _VALIDATE_BODIES, ids=_VALIDATE_IDS)
    def test_memory_bounded_by_block(self, spec, t):
        # 200,000 draws; whole batches of 65,536 rows peaked at 3.2-6.8 MB
        mc = McConfig(sample_count=200_000, seed=0)
        steiner_mc_volume(spec, t, mc)
        tracemalloc.start()
        try:
            steiner_mc_volume(spec, t, mc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_zero_growth_recovers_volume(self):
        disk = PBallSpec(2.0, (1.0, 1.0))
        est, se = steiner_mc_volume(disk, 0.0, McConfig(sample_count=100000, seed=2))
        assert abs(est - math.pi) <= 3.0 * se

    def test_validation(self):
        with pytest.raises(DomainError):
            McConfig(sample_count=100)
        for seed in (-1, 2 ** 64, 1.5):
            with pytest.raises(DomainError, match="seed"):
                McConfig(seed=seed)
        for seed, chunk in ((-1, 0), (0, -1)):
            with pytest.raises(DomainError, match="nonnegative"):
                stream(seed, chunk)
        with pytest.raises(DomainError):
            steiner_mc_volume(
                PBallSpec(2.0, (1.0, 1.0)), -0.5, McConfig(sample_count=20000)
            )
