"""Acceptance gate: twelve checks covering the whole package.

Each test prints exactly one PASS/FAIL line (run with -s to stream
them).  Tolerances are the contract for this library; where a check is
trend or tolerance based rather than exact, the test name says so.
Monotone-gap checks carry a 1e-9 noise floor because the p = 2 body is
the round ball, whose gaps are identically zero up to quadrature noise.

Criterion 11 has two tests: the trend of the limit-law gaps for n up to
64, and the exact p = 2 moments for n up to 8192.

Criterion 3 measures the cube and crosspolytope limits on the p ladders
64, 128, 256 and 1.02, 1.01, 1.005: the closed-form volume alone puts
p = 1.05 51% away from the crosspolytope at n = 6, so proximity is
asked where the geometry gives it.  Its docstring carries the evidence.
"""

import math
import time

import numpy as np
import pytest

from lpvol.asymptotics import (
    bulk_asymptotic,
    exp_profile,
    left_edge_asymptotic,
    phase_maximizer,
    profile_references,
    right_edge_asymptotic,
)
from lpvol.curvature import (
    boundary_point,
    curvature_density,
    gauss_curvature,
    inverse_gauss_map,
    principal_curvatures,
    sigma_curvatures,
)
from lpvol.exactvol import (
    MomentRequest,
    PBallSpec,
    intrinsic_volume,
    intrinsic_volume_weighted,
    mixed_moment,
    steiner_polynomial,
    surface_moment,
)
from lpvol.maxwell import (
    convergence_table,
    finite_n_moment_ratio,
    kolmogorov_distance,
    nu_1_cdf,
    nu_inf_cdf,
    sample_crosspolytope_skeleton,
    sample_cube_skeleton,
)
from lpvol.oracles import (
    McConfig,
    ball_vj,
    crosspolytope_vj,
    cube_vj,
    ellipsoid_vj,
    steiner_mc_volume,
)
from lpvol.specfun import (
    DEFAULT_CONFIG,
    f_family,
    f_family_large_t,
    ijkl,
)
from lpvol.symfun import elementary_symmetric

SEED = 20240817


def _report(num, label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {label} "
          f"({detail})")
    assert ok, f"criterion {num}: {label} ({detail})"


def test_criterion_01_round_ball_closed_form(cfg):
    worst = 0.0
    for n in range(2, 11):
        spec = PBallSpec.unit(2.0, n)
        for j in range(n + 1):
            got = intrinsic_volume(spec, j, cfg).value.value
            ref = ball_vj(n, j)
            worst = max(worst, abs(got - ref) / ref)
    _report(1, "p=2 intrinsic volumes vs closed form, n <= 10",
            worst <= 1e-8, f"worst rel dev {worst:.2e}")


def test_criterion_02_weighted_ellipsoid_forms(cfg):
    spec = PBallSpec(2.0, (1.0, 2.0, 4.0))
    semiaxes = [1.0, 0.5, 0.25]
    worst_vs, worst_ab = 0.0, 0.0
    for j in (1, 2):
        got = intrinsic_volume_weighted(spec, j, cfg).value.value
        va = ellipsoid_vj(semiaxes, j, cfg, form="A")
        vb = ellipsoid_vj(semiaxes, j, cfg, form="B")
        worst_vs = max(worst_vs, abs(got - va) / va, abs(got - vb) / vb)
        worst_ab = max(worst_ab, abs(va - vb) / va)
    _report(2, "weighted p=2 volumes vs both ellipsoid forms",
            worst_vs <= 1e-7 and worst_ab <= 1e-8,
            f"vs forms {worst_vs:.2e}, forms apart {worst_ab:.2e}")


def test_criterion_03_polytope_limit_continuity(loose_cfg):
    """The cube (p -> inf) and the crosspolytope (p -> 1) as limits.

    Over n = 2..6 and every j, the worst relative gap to the cube is
    taken on the ladder p = 64, 128, 256 and the worst gap to the
    crosspolytope on p = 1.02, 1.01, 1.005.  The last rung must lie
    within 2% (cube) and 5% (crosspolytope); each gap must be 0.40-0.60
    of the one before, the first-order rate at which it halves as p
    (or p - 1) halves; and every V_j with j >= 1 must lie below the cube
    value and above the crosspolytope value.

    The rungs are where the geometry allows those limits.  At j = n no
    quadrature is involved: the closed-form volume
    (2 Gamma(1+1/p))^n / Gamma(1+n/p) is 51.0% above 2^n/n! at p = 1.05
    and n = 6, 5.3% at p = 1.006 and 4.4% at p = 1.005.  The worst cube
    gap is 5.6% at p = 64 (n = 6, j = 4), 2.8% at p = 128 and 1.4% at
    p = 256.
    """
    start = time.perf_counter()
    dims = [(n, j) for n in range(2, 7) for j in range(n + 1)]

    def ladder(ps, ref, above):
        gaps, nested = [], True
        for p in ps:
            gap = 0.0
            for n, j in dims:
                got = intrinsic_volume(PBallSpec.unit(p, n), j,
                                       loose_cfg).value.value
                gap = max(gap, abs(got - ref[n, j]) / ref[n, j])
                if j >= 1:
                    nested &= got > ref[n, j] if above else got < ref[n, j]
            gaps.append(gap)
        return gaps, nested

    cube_gaps, cube_below = ladder(
        (64.0, 128.0, 256.0), {(n, j): cube_vj(n, j) for n, j in dims},
        above=False)
    cross_gaps, cross_above = ladder(
        (1.02, 1.01, 1.005),
        {(n, j): crosspolytope_vj(n, j, loose_cfg) for n, j in dims},
        above=True)
    ratios = [b / a for gaps in (cube_gaps, cross_gaps)
              for a, b in zip(gaps, gaps[1:])]
    elapsed = time.perf_counter() - start
    _report(3, "p=256 within 2% of cube, p=1.005 within 5% of "
            "crosspolytope, gaps halving, nested",
            cube_gaps[-1] <= 0.02 and cross_gaps[-1] <= 0.05
            and all(0.40 <= r <= 0.60 for r in ratios)
            and cube_below and cross_above and elapsed < 60.0,
            "cube gaps " + ", ".join(f"{g:.4f}" for g in cube_gaps)
            + "; crosspolytope gaps "
            + ", ".join(f"{g:.4f}" for g in cross_gaps)
            + "; ratios " + ", ".join(f"{r:.3f}" for r in ratios)
            + f"; nested {cube_below and cross_above}; {elapsed:.1f}s")


def test_criterion_04_steiner_monte_carlo(cfg):
    mc = McConfig(sample_count=1_000_000, seed=SEED)
    worst_z = 0.0
    for p in (1.5, 3.0):
        for n in (2, 3):
            spec = PBallSpec.unit(p, n)
            for t in (0.1, 0.5, 1.0):
                ref = steiner_polynomial(spec, t, cfg)
                est, se = steiner_mc_volume(spec, t, mc)
                worst_z = max(worst_z, abs(est - ref) / se)
    _report(4, "Monte Carlo parallel volumes vs Steiner polynomial",
            worst_z <= 3.0, f"worst |z| {worst_z:.2f} at 1e6 draws")


def test_criterion_05_phase_solver(cfg):
    worst_closed = 0.0
    for beta in np.arange(0.1, 0.95, 0.1):
        pt = phase_maximizer(2.0, float(beta), cfg)
        ref = (1.0 - beta) / beta
        worst_closed = max(worst_closed, abs(pt.theta_star - ref) / ref)
    worst_resid = 0.0
    for p in (1.2, 1.5, 3.0, 5.0):
        for beta in (0.2, 0.5, 0.8):
            worst_resid = max(worst_resid,
                              phase_maximizer(p, beta, cfg).residual)
    _report(5, "phase maximizer closed form and stationarity residual",
            worst_closed <= 1e-10 and worst_resid <= 1e-10,
            f"closed-form dev {worst_closed:.2e}, residual "
            f"{worst_resid:.2e}")


def test_criterion_06_bulk_asymptotic_error_trend(loose_cfg):
    # trend-based: the Laplace error has no pinned constant, only the
    # 10% ceiling at n = 40 and decay across n
    ok, details = True, []
    for p in (1.5, 2.0, 3.0):
        errs = []
        for n in (20, 40, 80):
            j = n // 2
            exact = intrinsic_volume(PBallSpec.unit(p, n), j,
                                     loose_cfg).value.log_abs
            asym = bulk_asymptotic(p, n, j, loose_cfg).log_abs
            errs.append(abs(math.exp(exact - asym) - 1.0))
        ok = ok and errs[1] <= 0.10 and errs[0] > errs[1] > errs[2]
        details.append(f"p={p}: " + "->".join(f"{e:.4f}" for e in errs))
    _report(6, "bulk growth-law error <= 10% and shrinking with n",
            ok, "; ".join(details))


def test_criterion_07_edge_asymptotics_within_tolerance(loose_cfg):
    # tolerance-based: fixed-percentage ceilings, not exact limits
    details = []
    ok = True
    for p in (1.5, 3.0):
        exact = intrinsic_volume(PBallSpec.unit(p, 500), 1,
                                 loose_cfg).value.value
        ratio = left_edge_asymptotic(p, 500, 1).value / exact
        ok = ok and abs(ratio - 1.0) <= 0.05
        details.append(f"left p={p} {abs(ratio - 1.0):.4f}")
    for p in (1.5, 2.0, 3.0):
        for m in (1, 2):
            exact = intrinsic_volume(PBallSpec.unit(p, 60), 60 - m,
                                     loose_cfg).value.log_abs
            asym = right_edge_asymptotic(p, 60, m).log_abs
            err = abs(math.exp(exact - asym) - 1.0)
            ok = ok and err <= 0.10
            details.append(f"right p={p} m={m} {err:.4f}")
    # round-ball cases against the exact closed forms
    sphere_left = abs(left_edge_asymptotic(2.0, 500, 1).value
                      / math.sqrt(2.0 * math.pi * 500.0) - 1.0)
    sphere_right = abs(math.exp(right_edge_asymptotic(2.0, 60, 1).log_abs)
                       / ball_vj(60, 59) - 1.0)
    ok = ok and sphere_left <= 1e-12 and sphere_right <= 0.05
    details.append(f"sphere closed forms {sphere_left:.1e}/"
                   f"{sphere_right:.4f}")
    _report(7, "edge growth laws within stated percentage ceilings",
            ok, "; ".join(details))


def test_criterion_08_exponential_profile(cfg):
    worst_grid = 0.0
    for k in range(21):
        alpha = min(1.0, 0.05 * k)
        got = exp_profile(2.0, alpha, cfg).g_value
        worst_grid = max(worst_grid,
                         abs(got - profile_references(alpha).g_2))
    concave_ok = True
    for p in (1.5, 2.0, 3.0):
        vals = np.array([exp_profile(p, min(1.0, 0.05 * k), cfg).g_value
                         for k in range(21)])
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        concave_ok = concave_ok and bool(np.all(second <= 1e-6))
    worst_end = 0.0
    for p in (1.5, 2.0, 3.0):
        ref = math.log(2.0 * math.gamma(1.0 + 1.0 / p)) \
            + (1.0 + math.log(p)) / p
        worst_end = max(worst_end,
                        abs(exp_profile(p, 1.0, cfg).g_value - ref))
    _report(8, "profile matches g_2, is concave, has exact endpoint",
            worst_grid <= 1e-8 and concave_ok and worst_end <= 1e-10,
            f"grid dev {worst_grid:.2e}, endpoint dev {worst_end:.2e}, "
            f"concave {concave_ok}")


def test_criterion_09_curvature_suite(cfg, rng):
    worst_sphere = 0.0
    for n in (3, 5, 8):
        pt = boundary_point(PBallSpec.unit(2.0, n), rng.normal(size=n))
        worst_sphere = max(worst_sphere, float(np.max(np.abs(
            principal_curvatures(pt) - 1.0))))
    worst_vieta = 0.0
    for p in (1.3, 2.0, 3.5):
        for n in (2, 4, 6):
            weights = rng.uniform(0.5, 2.0, size=n)
            x = rng.normal(size=n)
            x[np.abs(x) < 1e-3] = 1e-3
            pt = boundary_point(PBallSpec(p, weights), x)
            es = elementary_symmetric(principal_curvatures(pt))
            for m in range(1, n + 1):
                sig = sigma_curvatures(pt, m)
                worst_vieta = max(worst_vieta,
                                  abs(sig - float(es[m - 1]))
                                  / max(1.0, abs(sig)))
    from scipy.integrate import quad

    def arc_integral(spec, m):
        def f(phi):
            pt = inverse_gauss_map(spec, (math.cos(phi), math.sin(phi)))
            return curvature_density(pt, m) / gauss_curvature(pt)
        return sum(quad(f, 0.5 * k * math.pi, 0.5 * (k + 1) * math.pi,
                        epsabs=1e-12, epsrel=1e-12, limit=200)[0]
                   for k in range(4))

    worst_arc = 0.0
    for p in (2.0, 3.0):
        spec = PBallSpec(p, (1.0, 2.0))
        for m in (1, 2):
            ref = (1.0 if m == 2 else
                   intrinsic_volume_weighted(spec, 1, cfg).value.value)
            worst_arc = max(worst_arc, abs(arc_integral(spec, m) - ref)
                            / ref)
    _report(9, "curvatures: sphere, Vieta cross-check, arclength recovery",
            worst_sphere <= 1e-10 and worst_vieta <= 1e-8
            and worst_arc <= 1e-6,
            f"sphere {worst_sphere:.2e}, vieta {worst_vieta:.2e}, "
            f"arclength {worst_arc:.2e}")


def test_criterion_10_mixed_moment_identities(cfg):
    spec3 = PBallSpec.unit(2.0, 3)
    got = mixed_moment(spec3, MomentRequest(1, (2.0, 0.0, 0.0)),
                       cfg).value.value
    dev_a = abs(got / (2.0 * math.pi / 3.0) - 1.0)
    # rotation invariance: E X_1^2 = V_(n-m) / n at every codimension
    dev_b = 0.0
    n = 5
    spec5 = PBallSpec.unit(2.0, n)
    for m in (1, 2, 3):
        got = mixed_moment(spec5, MomentRequest(m, (2.0,) + (0.0,) * (n - 1)),
                           cfg).value.value
        ref = ball_vj(n, n - m) / n
        dev_b = max(dev_b, abs(got / ref - 1.0))
    dev_surf = abs(surface_moment(spec3, (), cfg).value.value
                   / (4.0 * math.pi) - 1.0)
    # moments over the top-index measure: n E X_1^2 = 1 on the sphere
    dev_c = 0.0
    for n in (5, 9):
        ratio = finite_n_moment_ratio(2.0, n, n - 1, (2.0,), cfg).value.value
        dev_c = max(dev_c, abs(n * ratio - 1.0))
    # lambda = 0 reduction to the plain intrinsic volume
    dev_zero = 0.0
    for p in (2.0, 3.0):
        for m in (1, 2):
            spec = PBallSpec.unit(p, 4)
            got = mixed_moment(spec, MomentRequest(m, (0.0,) * 4),
                               cfg).value.value
            ref = intrinsic_volume(spec, 4 - m, cfg).value.value
            dev_zero = max(dev_zero, abs(got / ref - 1.0))
    _report(10, "mixed-moment sphere symmetry and lambda=0 reduction",
            max(dev_a, dev_b, dev_surf, dev_c) <= 1e-8
            and dev_zero <= 1e-9,
            f"sphere {max(dev_a, dev_b, dev_surf, dev_c):.2e}, "
            f"lambda=0 {dev_zero:.2e}")


def test_criterion_11_maxwell_convergence_trend_and_ks(cfg):
    # trend-based: the limit statement carries no rate, so gaps must shrink
    # (with a 1e-9 floor: the p = 2 gaps are identically zero and only
    # quadrature noise remains)
    ok, details = True, []
    regimes = (("bulk", {"alpha": 0.5}), ("left", {"j": 1}),
               ("right", {"m": 1}))
    for p in (1.5, 2.0, 3.0):
        for regime, kw in regimes:
            rows = convergence_table(p, regime, [2.0], [8, 16, 32, 64],
                                     cfg=cfg, **kw)
            gaps = [r.rel_gap for r in rows]
            mono = all(b < a + 1e-9 for a, b in zip(gaps, gaps[1:]))
            ok = ok and mono
            if not mono:
                details.append(f"p={p} {regime}: " +
                               "->".join(f"{g:.1e}" for g in gaps))
    row100 = convergence_table(2.0, "right", [2.0], [100], m=1, cfg=cfg)[0]
    ok = ok and row100.rel_gap < 1e-2
    details.append(f"p=2 right gap at n=100: {row100.rel_gap:.1e}")
    cube = sample_cube_skeleton(10, 4, 100_000, seed=SEED)
    d_cube = kolmogorov_distance(
        cube.draws[:, 0], lambda x: nu_inf_cdf(x, 0.4),
        atoms=((-1.0, 0.3), (1.0, 0.3)))
    cross = sample_crosspolytope_skeleton(200, 100, 100_000, seed=SEED)
    d_cross = kolmogorov_distance(
        cross.draws[:, 0], lambda x: nu_1_cdf(x, 0.5),
        atoms=((0.0, 0.5),))
    ok = ok and d_cube <= 0.02 and d_cross <= 0.02
    details.append(f"KS cube {d_cube:.4f}, crosspolytope {d_cross:.4f}")
    _report(11, "limit-law gaps shrink with n; samplers pass KS <= 0.02",
            ok, "; ".join(details))


def test_criterion_11_sphere_moments_exact_up_to_n_8192(cfg):
    # exact, not trend-based: at p = 2 the j-face measure is uniform on the
    # sphere, so n E|X_1|^2 = n G(n/2) G(3/2) / (sqrt(pi) G(n/2 + 1)) = 1
    # for every j; each row must meet it within its own error estimate,
    # in all three regimes and at n in the thousands
    ns = [64 * 2 ** k for k in range(8)]
    worst, misses = 0.0, []
    for regime, kw in (("bulk", {"alpha": 0.5}), ("left", {"j": 2}),
                       ("right", {"m": 3})):
        for row in convergence_table(2.0, regime, [2.0], ns, cfg=cfg, **kw):
            dev = abs(row.scaled_moment - 1.0)
            worst = max(worst, dev / row.est_rel_error)
            if not dev <= row.est_rel_error:
                misses.append(f"{regime} n={row.n}: {dev:.1e} > "
                              f"{row.est_rel_error:.1e}")
    _report(11, "p=2 scaled moments exact to n=8192 within est_rel_error",
            not misses, "; ".join(misses) or
            f"worst deviation {worst:.2f} of its error")


def test_criterion_12_identity_suite():
    worst_jkl = 0.0
    for p in (1.2, 1.5, 2.0, 3.0, 5.0):
        for t in (0.01, 0.1, 1.0, 10.0, 100.0):
            v = ijkl(p, t)
            lhs = (p - 1.0) * v.j
            rhs = p * v.k + 2.0 * (p - 1.0) * t * v.l
            worst_jkl = max(worst_jkl, abs(lhs / rhs - 1.0))
    jkl_ok = worst_jkl <= 10.0 * DEFAULT_CONFIG.rel_tol
    worst_deriv = 0.0
    for p in (1.5, 2.0, 3.0):
        for t in (0.1, 1.0, 10.0):
            h = 1e-5 * max(t, 1.0)
            fd = (f_family(p, t + h, 0.0) - f_family(p, t - h, 0.0)) \
                / (2.0 * h)
            ref = -f_family(p, t, 2.0 * p - 2.0)
            worst_deriv = max(worst_deriv, abs(fd / ref - 1.0))
    deriv_ok = worst_deriv <= 1e-6
    slope_ok = True
    slopes = []
    for p, ts in ((1.5, (1e2, 1e3, 1e4)), (3.0, (1e3, 1e5, 1e7))):
        asym = f_family_large_t(p, 0.0)
        ts = np.array(ts)
        errs = np.array([abs(asym.two_term(t) / f_family(p, t, 0.0) - 1.0)
                         for t in ts])
        slope = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])
        target = -2.0 * p / (2.0 * p - 2.0)
        slopes.append(f"p={p}: {slope:.3f} vs {target:.3f}")
        slope_ok = slope_ok and abs(slope - target) <= 0.15 * abs(target)
    _report(12, "JKL identity, derivative identity, large-t decay rate",
            jkl_ok and deriv_ok and slope_ok,
            f"jkl {worst_jkl:.2e}, deriv {worst_deriv:.2e}, "
            + "; ".join(slopes))
