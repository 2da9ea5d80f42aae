"""Special-function family: closed forms, identities, expansions."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from lpvol import asymptotics, specfun
from lpvol.asymptotics import exp_profile
from lpvol.errors import DomainError
from lpvol.exactvol import PBallSpec, intrinsic_volume
from lpvol.maxwell import LimitLaw, limit_moment
from lpvol.specfun import (_DEGREE, DEFAULT_CONFIG, IJKL, QuadConfig,
                           _direct_log_table, _interpolant,
                           _LogFInterpolant, _log_upper_limit, _tail_cutoff,
                           as_exponent, f_family, f_family_at_zero,
                           f_family_at_zero_log, f_family_large_t,
                           f_family_log, f_family_log_interp,
                           f_family_log_table, ijkl, kappa, log_choose,
                           log_gamma, log_kappa)

from .reference import (F3_AT_ZERO, HALF_PERIMETER_NEAR_ONE,
                        LOG_F_CALIBRATION, LOG_F_DIRECT, LOG_F_NEAR_ONE,
                        LOG_F_NU_NEAR_MINUS_ONE, f_ref)

P_GRID = (1.2, 1.5, 2.0, 3.0, 5.0)
T_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)


def direct_log(p, t, nu, cfg=DEFAULT_CONFIG) -> float:
    """log F_p(t; nu) from the direct table, the interpolant's node
    evaluator."""
    return float(_direct_log_table(p, np.array([float(t)]),
                                   np.array([float(nu)]), cfg)[0][0, 0])


@pytest.fixture()
def fresh_caches():
    """Empty the interpolant and phase-solve caches before and after the
    test, so that it sees every build its calls make and leaves none
    behind for the tests after it."""
    def clear():
        specfun._interpolant.cache_clear()
        asymptotics._solve_phase.cache_clear()

    clear()
    yield
    clear()


# the two evaluators of log F: the interpolant every caller reads (through
# f_family_log) and the direct table behind its nodes
LOG_F_EVALUATORS = (f_family_log, direct_log)


class TestExponent:
    def test_accepts_reals_above_one(self):
        assert as_exponent(1.5) == 1.5

    @pytest.mark.parametrize("bad", [1.0, 0.5, -2.0, math.nan, math.inf])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            as_exponent(bad)


class TestClosedForms:
    def test_value_at_zero(self):
        # F(0; nu) = (2/p) Gamma((nu+1)/p)
        for p in P_GRID:
            for nu in (0.0, 0.7, 2.0, p - 2.0):
                ref = 2.0 / p * math.gamma((nu + 1.0) / p)
                for log_f in LOG_F_EVALUATORS:
                    assert math.exp(log_f(p, 0.0, nu)) == pytest.approx(
                        ref, rel=1e-12)
                assert f_family_at_zero(p, nu) == pytest.approx(ref,
                                                               rel=1e-14)

    @pytest.mark.parametrize("p", [1.001, 1.005])
    def test_value_at_zero_near_one(self, p):
        # near p = 1 the nu < 0 head of the table spans y = log u down to
        # -21000 while its mass and the kernel's drop sit near the split
        # point: one GK15 panel read log F 1.15 low at p = 1.001,
        # nu = -0.5, and 4.4e-4 high at p = 1.005, nu = -0.999
        for nu in (-0.999, -0.5, p - 2.0):
            for log_f in LOG_F_EVALUATORS:
                assert log_f(p, 0.0, nu) == pytest.approx(
                    f_family_at_zero_log(p, nu), rel=1e-13, abs=1e-13)

    def test_frozen_cube_root_value(self):
        assert f_family(3.0, 0.0, 0.0) == pytest.approx(F3_AT_ZERO,
                                                        rel=1e-12)

    def test_gaussian_case(self):
        # p = 2: F(t; nu) = Gamma((nu+1)/2) (1+t)^(-(nu+1)/2)
        for t in T_GRID:
            for nu in (0.0, 1.0, 2.5):
                ref = math.gamma((nu + 1.0) / 2.0) * (1.0 + t) ** (
                    -(nu + 1.0) / 2.0)
                assert f_family(2.0, t, nu) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("p", [1.3, 1.5, 2.7])
    def test_against_quadpack(self, p):
        for t in (0.0, 0.3, 4.0):
            for nu in (p - 2.0, 0.0, 2.0 * p - 2.0):
                ref = f_ref(p, t, nu)
                for log_f in LOG_F_EVALUATORS:
                    assert math.exp(log_f(p, t, nu)) == pytest.approx(
                        ref, rel=1e-9)


class TestShapeAndMonotonicity:
    def test_positive_and_decreasing_in_t(self):
        ts = np.array([0.0, 0.05, 0.3, 1.0, 4.0, 20.0, 200.0])
        for p in P_GRID:
            for nu in (0.0, p - 2.0, 2.0 * p - 2.0):
                vals = np.array([f_family(p, t, nu) for t in ts])
                assert np.all(vals > 0.0)
                assert np.all(np.diff(vals) < 0.0)

    def test_log_table_matches_scalar(self):
        # shape and column order against the scalar reader, values against
        # the direct table within the interpolant's bound plus the direct
        # table's own error
        p = 1.7
        ts = [0.0, 0.2, 3.0]
        nus = [0.0, p - 2.0, 1.4]
        tab = f_family_log_table(p, ts, nus)
        assert tab.shape == (3, 3)
        _, bound = f_family_log_interp(p, ts, nus)
        ref, ref_err = _direct_log_table(p, np.array(ts), np.array(nus),
                                         DEFAULT_CONFIG)
        assert np.all(np.abs(tab - ref) <= bound + ref_err)
        for i, t in enumerate(ts):
            for k, nu in enumerate(nus):
                assert tab[i, k] == pytest.approx(f_family_log(p, t, nu),
                                                  rel=1e-12)

    def test_empty_nu_list(self):
        assert f_family_log_table(3.0, [0.5, 2.0], []).shape == (2, 0)
        vals, bound = f_family_log_interp(3.0, [0.5], [])
        assert vals.shape == (1, 0) and bound.shape == (0,)


class TestIdentities:
    def test_jkl_identity(self):
        # (p-1) J = p K + 2 (p-1) t L on the pinned grid
        for p in P_GRID:
            for t in T_GRID:
                v: IJKL = ijkl(p, t)
                lhs = (p - 1.0) * v.j
                rhs = p * v.k + 2.0 * (p - 1.0) * t * v.l
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_derivative_identity(self):
        # d/dt F(t; nu) = -F(t; nu + 2p - 2), central differences
        for p in (1.5, 2.0, 3.0):
            for t in (0.1, 1.0, 10.0):
                for nu in (0.0, p - 2.0):
                    h = 1e-5 * max(t, 1.0)
                    fd = (f_family(p, t + h, nu)
                          - f_family(p, t - h, nu)) / (2.0 * h)
                    ref = -f_family(p, t, nu + 2.0 * p - 2.0)
                    assert fd == pytest.approx(ref, rel=1e-6)

    def test_ijkl_members_are_f_values(self):
        p, t = 2.6, 0.8
        v = ijkl(p, t)
        assert v.i == pytest.approx(f_family(p, t, 0.0), rel=1e-12)
        assert v.j == pytest.approx(f_family(p, t, p - 2.0), rel=1e-12)
        assert v.k == pytest.approx(f_family(p, t, 2.0 * p - 2.0),
                                    rel=1e-12)
        assert v.l == pytest.approx(f_family(p, t, 3.0 * p - 4.0),
                                    rel=1e-12)


class TestLargeT:
    def test_two_term_expansion_accuracy(self):
        for p in (1.5, 2.0, 3.0):
            for nu in (0.0, p - 2.0):
                asym = f_family_large_t(p, nu)
                for t in (1e4, 1e6):
                    ref = f_family(p, t, nu)
                    assert asym.two_term(t) == pytest.approx(ref, rel=1e-3)

    def test_error_decay_exponent(self):
        # two-term relative error ~ t^(-2p/(2p-2)): slope within 15%;
        # the t windows keep the error well above the quadrature floor
        for p, ts in ((1.5, (1e2, 1e3, 1e4)), (3.0, (1e3, 1e5, 1e7))):
            asym = f_family_large_t(p, 0.0)
            ts = np.array(ts)
            errs = np.array([abs(asym.two_term(t) / f_family(p, t, 0.0)
                                 - 1.0) for t in ts])
            slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
            target = -2.0 * p / (2.0 * p - 2.0)
            assert abs(slope - target) <= 0.15 * abs(target)


class TestLargeTOverflow:
    @pytest.mark.parametrize("p, nu", [(1.1, 200.0), (1.001, 5.0)])
    def test_overflow_is_a_domain_error(self, p, nu):
        # Gamma(s)/(p-1) with s = (nu+1)/(2p-2) is beyond a double here
        with pytest.raises(DomainError, match=f"p={p:g}, nu={nu:g}"):
            f_family_large_t(p, nu)

    def test_in_range_values_unchanged(self):
        p, nu = 1.1, 20.0
        asym = f_family_large_t(p, nu)
        s, step = (nu + 1.0) / (2.0 * p - 2.0), p / (2.0 * p - 2.0)
        assert asym.gamma_factor == math.exp(math.lgamma(s)
                                             - math.log(p - 1.0))
        assert asym.correction_ratio == math.exp(math.lgamma(s + step)
                                                 - math.lgamma(s))


class TestOverflow:
    # log F(0; 2000) at p = 1.5 is lgamma(1334) + log(4/3), about 8250
    def test_f_family_is_a_domain_error(self):
        with pytest.raises(DomainError, match="double range"):
            f_family(1.5, 0.0, 2000.0)

    def test_f_family_at_zero_is_a_domain_error(self):
        with pytest.raises(DomainError, match="double range"):
            f_family_at_zero(1.5, 2000.0)


class TestLargeExponent:
    """Large p: the kernel drops from 1 to 0 within a few 1/p of u = 1.
    Up to kernel exponent 2p - 2 = 1024 the shared y = log u grid takes
    it; above, the log-u windows do."""

    @pytest.mark.parametrize("p", [400.0, 600.0, 1000.0, 1100.0, 2e4, 1e5])
    def test_values_at_zero_within_their_bounds(self, p):
        # a rule that missed that drop once read log F(0; p-2) at
        # p = 2e4 as -43.7 (exact -9.21) with a bound of 6.7
        nus = [0.0, p - 2.0, 2.0 * p - 2.0]
        vals, bounds = f_family_log_interp(p, [0.0], nus)
        for nu, val, bound in zip(nus, vals[0], bounds):
            assert bound < 1e-9
            assert abs(val - f_family_at_zero_log(p, nu)) <= bound

    def test_exponents_the_table_cannot_resolve_are_refused(self):
        with pytest.raises(DomainError, match="F-family table"):
            f_family_log_interp(2e5, [0.0], [0.0])


class TestNearOne:
    """p near 1: the rescaled z^p coefficient t^(-p/(2p-2)) is so small
    that the mass of the t >= 1 table sits many decades below its upper
    limit, and the nu < 0 head reaches down to u = e^(-21000)."""

    @pytest.mark.parametrize("p", [1.01, 1.005, 1.003])
    def test_log_f_against_frozen_reference(self, p):
        for (q, t, member), ref in LOG_F_NEAR_ONE.items():
            if q != p:
                continue
            nu = 0.0 if member == "0" else p - 2.0
            assert f_family_log(p, t, nu) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("p", sorted(HALF_PERIMETER_NEAR_ONE))
    def test_v1_is_half_the_perimeter(self, p, cfg):
        got = intrinsic_volume(PBallSpec.unit(p, 2), 1, cfg).value.value
        assert got == pytest.approx(HALF_PERIMETER_NEAR_ONE[p], rel=1e-10)


class TestNuNearMinusOne:
    """nu -> -1: almost all of F sits in the u^nu singularity at 0, where
    the head below y_a = log u is a closed form and the rest is
    integrated in y on the grid every column shares."""

    @pytest.mark.parametrize("nu", [-0.999, -0.9999, -0.99999])
    def test_log_f_against_frozen_reference(self, nu):
        for (p, t, q), ref in LOG_F_NU_NEAR_MINUS_ONE.items():
            if q == nu:
                for log_f in LOG_F_EVALUATORS:
                    assert log_f(p, t, nu) == pytest.approx(ref, abs=1e-12)


class TestLargeNu:
    """Large nu: u^nu = e^(nu y) overflows a double on the shared y grid
    once nu log u_hi passes about 709, so the part above the split goes
    to the log-u windows."""

    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0])
    @pytest.mark.parametrize("nu", [200.0, 700.0, 1000.0])
    def test_both_closed_forms(self, p, nu):
        # an overflow warning fails the test (pytest filterwarnings)
        t_big = 1e20
        vals, bound = f_family_log_interp(p, [0.0, 1e-8, 1.0, 1e10, t_big],
                                          [nu])
        assert np.isfinite(vals).all() and np.isfinite(bound).all()
        assert abs(vals[0, 0] - f_family_at_zero_log(p, nu)) <= bound[0]
        # the large-t asymptote in log form (its Gamma(s) overflows here),
        # with the first correction; the next is below 1e-25
        s = (nu + 1.0) / (2.0 * p - 2.0)
        step = p / (2.0 * p - 2.0)
        corr = math.exp(math.lgamma(s + step) - math.lgamma(s)
                        - step * math.log(t_big))
        asym = (math.lgamma(s) - math.log(p - 1.0) - s * math.log(t_big)
                + math.log1p(-corr))
        assert abs(vals[-1, 0] - asym) <= bound[0]

    @pytest.mark.parametrize("nu", [3000.0, 5000.0])
    def test_near_one(self, nu):
        # at p = 1.001 the log-u piece's log-integrand peaks at 2e4 to 1e7;
        # its drop from the peak must not carry the rounding of those
        vals, bound = f_family_log_interp(1.001, [0.0, 1.0, 1e10], [nu])
        assert np.isfinite(vals).all() and np.isfinite(bound).all()
        assert abs(vals[0, 0] - f_family_at_zero_log(1.001, nu)) <= bound[0]


class TestDirectTable:
    """_direct_log_table, the interpolant's node evaluator: its own bound
    must cover its error against mpmath."""

    @pytest.mark.parametrize("p", sorted({k[0] for k in LOG_F_DIRECT}))
    def test_bound_covers_mpmath_error(self, p):
        # nu in {0, 0.5, 3} at p = 2.5 and {0.5, 2} at p = 3, t from 0
        # to 1e8: both the t < 1 and the rescaled t >= 1 tables
        nus = sorted({k[1] for k in LOG_F_DIRECT if k[0] == p})
        ts = sorted({k[2] for k in LOG_F_DIRECT if k[0] == p})
        vals, bound = _direct_log_table(p, np.array(ts), np.array(nus),
                                        DEFAULT_CONFIG)
        want = np.array([[LOG_F_DIRECT[(p, nu, t)] for nu in nus]
                         for t in ts])
        err = np.abs(vals - want)
        assert np.all(err <= bound), (err, bound)
        assert np.all(bound < 1e-9)


class TestInterpolant:
    """f_family_log_interp, the piecewise Chebyshev interpolant in
    y = log1p(t) that the theta integrals read: its reported bound must
    cover the actual error in log F."""

    @pytest.mark.parametrize("ts, nus", [
        ([[0.0, 1.0]], [0.0]),
        ([1.0], [[0.0]]),
        ([-1e-3], [0.0]),
        ([math.inf], [0.0]),
        ([math.nan], [0.0]),
        ([1.0], [-1.0]),
        ([1.0], [math.nan]),
    ])
    def test_rejects_bad_arguments(self, ts, nus):
        with pytest.raises(DomainError):
            f_family_log_interp(2.5, ts, nus)

    @pytest.mark.parametrize("p", sorted({k[0] for k in LOG_F_CALIBRATION}))
    def test_bound_covers_mpmath_error(self, p):
        # p from 1.005 to 64, nu down to -0.999, t from 0 to 1e20
        members = {"-0.999": -0.999, "0": 0.0, "p-2": p - 2.0,
                   "2p-2": 2.0 * p - 2.0}
        labels = sorted({k[1] for k in LOG_F_CALIBRATION if k[0] == p})
        ts = sorted({k[2] for k in LOG_F_CALIBRATION if k[0] == p})
        vals, bound = f_family_log_interp(p, ts, [members[m]
                                                  for m in labels])
        want = np.array([[LOG_F_CALIBRATION[(p, m, t)] for m in labels]
                         for t in ts])
        err = np.abs(vals - want)
        assert np.all(err <= bound), (err.max(axis=0), bound)
        # a bound, not a placeholder: under 1e-9 in log F everywhere
        assert np.all(bound < 1e-9)

    @pytest.mark.parametrize("p", [1.005, 1.5, 3.0, 8.0, 64.0, 256.0])
    def test_matches_direct_table_between_nodes(self, p):
        rng = np.random.default_rng(int(p * 1000))
        ts = np.concatenate([[0.0], 10.0 ** rng.uniform(-8.0, 20.0, 200)])
        nus = [0.0, 2.0 * p - 2.0] + ([p - 2.0] if p > 1.5 else [-0.5])
        vals, bound = f_family_log_interp(p, ts, nus)
        ref, ref_err = _direct_log_table(p, ts, np.array(nus),
                                         DEFAULT_CONFIG)
        assert np.all(np.abs(vals - ref) <= bound + ref_err)

    def test_gaussian_case_to_rounding(self):
        # p = 2: g = log F + (nu+1)/2 log1p(t) is the constant
        # log Gamma((nu+1)/2), so interpolation adds nothing to the
        # rounding of the node values (the direct table is up to 18 eps
        # off the closed form on this grid)
        ts = np.array([0.0, 1e-6, 0.5, 1.0, 7.0, 1e3, 1e8, 1e20])
        nus = [0.0, 1.0, 2.5]
        vals, _ = f_family_log_interp(2.0, ts, nus)
        for c, nu in enumerate(nus):
            s = 0.5 * (nu + 1.0)
            want = math.lgamma(s) - s * np.log1p(ts)
            assert np.all(np.abs(vals[:, c] - want)
                          <= 1e-14 * np.maximum(1.0, np.abs(want)))

    def test_t_zero_alone_builds_the_first_panel(self):
        # a fresh interpolant asked for t = 0 alone (y = 0) must build its
        # first panel, not index an empty panel list
        p, nus = 3.0, np.array([0.0, 1.0])
        interp = _LogFInterpolant(p, nus, DEFAULT_CONFIG)
        vals = interp(np.array([0.0]))
        assert interp.panels[1][0] == 1.0
        for c, nu in enumerate(nus):
            assert abs(vals[0, c] - f_family_at_zero_log(p, nu)) \
                <= interp.error[c]

    def test_scalar_callers_read_panel_nodes_only(self, monkeypatch,
                                                  fresh_caches):
        # one evaluator: the phase solves of exp_profile and the
        # normalisers and moment of the bulk law read the interpolant, so
        # the direct table runs on one panel's Chebyshev nodes at a time
        rows = []

        def counted(p, ts, nus, cfg):
            rows.append(len(ts))
            return _direct_log_table(p, ts, nus, cfg)

        monkeypatch.setattr(specfun, "_direct_log_table", counted)
        cfg = DEFAULT_CONFIG
        for alpha in np.linspace(0.0, 1.0, 21):
            exp_profile(3.0, alpha, cfg)
        law = LimitLaw.bulk(1.5, 0.5, cfg)
        limit_moment(law, 2.0, cfg)
        assert rows and all(r == _DEGREE + 1 for r in rows)

    def test_extends_past_1e20_on_demand(self, fresh_caches):
        cfg = DEFAULT_CONFIG
        p, nus = 3.0, [0.0, 1.0, 4.0]
        f_family_log_interp(p, [0.5], nus, cfg)
        interp = _interpolant(p, (0.0, 1.0, 4.0), cfg)
        assert interp.panels[1][-1] == 1.0
        vals, bound = f_family_log_interp(p, [1e30], nus, cfg)
        assert interp.panels[1][-1] >= math.log1p(1e30)
        assert np.all(np.isfinite(vals)) and np.all(np.isfinite(bound))
        # the next term of the large-t expansion is t^-0.75 = 1e-22
        for c, nu in enumerate(nus):
            lead = math.log(f_family_large_t(p, nu).leading(1e30))
            assert abs(vals[0, c] - lead) <= bound[c]


def _double_loop_log_upper_limit(cs, e_c, e_1, nus):
    """The shared upper limit as one cutoff search per (row, nu)."""
    log_target = math.log(specfun._ABS_TOL) - math.log(10.0)
    log_hi = 0.0
    for nu in nus:
        cut_1 = _tail_cutoff(1.0, e_1, nu, log_target)
        for c in cs:
            cut_c = _tail_cutoff(c, e_c, nu, log_target)
            cut = cut_1 if cut_c is None else min(cut_c, cut_1)
            log_hi = max(log_hi, cut)
    return log_hi


class TestTailCutoff:
    """The core table searches one cutoff per nu, at the smallest row
    coefficient; that is only the worst row if the cutoff never rises
    with the coefficient."""

    @pytest.mark.parametrize("p", [1.001, 1.005, 1.5, 3.0, 64.0])
    def test_nonincreasing_in_coefficient(self, p):
        log_target = math.log(specfun._ABS_TOL) - math.log(10.0)
        cs = np.concatenate([[0.0], np.logspace(-300, 3, 607)])
        for nu in (-0.999, -0.5, 0.0, p - 2.0, 2.0 * p - 2.0, 40.0):
            # both exponents a row coefficient multiplies: u^(2p-2) for
            # t < 1 and z^p for t >= 1
            for e in (2.0 * p - 2.0, p):
                prev = math.inf
                for c in cs:
                    cut = _tail_cutoff(c, e, nu, log_target)
                    if cut is None:
                        assert c <= 1e-280
                        continue
                    assert cut <= prev, (p, nu, e, c)
                    prev = cut

    def test_cutoff_bounds_the_exact_tail(self):
        # at the returned u the exact tail c^(-s)/e * Gamma(s, c u^e),
        # s = (nu+1)/e, is below the target, on every 8th coefficient of
        # the monotonicity grid
        log_target = math.log(specfun._ABS_TOL) - math.log(10.0)
        cs = np.concatenate([[0.0], np.logspace(-300, 3, 607)])[::8]
        grid = [(nu, e) for p in (1.001, 1.005, 1.5, 3.0, 64.0)
                for nu in (-0.999, -0.5, 0.0, p - 2.0, 2.0 * p - 2.0, 40.0)
                for e in (2.0 * p - 2.0, p)]
        worst = -math.inf
        with mp.workdps(30):
            for (nu, e), c in itertools.product(grid, cs):
                cut = _tail_cutoff(c, e, nu, log_target)
                if cut is None:
                    continue
                s = mp.mpf(nu + 1.0) / e
                x = 0 if cut == -math.inf else mp.exp(e * mp.mpf(cut)
                                                      + mp.log(c))
                log_tail = (-s * mp.log(c) - mp.log(e)
                            + mp.log(mp.gammainc(s, x)))
                worst = max(worst, float(log_tail - log_target))
        assert worst <= 0.0

    def test_one_search_matches_double_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            p = 1.0 + 10.0 ** rng.uniform(-3.0, math.log10(63.0))
            ts = 10.0 ** rng.uniform(-6.0, 20.0, size=rng.integers(1, 25))
            ts[rng.random(ts.size) < 0.1] = 0.0
            nus = rng.uniform(-0.999, 40.0, size=rng.integers(1, 5))
            nus[rng.random(nus.size) < 0.3] = p - 2.0
            e2 = 2.0 * p - 2.0
            small = ts[ts < 1.0]
            big = ts[ts >= 1.0]
            # the coefficients and exponents f_family_log_table passes
            tables = []
            if small.size:
                tables.append((small, e2, p))
            if big.size:
                tables.append((np.exp((-p / e2) * np.log(big)), p, e2))
            for cs, e_c, e_1 in tables:
                assert (_log_upper_limit(cs, e_c, e_1, nus)
                        == _double_loop_log_upper_limit(cs, e_c, e_1, nus))


class TestGammaHelpers:
    def test_kappa_values(self):
        assert kappa(0) == pytest.approx(1.0, rel=1e-15)
        assert kappa(1) == pytest.approx(2.0, rel=1e-15)
        assert kappa(2) == pytest.approx(math.pi, rel=1e-15)
        assert kappa(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)

    def test_log_kappa_consistency(self):
        for m in range(0, 30, 3):
            assert log_kappa(m) == pytest.approx(math.log(kappa(m)),
                                                 abs=1e-12)

    def test_log_choose(self):
        assert log_choose(10, 3) == pytest.approx(math.log(120.0),
                                                  rel=1e-14)
        assert log_choose(5, 0) == 0.0

    def test_log_gamma(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi),
                                               rel=1e-14)


class TestConfig:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(DomainError):
            QuadConfig(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadConfig(max_subdivisions=2)

    def test_config_sharpens_result(self):
        p, t, nu = 1.5, 0.7, -0.5
        coarse = f_family(p, t, nu, QuadConfig(rel_tol=1e-6))
        fine = f_family(p, t, nu, QuadConfig(rel_tol=1e-12))
        ref = f_ref(p, t, nu)
        assert abs(fine - ref) <= abs(coarse - ref) + 1e-12 * ref
