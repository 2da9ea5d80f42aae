"""Tests for the leave-one-out coefficient engine, against brute force
elementary symmetric sums, the closed form of equal factors and its own
ungrouped pass."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from lpvol.errors import DomainError
from lpvol.logspace import logsumexp_arr
from lpvol.specfun import f_family_log_table
from lpvol.symfun import batched_loo_log, elementary_symmetric


def _offset_rows(rng, t_rows, n):
    """Log inputs: a per-row offset in [-300, 300] for each of v, u, w,
    plus a per-factor spread.  Returns (offsets, spreads), each (3, T, n)
    broadcastable, so that log = offset + spread."""
    offsets = rng.uniform(-300.0, 300.0, size=(3, t_rows, 1))
    spreads = rng.normal(0.0, 2.0, size=(3, t_rows, n))
    return offsets, spreads


def _brute_force(offsets, spreads, m, drop=None):
    """sum_i w_i (prod_{r != i} v_r) e_(m-1)({u_r / v_r}_{r != i}) in log
    space, with the row offsets of v and u factored out of the products so
    that elementary_symmetric only sees moderate values."""
    (ov, ou, ow), (sv, su, sw) = offsets, spreads
    t_rows, n = sv.shape
    out = np.empty(t_rows)
    for t in range(t_rows):
        terms = []
        for i in range(n):
            if i == drop:
                continue
            keep = np.arange(n) != i
            e = elementary_symmetric(np.exp(su[t, keep] - sv[t, keep]))
            terms.append(ow[t, 0] + sw[t, i] + (n - 1) * ov[t, 0]
                         + sv[t, keep].sum()
                         + (m - 1) * (ou[t, 0] - ov[t, 0])
                         + math.log(e[m - 1]))
        out[t] = logsumexp_arr(np.array(terms))
    return out


def _check_equal_factors(m, grouped):
    """n w C(n-1, m-1) v^(n-m) u^(m-1) for rows of n = 2000 equal
    factors, given as n columns or as one group of n."""
    t_rows, n = 3, 2000
    lv = np.array([-40.0, 0.0, 25.0])
    lu = np.array([10.0, 0.0, -300.0])
    lw = np.array([5.0, 0.0, 100.0])
    full = np.ones((t_rows, 1 if grouped else n))
    got = batched_loo_log(lv[:, None] * full, lu[:, None] * full,
                          lw[:, None] * full, m, [n] if grouped else None)
    log_choose = math.lgamma(n) - math.lgamma(m) - math.lgamma(n - m + 1)
    want = math.log(n) + lw + log_choose + (n - m) * lv + (m - 1) * lu
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class TestBatchedLooLog:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        offsets, spreads = _offset_rows(rng, 4, n)
        logv, logu, logw = offsets + spreads
        for m in range(1, n + 1):
            got = batched_loo_log(logv, logu, logw, m)
            want = _brute_force(offsets, spreads, m)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-12)

    def test_minus_infinity_weight_drops_its_term(self):
        rng = np.random.default_rng(11)
        n = 6
        offsets, spreads = _offset_rows(rng, 3, n)
        logv, logu, logw = offsets + spreads
        logw[:, 2] = -np.inf
        for m in range(1, n + 1):
            got = batched_loo_log(logv, logu, logw, m)
            want = _brute_force(offsets, spreads, m, drop=2)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-12)

    def test_zero_u_factor_matches_brute_force(self):
        # u_r = 0 leaves factor r constant; the z balance must skip its
        # infinite log ratio
        rng = np.random.default_rng(12)
        n = 6
        offsets, spreads = _offset_rows(rng, 3, n)
        spreads[1, :, 4] = -np.inf
        logv, logu, logw = offsets + spreads
        for m in range(1, n):
            got = batched_loo_log(logv, logu, logw, m)
            want = _brute_force(offsets, spreads, m)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-12)

    def test_all_weights_minus_infinity_give_minus_infinity(self):
        zeros = np.zeros((2, 5))
        got = batched_loo_log(zeros, zeros, np.full((2, 5), -np.inf), 3)
        assert np.all(got == -np.inf)

    def test_two_zero_factors_at_order_one_give_minus_infinity(self):
        # every term keeps one v_r = 0, so both parts vanish before the
        # first rescale, which must not divide by their zero maximum
        logv = np.zeros((2, 20))
        logv[:, :2] = -np.inf
        got = batched_loo_log(logv, np.zeros((2, 20)), np.zeros((2, 20)), 1)
        assert np.all(got == -np.inf)

    @pytest.mark.parametrize("m", [2, 1000, 1990])
    def test_equal_factors_match_closed_form(self, m):
        # the binomial reaches e^1380 at m = 1000, far past float range, and
        # at m = 1990 z^(m-1) lies e^1300 below the middle coefficients
        # unless z is balanced toward it
        _check_equal_factors(m, grouped=False)

    def test_memory_stays_linear_in_the_order(self):
        rng = np.random.default_rng(5)
        t_rows, n, m = 50, 400, 200
        logv, logu, logw = rng.normal(0.0, 1.0, size=(3, t_rows, n))
        tracemalloc.start()
        try:
            batched_loo_log(logv, logu, logw, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_shape_and_order_checked(self):
        ok = np.zeros((2, 4))
        with pytest.raises(DomainError):
            batched_loo_log(ok, np.zeros((2, 3)), ok, 1)
        with pytest.raises(DomainError):
            batched_loo_log(ok[0], ok[0], ok[0], 1)
        for m in (0, 5):
            with pytest.raises(DomainError):
                batched_loo_log(ok, ok, ok, m)

    def test_counts_checked(self):
        ok = np.zeros((2, 3))
        for counts in ([2, 2], [2, 2, 2, 2], [2, 0, 2], [2, -1, 2],
                       [1.5, 1.0, 1.0]):
            with pytest.raises(DomainError):
                batched_loo_log(ok, ok, ok, 1, counts)
        batched_loo_log(ok, ok, ok, 6, [1, 2, 3])
        with pytest.raises(DomainError):
            batched_loo_log(ok, ok, ok, 7, [1, 2, 3])

    def test_factor_without_magnitude_rejected(self):
        logv = np.zeros((1, 3))
        logv[0, 1] = -np.inf
        logu = logv.copy()
        with pytest.raises(DomainError):
            batched_loo_log(logv, logu, np.zeros((1, 3)), 2)


def _expanded(counts, *logs):
    return [np.repeat(x, counts, axis=1) for x in logs]


def _log_scale(counts, logv, logu, logw):
    """The size of the logs the engine sums: sum_r max(|log v_r|,
    |log u_r|) plus the largest |log w|.  Both passes round at this scale,
    which the result can lie far below when the offsets cancel."""
    big = np.maximum(np.abs(logv), np.abs(logu))
    big = np.where(np.isfinite(big), big, 0.0)
    lw = np.where(np.isfinite(logw), np.abs(logw), 0.0)
    return (big * counts).sum(axis=1) + lw.max(axis=1)


class TestGroupedLooLog:
    """Column g of a grouped call stands for counts[g] equal factors; it
    must give the same sum as the expanded call with the column repeated,
    while the pass starts from the closed form of the largest group."""

    def _check(self, counts, logv, logu, logw, m):
        got = batched_loo_log(logv, logu, logw, m, counts)
        want = batched_loo_log(*_expanded(counts, logv, logu, logw), m)
        tol = 1e-12 + 1e-14 * _log_scale(counts, logv, logu, logw)
        with np.errstate(invalid="ignore"):  # -inf on both sides
            diff = np.abs(got - want)
        assert np.all((got == want) | (diff <= tol)), (counts, m, diff)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_expanded_factors(self, seed):
        rng = np.random.default_rng(100 + seed)
        seen = set()
        for _ in range(20):
            groups = int(rng.integers(1, 6))
            counts = rng.integers(1, 60, size=groups)
            n = int(counts.sum())
            offsets, spreads = _offset_rows(rng, 3, groups)
            for m in sorted({1, min(2, n), max(n // 2, 1), max(n - 1, 1), n}):
                self._check(counts, *(offsets + spreads), m)
                seen.add(bool(counts.max() >= m))
        assert seen == {False, True}

    @pytest.mark.parametrize("big", [0, 2])
    def test_minus_infinity_weight_group_drops_its_term(self, big):
        # the dropped group is the largest (closed-form start) or not
        rng = np.random.default_rng(21)
        counts = np.array([3, 9, 5])
        counts[[1, big]] = counts[[big, 1]]
        offsets, spreads = _offset_rows(rng, 3, 3)
        logv, logu, logw = offsets + spreads
        logw[:, big] = -np.inf
        for m in range(1, counts.sum() + 1):
            self._check(counts, logv, logu, logw, m)

    @pytest.mark.parametrize("big", [0, 2])
    @pytest.mark.parametrize("part", [0, 1])
    def test_zero_v_or_u_group(self, big, part):
        # a group of factors z u (part 0) or v (part 1); orders past what
        # the zeros allow give -inf on both sides
        rng = np.random.default_rng(22)
        counts = np.array([3, 9, 5])
        counts[[1, big]] = counts[[big, 1]]
        offsets, spreads = _offset_rows(rng, 3, 3)
        spreads[part, :, big] = -np.inf
        for m in range(1, counts.sum() + 1):
            self._check(counts, *(offsets + spreads), m)

    @pytest.mark.parametrize("m", [2, 1000, 1990])
    def test_one_group_matches_closed_form(self, m):
        _check_equal_factors(m, grouped=True)

    def test_all_weights_minus_infinity_give_minus_infinity(self):
        zeros = np.zeros((2, 3))
        got = batched_loo_log(zeros, zeros, np.full((2, 3), -np.inf), 4,
                              [2, 5, 1])
        assert np.all(got == -np.inf)

    def test_unit_ball_rows_match_ungrouped_pass(self):
        # the moment integrand takes the unit ball in closed form, so
        # the factor-by-factor pass is checked here on the same F columns:
        # (v, u, w) = (F(th; 0), F(th; p-2), F(th; 2p-2)) at p = 3, n = 160
        p, n = 3.0, 160
        theta = np.array([1e-3, 0.1, 1.0, 10.0, 1e3])
        tab = f_family_log_table(p, theta, np.array([0.0, p - 2.0,
                                                     2.0 * p - 2.0]))
        logv, logu, logw = (tab[:, k, None] for k in range(3))
        for m in (1, 2, 80, 159, 160):
            grouped = batched_loo_log(logv, logu, logw, m, [n])
            flat = batched_loo_log(*_expanded([n], logv, logu, logw), m)
            # logs within 1e-12: the sums agree to 1e-12 relative
            np.testing.assert_allclose(flat, grouped, rtol=0.0, atol=1e-12)


def _mp_loo_log(lv, lu, lw, ms):
    """log S_m for each m in ms from one row of log factors: the s^1 part
    of prod_r (v_r + z u_r + s w_r), multiplied out in 40-digit mpmath."""
    with mp.workdps(40):
        v, u, w = ([mp.exp(mp.mpf(float(x))) for x in row]
                   for row in (lv, lu, lw))
        top = max(ms)
        p0 = [mp.mpf(1)] + [mp.mpf(0)] * top
        p1 = [mp.mpf(0)] * (top + 1)
        for r in range(len(v)):
            for d in range(min(r + 1, top), 0, -1):
                p1[d] = v[r] * p1[d] + u[r] * p1[d - 1] + w[r] * p0[d]
                p0[d] = v[r] * p0[d] + u[r] * p0[d - 1]
            p1[0] = v[r] * p1[0] + w[r] * p0[0]
            p0[0] = v[r] * p0[0]
        return {m: float(mp.log(p1[m - 1])) for m in ms}


class TestHeterogeneousFactors:
    """Factors spread over hundreds of orders of magnitude: log v, log u
    and log w drawn N(0, sd^2) at n = 300.  With one mean tilt of z per
    row, z^(m-1) sank about e^-1700 below the row maximum near m = n and
    the pass returned -inf (sd = 10, m in {290, 299, 300}); at sd = 100
    the u-normalisation alone underflowed the m = 1 product of v."""

    @pytest.mark.parametrize("sd", [10.0, 100.0])
    def test_matches_mpmath(self, sd):
        rng = np.random.default_rng(0)
        t_rows, n = 2, 300
        lv, lu, lw = rng.normal(0.0, sd, size=(3, t_rows, n))
        ms = (1, 2, 150, 290, 299, 300)
        want = [_mp_loo_log(lv[t], lu[t], lw[t], ms) for t in range(t_rows)]
        for m in ms:
            got = batched_loo_log(lv, lu, lw, m)
            # log S within 1e-10: S within 1e-10 relative
            np.testing.assert_allclose(got, [row[m] for row in want],
                                       rtol=0.0, atol=1e-10)


def _recurrence_log(logv, logu, logw, counts, m):
    """log [s^1 z^(m-1)] of prod_r (v_r + z u_r + s w_r) by the plain
    recurrence: one factor at a time, the s^0 and s^1 parts carried as
    logs of their coefficients of z^0..z^(m-1)."""
    part0 = np.full(m, -np.inf)
    part0[0] = 0.0
    part1 = np.full(m, -np.inf)
    for lv, lu, lw, k in zip(logv, logu, logw, counts):
        for _ in range(k):
            up0 = np.concatenate([[-np.inf], part0[:-1] + lu])
            up1 = np.concatenate([[-np.inf], part1[:-1] + lu])
            part1 = np.logaddexp(np.logaddexp(part1 + lv, up1), part0 + lw)
            part0 = np.logaddexp(part0 + lv, up0)
    return part1[-1]


class TestEdgeSweep:
    """Seeded edge inputs against the plain recurrence: 1-6 groups of up
    to 40 factors, log factors N(0, sigma^2), and m at 1, at n and in
    between."""

    @pytest.mark.parametrize("sigma", [1.0, 10.0, 100.0, 300.0])
    def test_matches_the_plain_recurrence(self, sigma):
        rng = np.random.default_rng(int(sigma))
        worst = 0.0
        for case in range(75):
            groups = int(rng.integers(1, 7))
            counts = rng.integers(1, 41, size=groups)
            n = int(counts.sum())
            m = (1, n, int(rng.integers(1, n + 1)))[case % 3]
            logs = rng.normal(0.0, sigma, size=(3, groups))
            got = float(batched_loo_log(*logs[:, None, :], m, counts)[0])
            ref = _recurrence_log(*logs, counts, m)
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
        assert worst <= 1e-10
