"""logsumexp_arr against scipy.special.logsumexp: the same bits.

The GK log engine and the leave-one-out sums call logsumexp_arr, so any
bit it changed would change printed values.  It computes scipy's
real-input formula with numpy alone; these checks hold it to scipy's
output bit for bit.
"""

import numpy as np
import pytest
from scipy.special import logsumexp

from lpvol.logspace import LOG_ZERO, logsumexp_arr


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def reference(a, axis=None):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return logsumexp(a, axis=axis)


def random_arrays(seed, shape_of):
    """Seeded arrays with magnitudes from 1e-3 to 1e5 and random -inf
    entries."""
    rng = np.random.default_rng(seed)
    for _ in range(400):
        a = rng.normal(size=shape_of(int(rng.integers(1, 40))))
        a *= 10.0 ** rng.uniform(-3.0, 5.0)
        a[rng.random(a.shape) < 0.2] = -np.inf
        yield a


class TestSameBitsAsScipy:
    def test_one_dimensional(self):
        for a in random_arrays(1, lambda k: (k,)):
            assert_same_bits(logsumexp_arr(a), reference(a))

    @pytest.mark.parametrize("axis", [None, 1])
    def test_five_rows(self, axis):
        for a in random_arrays(2, lambda k: (5, k)):
            assert_same_bits(logsumexp_arr(a, axis=axis),
                             reference(a, axis=axis))

    def test_all_minus_inf_slices(self):
        a = np.full((5, 7), -np.inf)
        a[1, 3] = 0.25
        a[3] = np.linspace(-2.0, 2.0, 7)
        out = logsumexp_arr(a, axis=1)
        assert_same_bits(out, reference(a, axis=1))
        assert out[0] == LOG_ZERO and out[4] == LOG_ZERO
        assert_same_bits(logsumexp_arr(a[0]), reference(a[0]))
        assert logsumexp_arr(a[0]) == LOG_ZERO

    def test_tied_maxima(self):
        rng = np.random.default_rng(3)
        for _ in range(400):
            a = np.round(rng.normal(size=(5, int(rng.integers(2, 30))))
                         * 10.0 ** rng.uniform(-3.0, 5.0))
            a[:, -1] = a.max(axis=1)
            a[rng.random(a.shape) < 0.3] = a.max()
            for axis in (None, 1):
                assert_same_bits(logsumexp_arr(a, axis=axis),
                                 reference(a, axis=axis))

    def test_list_input(self):
        values = [0.5, -1.25, 3.0, 3.0, -np.inf]
        assert_same_bits(logsumexp_arr(values), reference(values))


class TestEmpty:
    def test_flat_empty_is_log_zero(self):
        out = logsumexp_arr([])
        assert out == LOG_ZERO and isinstance(out, float)

    def test_empty_axis_gives_log_zero_rows(self):
        out = logsumexp_arr(np.empty((3, 0)), axis=1)
        assert out.shape == (3,)
        assert np.all(out == LOG_ZERO)

    def test_no_rows(self):
        assert logsumexp_arr(np.empty((0, 4)), axis=1).shape == (0,)
