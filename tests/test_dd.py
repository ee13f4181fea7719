"""Two identities of the double-double kernels, pinned bit for bit.

lt(x, y) is the strict comparison le(x, y) & ~le(y, x) with 5 ufuncs in
place of 12, and add(x, y) with a float tail yl = +-0.0 replaces
two_sum(xl, yl) by (xl + yl, xl - xl).  Both must agree with the long
form on every input: signed zeros, subnormals, infinities, NaN, equal hi
parts with different lo parts, as Python floats, numpy.float64 and arrays.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from cantordyn import _dd

VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
          1e-20, -2.5e-17, 0.5, 1.0, -1.0, 1.0000000000000002, -3.0,
          1e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan]


def same_bits(a, b):
    """Equal bit for bit, except that any NaN equals any NaN: the sign of
    NaN + NaN follows the operand order of the compiled add, which differs
    between CPython's generic and specialized float add."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def lt_long(xh, xl, yh, yl):
    return _dd.le(xh, xl, yh, yl) & ~_dd.le(yh, yl, xh, xl)


def add_two_sum(xh, xl, yh, yl):
    """add as written before the float-tail shortcut."""
    sh, se = _dd.two_sum(xh, yh)
    th, te = _dd.two_sum(xl, yl)
    vh, vl = _dd.quick_sum(sh, se + th)
    return _dd.quick_sum(vh, vl + te)


def grid(k):
    """Every k-tuple of VALUES, as k float64 arrays."""
    return np.array(list(itertools.product(VALUES, repeat=k))).T.copy()


def test_lt_is_strict_le_on_the_grid():
    xh, xl, yh, yl = grid(4)  # 18^4 = 104 976 cases
    assert np.array_equal(_dd.lt(xh, xl, yh, yl), lt_long(xh, xl, yh, yl))
    # equal hi parts decided by the lo parts, both ways
    assert _dd.lt(1.0, -1e-17, 1.0, 0.0) and not _dd.lt(1.0, 0.0, 1.0, -1e-17)
    assert not _dd.lt(0.0, 0.0, -0.0, 0.0) and not _dd.lt(-0.0, 0.0, 0.0, 0.0)
    assert not _dd.lt(1.0, np.nan, 1.0, 0.0)


def test_lt_on_scalars_and_numpy_scalars():
    for xh, xl, yh, yl in itertools.product(VALUES[::2], repeat=4):
        want = bool(lt_long(xh, xl, yh, yl))
        assert _dd.lt(xh, xl, yh, yl) is want
        got = _dd.lt(*map(np.float64, (xh, xl, yh, yl)))
        assert isinstance(got, np.bool_) and bool(got) is want


def test_two_sum_with_a_zero_tail():
    xl = np.array(VALUES)
    with np.errstate(invalid="ignore"):
        for yl in (0.0, -0.0):
            th, te = _dd.two_sum(xl, yl)
            assert same_bits(th, xl + yl) and same_bits(te, xl - xl)
            for x in VALUES:
                for v in (x, np.float64(x)):
                    th, te = _dd.two_sum(v, yl)
                    assert same_bits(th, v + yl) and same_bits(te, v - v)


def test_add_with_a_zero_float_tail_on_the_grid():
    xh, xl, yh = grid(3)
    with np.errstate(over="ignore", invalid="ignore"):
        for yl in (0.0, -0.0, np.float64(0.0), np.float64(-0.0)):
            want = add_two_sum(xh, xl, yh, np.full_like(xh, yl))
            got = _dd.add(xh, xl, yh, yl)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
            # the same through the array path of add itself
            got = _dd.add(xh, xl, yh, np.full_like(xh, yl))
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def test_add_with_a_zero_float_tail_on_scalars():
    with np.errstate(over="ignore", invalid="ignore"):
        for xh, xl, yh in itertools.product(VALUES, repeat=3):
            for yl in (0.0, -0.0):
                want = add_two_sum(xh, xl, yh, yl)
                assert same_bits(_dd.add(xh, xl, yh, yl), want)
                got = _dd.add(np.float64(xh), np.float64(xl), np.float64(yh),
                              np.float64(yl))
                assert same_bits(got, want)


floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(floats, floats, floats, floats, st.sampled_from([0.0, -0.0]))
def test_kernel_identities_random(xh, xl, yh, yl, zero):
    assert _dd.lt(xh, xl, yh, yl) == lt_long(xh, xl, yh, yl)
    assert _dd.lt(xh, xl, xh, yl) == lt_long(xh, xl, xh, yl)
    assert same_bits(_dd.add(xh, xl, yh, zero),
                     add_two_sum(xh, xl, yh, zero))
