"""Identities of the double-double kernels, pinned bit for bit.

lt(x, y) is the strict comparison le(x, y) & ~le(y, x) with 5 ufuncs in
place of 12, and add(x, y) with a float tail yl = +-0.0 replaces
two_sum(xl, yl) by (xl + yl, xl - xl).  interp and quad are the
compositions add(c, mul(div(sub(x, a), sub(b, a)), sub(d, c))) and
add(*sqr(x), c, 0.0) written out.  Each must agree with the long form on
every input: signed zeros, subnormals, infinities, NaN, equal hi parts
with different lo parts, as Python floats, numpy.float64 and arrays.
"""

import itertools
import random
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from cantordyn import _dd
from cantordyn.model_cantor import _BLOCK

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


def interp_long(xh, xl, ah, al, bh, bl, ch, cl, dh, dl):
    """interp as the composition of the kernels."""
    t = _dd.div(*_dd.sub(xh, xl, ah, al), *_dd.sub(bh, bl, ah, al))
    return _dd.add(ch, cl, *_dd.mul(*t, *_dd.sub(dh, dl, ch, cl)))


def quad_long(xh, xl, c):
    return _dd.add(*_dd.sqr(xh, xl), c, 0.0)


def same_outcome(f, g, *args):
    """f(*args) and g(*args) give the same bits, or raise the same error
    (a Python float division by zero raises)."""
    try:
        want = g(*args)
    except ZeroDivisionError:
        try:
            f(*args)
        except ZeroDivisionError:
            return True
        return False
    got = f(*args)
    return same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def special_tuples(k, n, seed):
    """n seeded k-tuples of VALUES, with every value in every position."""
    rng = random.Random(seed)
    rows = [[VALUES[(j + i) % len(VALUES)] for i in range(k)]
            for j in range(len(VALUES))]
    rows += [[rng.choice(VALUES) for _ in range(k)] for _ in range(n)]
    return rows


def test_quad_is_its_composition_on_the_grid():
    xh, xl, c = grid(3)  # 18^3 cases
    with np.errstate(all="ignore"):
        got, want = _dd.quad(xh, xl, c), quad_long(xh, xl, c)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        for args in zip(xh.tolist(), xl.tolist(), c.tolist()):
            assert same_outcome(_dd.quad, quad_long, *args)
            assert same_outcome(_dd.quad, quad_long, *map(np.float64, args))


def test_interp_is_its_composition_on_the_special_values():
    cols = np.array(special_tuples(10, 60000, 24)).T.copy()
    with np.errstate(all="ignore"):
        got, want = _dd.interp(*cols), interp_long(*cols)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        for args in cols.T[:4000].tolist():
            assert same_outcome(_dd.interp, interp_long, *args)
            assert same_outcome(_dd.interp, interp_long,
                                *map(np.float64, args))


def test_interp_is_its_composition_on_pieces():
    # the shape of a real query: a < x < b, c < d, tails far below the heads
    rng = random.Random(7)
    rows = []
    for _ in range(2000):
        a = rng.uniform(-3.0, 3.0)
        b = a + rng.uniform(1e-9, 1.0)
        c = rng.uniform(-1.0, 1.0)
        d = c + rng.uniform(1e-9, 1.0)
        x = rng.uniform(a, b)
        rows.append([v for h in (x, a, b, c, d)
                     for v in (h, h * rng.choice([0.0, 3e-17, -1e-17]))])
    for args in rows:
        assert same_outcome(_dd.interp, interp_long, *args)
    cols = np.array(rows).T.copy()
    got, want = _dd.interp(*cols), interp_long(*cols)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@settings(max_examples=300, deadline=None)
@given(st.lists(floats, min_size=10, max_size=10))
def test_written_out_kernels_random(args):
    assert same_outcome(_dd.interp, interp_long, *args)
    assert same_outcome(_dd.quad, quad_long, *args[:3])
    with np.errstate(all="ignore"):
        cols = [np.array([v]) for v in args]
        assert same_outcome(_dd.interp, interp_long, *cols)
        assert same_outcome(_dd.quad, quad_long, *cols[:3])


def test_interp_peaks_no_higher_than_its_composition():
    rng = np.random.default_rng(5)
    n = 4 * _BLOCK
    a = rng.uniform(-3.0, 3.0, n)
    b = a + rng.uniform(1e-9, 1.0, n)
    c = rng.uniform(-1.0, 1.0, n)
    d = c + rng.uniform(1e-9, 1.0, n)
    x = a + (b - a) * rng.uniform(0.0, 1.0, n)
    args = [v for h in (x, a, b, c, d) for v in (h, h * 1e-17)]
    peaks = []
    for f in (interp_long, _dd.interp):
        tracemalloc.start()
        try:
            f(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0], peaks
