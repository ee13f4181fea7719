"""Double-double helpers: unevaluated sums hi + lo with ~32 significant digits.

The error-free transformations (two_sum, split, two_prod) are the classical
Dekker/Knuth ones; addition uses the accurate variant that stays precise under
cancellation.  A value is a normalized pair (hi, lo) with |lo| <= ulp(hi)/2;
comparisons of normalized pairs are therefore plain lexicographic comparisons.

The kernels take and return (hi, lo) pairs whose parts are floats or numpy
arrays alike: the formulas are plain elementwise arithmetic, so one kernel
serves a single value and the 2^n endpoints of a whole refinement level with
the same bits.  le and lt compare pairs with | and &, so they yield a bool or
a bool array.  Only sqrt is scalar, because of math.sqrt and its zero test;
v_sqrt is its array form.
"""

import math

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def add(xh, xl, yh, yl):
    sh, se = two_sum(xh, yh)
    if isinstance(yl, float) and yl == 0.0:
        # two_sum(xl, +-0.0) bit for bit: (xl + yl, +0.0) for a finite xl,
        # NaN in both parts for an infinite or NaN one
        th, te = xl + yl, xl - xl
    else:
        th, te = two_sum(xl, yl)
    vh, vl = quick_sum(sh, se + th)
    return quick_sum(vh, vl + te)


def le(xh, xl, yh, yl):
    # lexicographic (hi, lo) comparison; | and & work on bools and bool arrays
    return (xh < yh) | ((xh == yh) & (xl <= yl))


def lt(xh, xl, yh, yl):
    # le(x, y) & ~le(y, x) on every input, NaN and signed zeros included
    return (xh < yh) | ((xh == yh) & (xl < yl))


def sub(xh, xl, yh, yl):
    return add(xh, xl, -yh, -yl)


def mul(xh, xl, yh, yl):
    p, e = two_prod(xh, yh)
    return quick_sum(p, e + (xh * yl + xl * yh))


def sqr(xh, xl):
    p, e = two_prod(xh, xh)
    return quick_sum(p, e + 2.0 * xh * xl)


def div(xh, xl, yh, yl):
    q1 = xh / yh
    rh, _ = add(xh, xl, *mul(q1, 0.0, -yh, -yl))
    return quick_sum(q1, rh / yh)


def sqrt(xh, xl):
    if xh == 0.0 and xl == 0.0:
        return 0.0, 0.0
    q = math.sqrt(xh)
    rh, _ = add(xh, xl, *mul(q, 0.0, -q, 0.0))
    return quick_sum(q, rh / (2.0 * q))


def v_sqrt(xh, xl):
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.sqrt(xh)
        rh, _ = add(xh, xl, *mul(q, 0.0, -q, 0.0))
        out_h, out_l = quick_sum(q, rh / (2.0 * q))
    zero = xh == 0.0
    if np.any(zero):
        out_h = np.where(zero, 0.0, out_h)
        out_l = np.where(zero, 0.0, out_l)
    return out_h, out_l
