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

Two compositions are also written out as straight-line code: interp, one
piece of a piecewise-linear map, and quad, the step x^2 + c.  They are
the hot path of every scalar F* step, and on Python floats the composed
form spends most of its time on its ~40 nested calls, not on the
arithmetic; written out, they run in about 40% of the time.  They do the
composition's operations in its order, so their results have its bits
on floats, numpy scalars and arrays alike.  "The same bits" holds for
results that are not NaN: the sign of a NaN can differ between two
equal formulas, since the operand order CPython's float add hands to the
hardware differs between its generic and specialized paths.

quad leaves out two operations of add's float-tail shortcut, neither of
which can change a result that is not NaN.  With E the two_sum error of
hi + c and t the square's tail, it adds E + t for E + (t + 0.0), which
differs only when t and E are both -0.0, and it drops the last step
e + (t - t), which for a finite t changes only e = -0.0.  In round to
nearest a sum is -0.0 only when both its terms are, and the square's hi
part is never -0.0, so E is never -0.0, nor is the e built on it.  An
infinite or NaN t gives NaN either way.
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


def interp(xh, xl, ah, al, bh, bl, ch, cl, dh, dl):
    """add(c, mul(div(sub(x, a), sub(b, a)), sub(d, c))), written out.

    The operations of the composition in its order: a - b stands for
    a + (-b), the same IEEE result, and every two_sum is the long one,
    which the float-tail shortcut of add matches.  Names are reassigned and
    dropped as soon as they are spent, so an array call keeps few
    temporaries alive at once.
    """
    # sub(x, a) -> (uh, ul)
    s = xh - ah
    t = s - xh
    e = (xh - (s - t)) + (-ah - t)
    h = xl - al
    t = h - xl
    g = (xl - (h - t)) + (-al - t)
    t = e + h
    uh = s + t
    e = t - (uh - s)
    t = e + g
    del e, g, h, xh, xl
    s = uh + t
    ul = t - (s - uh)
    uh = s
    # sub(b, a) -> (wh, wl)
    s = bh - ah
    t = s - bh
    e = (bh - (s - t)) + (-ah - t)
    h = bl - al
    t = h - bl
    g = (bl - (h - t)) + (-al - t)
    t = e + h
    wh = s + t
    e = t - (wh - s)
    t = e + g
    del e, g, h, ah, al, bh, bl
    s = wh + t
    wl = t - (s - wh)
    wh = s
    # div: q = uh / wh, m = mul(q, 0.0, -wh, -wl), r = add(u, m).hi
    q = uh / wh
    nh = -wh
    p = q * nh
    t = _SPLITTER * q
    qh = t - (t - q)
    ql = q - qh
    t = _SPLITTER * nh
    s = t - (t - nh)
    t = nh - s
    e = ((qh * s - p) + qh * t + ql * s) + ql * t
    del qh, ql
    t = e + (q * -wl + 0.0 * nh)
    del nh, e
    mh = p + t
    ml = t - (mh - p)
    del p
    s = uh + mh
    t = s - uh
    e = (uh - (s - t)) + (mh - t)
    del mh
    h = ul + ml
    t = h - ul
    g = (ul - (h - t)) + (ml - t)
    del ul, ml
    t = e + h
    uh = s + t
    e = t - (uh - s)
    t = uh + (e + g)  # the hi part of the last quick_sum
    del e, g, h
    s = t / wh
    del wh
    th = q + s
    tl = s - (th - q)
    del q
    # sub(d, c) -> (vh, vl)
    s = dh - ch
    t = s - dh
    e = (dh - (s - t)) + (-ch - t)
    h = dl - cl
    t = h - dl
    g = (dl - (h - t)) + (-cl - t)
    t = e + h
    vh = s + t
    e = t - (vh - s)
    t = e + g
    del e, g, h, dh, dl
    s = vh + t
    vl = t - (s - vh)
    vh = s
    # mul(t, v) -> (ph, pl)
    p = th * vh
    t = _SPLITTER * th
    qh = t - (t - th)
    ql = th - qh
    t = _SPLITTER * vh
    s = t - (t - vh)
    t = vh - s
    e = ((qh * s - p) + qh * t + ql * s) + ql * t
    del qh, ql
    t = e + (th * vl + tl * vh)
    del th, tl, vh, vl, e
    ph = p + t
    pl = t - (ph - p)
    del p
    # add(c, p)
    s = ch + ph
    t = s - ch
    e = (ch - (s - t)) + (ph - t)
    del ph
    h = cl + pl
    t = h - cl
    g = (cl - (h - t)) + (pl - t)
    del pl
    t = e + h
    uh = s + t
    e = t - (uh - s)
    t = e + g
    del e, g, h
    s = uh + t
    return s, t - (s - uh)


def quad(xh, xl, c):
    """add(*sqr(x), c, 0.0), the step x -> x^2 + c, written out in the
    composition's order, less two operations (see the module docstring)."""
    p = xh * xh
    t = _SPLITTER * xh
    h = t - (t - xh)
    t = xh - h
    e = ((h * h - p) + h * t + t * h) + t * t
    t = e + 2.0 * xh * xl
    del e
    h = p + t
    t = t - (h - p)  # sqr(x) = (h, t)
    del p
    s = h + c
    e = s - h
    e = (h - (s - e)) + (c - e)
    e = e + t
    h = s + e
    e = e - (h - s)
    s = h + e
    return s, e - (s - h)


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
